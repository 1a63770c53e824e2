"""Time ``hqsp.pipeline.sweep_ppg`` on the recordings in ``data/ppg``.

The default grid is levels 8-14 and taus 0 to 0.02 in absolute mode.  The
script prints the seconds of one whole ``sweep_ppg`` call, then the same
work split into its three stages, summed over the recordings.  As in
``sweep_ppg``, one recording is held at a time: it is ingested, analysed
and priced before the next is read.

* ingest: ``ingest_waveform_csv`` and unit normalisation of the recording,
  whose real part is kept;
* packet analysis: deepening its packet Haar analysis, in real arithmetic,
  to the deepest grid level;
* pricing: ``price_thresholds`` on every tau at each grid level.

Each stage runs on the arrays ``_price_recording`` builds, so the split is
that of the path ``sweep_ppg`` takes.

Each figure is the best of three runs, measured in process.  Nothing is
asserted about the times.  Run from the repository root:

    python3 scripts/time_sweep.py
"""

from __future__ import annotations

import time
from pathlib import Path

from hqsp.pipeline import (
    DEFAULT_PPG_DIR,
    DEFAULT_SWEEP_LEVELS,
    DEFAULT_SWEEP_TAUS,
    _unit_samples,
    price_thresholds,
    sweep_ppg,
)
from hqsp.signals import ingest_waveform_csv
from hqsp.transforms import ABSOLUTE, ThresholdPolicy, packet_analysis

REPEATS = 3


def stages(paths) -> dict[str, float]:
    """Seconds of each stage of one sweep over ``paths``."""
    policies = [ThresholdPolicy(ABSOLUTE, tau) for tau in DEFAULT_SWEEP_TAUS]
    ingest = analysis = pricing = 0.0
    for path in paths:  # one recording at a time, as sweep_ppg holds them
        start = time.perf_counter()
        x = _unit_samples(ingest_waveform_csv(path)).real  # as _price_recording
        ingest += time.perf_counter() - start
        levels = packet_analysis(x)
        for level in range(1, max(DEFAULT_SWEEP_LEVELS) + 1):
            start = time.perf_counter()
            X = next(levels)
            analysis += time.perf_counter() - start
            if level in DEFAULT_SWEEP_LEVELS:
                start = time.perf_counter()
                list(price_thresholds(X, policies))
                pricing += time.perf_counter() - start
    return {"ingest": ingest, "packet analysis": analysis, "pricing": pricing}


def main() -> None:
    paths = sorted(Path(DEFAULT_PPG_DIR).glob("*.csv"))
    whole = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sweep_ppg()
        whole.append(time.perf_counter() - start)
    runs = [stages(paths) for _ in range(REPEATS)]
    print(f"{len(paths)} recordings, levels {DEFAULT_SWEEP_LEVELS[0]}-"
          f"{DEFAULT_SWEEP_LEVELS[-1]}, {len(DEFAULT_SWEEP_TAUS)} taus")
    print(f"{'stage':<16} {'seconds':>8}")
    for name in runs[0]:
        print(f"{name:<16} {min(r[name] for r in runs):>8.3f}")
    print(f"{'sweep_ppg':<16} {min(whole):>8.3f}")


if __name__ == "__main__":
    main()
