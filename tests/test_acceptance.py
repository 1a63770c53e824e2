"""Acceptance checks, one test per numbered criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line
per criterion in addition to pytest's own verdicts.  The recording-based
checks skip when ``data/ppg`` holds no CSVs.
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hqsp.circuit import Circuit, decompose, gate, report
from hqsp.loaders import SparseState, dense_complex_load, eae_real, sqsp
from hqsp.pipeline import (
    ExperimentConfig,
    build_signal,
    compression_point,
    hybrid_prepare,
    run_table1,
    sweep_ppg,
)
from hqsp.qsynth import (
    fsl_circuit,
    fsl_coefficients,
    fsl_cx_count,
    inverse_packet_qhwt,
    iqft,
)
from hqsp.signals import Signal, gen_gaussian, gen_periodic, ingest_waveform_csv
from hqsp.statesim import fidelity, simulate, trace_distance, unitary_of
from hqsp.transforms import (
    ABSOLUTE,
    DFT,
    FRACTION_OF_MAX,
    PACKET_HAAR,
    ThresholdPolicy,
    classical_reconstruct,
    dft,
    packet_dhwt,
    threshold_normalize,
)

PPG_DIR = Path(__file__).resolve().parent.parent / "data" / "ppg"
PPG_RECORDING = PPG_DIR / "recording01.csv"
HAVE_PPG = PPG_RECORDING.exists()


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def table1_records():
    if HAVE_PPG:
        return run_table1(ppg_csv=PPG_RECORDING)
    return run_table1(skip_ppg=True)


DECOMPRESSION_ROWS = (
    (15, 10, 285, 70),
    (15, 13, 312, 79),
    (15, 12, 306, 76),
    (16, 13, 351, 82),
    (10, 7, 126, 46),
)


def test_criterion_01_decompression_cnot_counts():
    with criterion(1, "decompression CNOT counts"):
        for n, L, cx, _ in DECOMPRESSION_ROWS:
            assert report(inverse_packet_qhwt(n, L)).cnot_count == cx


def test_criterion_02_decompression_depths():
    with criterion(2, "decompression depths and closed form"):
        for n, L, _, d in DECOMPRESSION_ROWS:
            assert report(inverse_packet_qhwt(n, L)).depth == d
        for n in range(2, 17):
            for L in range(1, n):
                assert report(inverse_packet_qhwt(n, L)).depth == 3 * n + 3 * L - 5


def test_criterion_03_fsl_cnot_counts():
    with criterion(3, "FSL CNOT counts"):
        expected = {(8, 7): 576, (15, 6): 491, (15, 5): 364, (16, 12): 16647}
        for (n, m), cx in expected.items():
            assert fsl_cx_count(n, m) == cx
            circuit = fsl_circuit(fsl_coefficients(gen_gaussian(2**n), m), n, m)
            assert report(circuit).cnot_count == cx


REDUCTION_BANDS = {
    "sinc": (31.5, 52.5),  # ~42x +- 25%
    "gaussian": (47.25, 78.75),  # ~63x
    "mixture": (33.75, 56.25),  # ~45x
    "ppg": (3.0, 5.0),  # ~4x
}


def test_criterion_04_baselines_and_reduction_factors(table1_records):
    with criterion(4, "iQFT8 = 68 CX, EAE = 2^n-2, reduction factors"):
        assert report(iqft(8)).cnot_count == 68
        rng = np.random.default_rng(0)
        for n in (2, 5, 8):
            v = rng.normal(size=2**n)
            assert report(eae_real(v / np.linalg.norm(v))).cnot_count == 2**n - 2
        factors = {
            r.label: r.cx_reduction for r in table1_records if r.warning is None
        }
        for label, (lo, hi) in REDUCTION_BANDS.items():
            if label == "ppg" and label not in factors:
                continue  # dataset not configured; criterion 10 skips too
            assert lo <= factors[label] <= hi, f"{label}: {factors[label]}"


def test_criterion_05_gaussian_benchmark(table1_records):
    with criterion(5, "Gaussian benchmark d/CR/TD"):
        row = next(r for r in table1_records if r.label == "gaussian")
        assert row.d == 44
        assert abs(row.cr - 744.7) <= 0.1
        assert 0.003 <= row.simulated_td <= 0.02


def test_criterion_06_lossless_cases():
    with criterion(6, "lossless periodic and piecewise pipelines"):
        _, periodic = hybrid_prepare(
            ExperimentConfig(
                "periodic", DFT, threshold=ThresholdPolicy(FRACTION_OF_MAX, 1e-9)
            )
        )
        assert periodic.simulated_td < 1e-9
        _, piecewise = hybrid_prepare(
            ExperimentConfig("piecewise", PACKET_HAAR, 7, signal_params={"N": 2**10})
        )
        assert piecewise.simulated_td < 1e-9


def test_criterion_07_quantum_classical_agreement():
    with criterion(7, "simulated state = classical reconstruction (50 configs)"):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 13))
            levels = int(rng.integers(1, n))
            tau = float(rng.uniform(0.001, 0.1))
            cfg = ExperimentConfig(
                "mixture",
                PACKET_HAAR,
                levels,
                ThresholdPolicy(FRACTION_OF_MAX, tau),
                signal_params={"N": 2**n, "seed": seed},
            )
            circuit, _ = hybrid_prepare(cfg)
            x = build_signal("mixture", {"N": 2**n, "seed": seed}).samples
            compressed = threshold_normalize(
                packet_dhwt(x.astype(complex), levels), cfg.threshold
            )
            reconstruction = classical_reconstruct(compressed).samples
            assert trace_distance(simulate(circuit), reconstruction) < 1e-9


def _phase_aligned(u: np.ndarray, ref: np.ndarray) -> np.ndarray:
    i, j = np.unravel_index(int(np.argmax(np.abs(ref))), ref.shape)
    return u * (ref[i, j] / u[i, j])


def test_criterion_08_oracle_equivalence():
    with criterion(8, "circuit unitaries match classical matrices"):
        for n in range(2, 7):
            N = 2**n
            for L in range(1, n):
                analysis = np.stack(
                    [
                        packet_dhwt(Signal(np.eye(N)[:, j]), L).coefficients.real
                        for j in range(N)
                    ],
                    axis=1,
                )
                u = unitary_of(inverse_packet_qhwt(n, L))
                assert np.allclose(u, analysis.T, atol=1e-10)
        for n in range(1, 7):
            N = 2**n
            jj, kk = np.meshgrid(np.arange(N), np.arange(N))
            idft_matrix = np.exp(2j * math.pi * jj * kk / N) / math.sqrt(N)
            u = unitary_of(iqft(n))
            assert np.allclose(_phase_aligned(u, idft_matrix), idft_matrix, atol=1e-10)
        for g in (gate("SWAP", 0, 2), gate("CPHASE", 1, 0, angle=0.93), gate("CCX", 0, 1, 2)):
            n = max(g.qubits) + 1
            whole = unitary_of(Circuit(n, [g]))
            parts = unitary_of(decompose(Circuit(n, [g])))
            assert np.allclose(_phase_aligned(parts, whole), whole, atol=1e-12)


def test_criterion_09_loader_fidelity():
    with criterion(9, "loader fidelity over 200 random instances each"):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, min(2**n, 48) + 1))
            idx = rng.choice(2**n, size=d, replace=False)
            amps = rng.normal(size=d) + 1j * rng.normal(size=d)
            amps /= np.linalg.norm(amps)
            state = SparseState(n, idx, amps)
            assert fidelity(simulate(sqsp(state)), state.to_dense()) >= 1 - 1e-9
        for _ in range(200):
            n = int(rng.integers(1, 11))
            v = rng.normal(size=2**n)
            v /= np.linalg.norm(v)
            assert fidelity(simulate(eae_real(v)), v) >= 1 - 1e-9
        for _ in range(200):
            m = int(rng.integers(1, 11))
            v = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
            v /= np.linalg.norm(v)
            assert fidelity(simulate(dense_complex_load(v)), v) >= 1 - 1e-9
        spectrum = threshold_normalize(
            dft(gen_periodic(256)), ThresholdPolicy(ABSOLUTE, 0.1)
        )
        assert spectrum.d == 4
        loader = sqsp(SparseState.from_compressed(spectrum))
        assert report(loader).cnot_count <= 30


@pytest.mark.skipif(not HAVE_PPG, reason="no recordings under data/ppg")
def test_criterion_10_ppg_compression(table1_records):
    with criterion(10, "PPG recording compression and lossless column"):
        row = next(r for r in table1_records if r.label == "ppg")
        assert row.warning is None
        assert 15.0 <= row.cr <= 30.0
        assert 0.03 <= row.simulated_td <= 0.12
        recordings = sorted(PPG_DIR.glob("*.csv"))
        for path in recordings:
            signal = ingest_waveform_csv(path)
            _, _, td = compression_point(signal, 13, ThresholdPolicy(ABSOLUTE, 0.0))
            assert td < 1e-9, f"{path.name}: tau=0 TD {td}"
        cells = sweep_ppg(levels=(13,), taus=(0.0, 0.0041), dataset_dir=PPG_DIR)
        lossless = next(c for c in cells if c.tau == 0.0)
        assert lossless.mean_td < 1e-9
