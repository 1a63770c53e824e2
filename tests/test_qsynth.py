"""Decompression circuits and the Fourier Series Loader.

Oracles: the inverse-DFT kernel matrix for the iQFT, and the transpose of
the classical packet analysis matrix for the inverse wavelet circuit.
Both are compared as full unitaries on small registers.
"""

import math

import numpy as np
import pytest

from hqsp.circuit import Circuit, report
from hqsp.qsynth import (
    fsl_circuit,
    fsl_classical_reconstruction,
    fsl_coefficients,
    fsl_cx_count,
    inverse_packet_qhwt,
    iqft,
)
from hqsp.signals import Signal, gen_gaussian, gen_periodic
from hqsp.statesim import simulate, trace_distance, unitary_of
from hqsp.transforms import packet_dhwt

RNG = np.random.default_rng(17)


def _idft_matrix(n: int) -> np.ndarray:
    N = 2**n
    j, k = np.meshgrid(np.arange(N), np.arange(N))
    return np.exp(2j * math.pi * j * k / N) / math.sqrt(N)


def _phase_aligned(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    i, j = np.unravel_index(int(np.argmax(np.abs(v))), v.shape)
    return u * (v[i, j] / u[i, j])


# ---------------------------------------------------------------------------
# iQFT
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_iqft_matches_inverse_dft_matrix(n):
    u = unitary_of(iqft(n))
    np.testing.assert_allclose(_phase_aligned(u, _idft_matrix(n)), _idft_matrix(n), atol=1e-10)


def test_iqft_without_swaps_is_bit_reversed():
    n = 3
    u = unitary_of(Circuit(n, [g for g in iqft(n) if g.kind != "SWAP"]))
    perm = [int(f"{j:0{n}b}"[::-1], 2) for j in range(2**n)]
    np.testing.assert_allclose(
        _phase_aligned(u[perm, :], _idft_matrix(n)), _idft_matrix(n), atol=1e-10
    )


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
def test_iqft_cx_count_closed_form(n):
    assert report(iqft(n)).cnot_count == n * (n - 1) + 3 * (n // 2)


def test_iqft_eight_qubits_is_68_cx():
    assert report(iqft(8)).cnot_count == 68


def test_iqft_validation():
    with pytest.raises(ValueError):
        iqft(0)


# ---------------------------------------------------------------------------
# Inverse packet Haar
# ---------------------------------------------------------------------------


def _analysis_matrix(n: int, L: int) -> np.ndarray:
    N = 2**n
    cols = [packet_dhwt(Signal(np.eye(N)[:, j]), L).coefficients.real for j in range(N)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n,L", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 5), (6, 1)])
def test_inverse_packet_qhwt_inverts_analysis(n, L):
    u = unitary_of(inverse_packet_qhwt(n, L))
    np.testing.assert_allclose(u, _analysis_matrix(n, L).T, atol=1e-10)


def test_inverse_packet_qhwt_costs():
    for n in range(2, 17):
        for L in range(1, n):
            circ = inverse_packet_qhwt(n, L)
            rep = report(circ)
            assert rep.cnot_count == 3 * sum(n - l for l in range(1, L + 1))
            assert rep.depth == 3 * n + 3 * L - 5


def test_inverse_packet_qhwt_validation():
    with pytest.raises(ValueError):
        inverse_packet_qhwt(4, 0)
    with pytest.raises(ValueError):
        inverse_packet_qhwt(4, 4)  # final block would be a single qubit


@pytest.mark.parametrize(
    "n,L,cx,d",
    [(15, 10, 285, 70), (15, 13, 312, 79), (15, 12, 306, 76), (16, 13, 351, 82), (10, 7, 126, 46)],
)
def test_inverse_packet_qhwt_benchmark_rows(n, L, cx, d):
    rep = report(inverse_packet_qhwt(n, L))
    assert (rep.cnot_count, rep.depth) == (cx, d)


# ---------------------------------------------------------------------------
# Fourier Series Loader
# ---------------------------------------------------------------------------


def test_fsl_coefficients_layout():
    x = gen_periodic(256)
    spectrum = np.fft.fft(x.samples) / 16.0
    coeffs = fsl_coefficients(x, 5)
    expected = np.concatenate([spectrum[:32], spectrum[-32:]])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)
    with pytest.raises(ValueError):
        fsl_coefficients(x, 8)  # m must stay below n


def test_fsl_simulation_matches_classical_truncation():
    for n, m in [(6, 3), (7, 4), (8, 5)]:
        x = gen_gaussian(2**n, sigma=0.8)
        circ = fsl_circuit(fsl_coefficients(x, m), n, m)
        psi = simulate(circ)
        ref = fsl_classical_reconstruction(x, m)
        assert trace_distance(psi, ref) < 1e-9


def test_fsl_exact_when_band_covers_support():
    # all four periodic modes are inside the m=7 window of an n=8 register
    x = gen_periodic(256)
    psi = simulate(fsl_circuit(fsl_coefficients(x, 7), 8, 7))
    assert trace_distance(psi, np.asarray(x.samples, dtype=complex)) < 1e-9


def test_fsl_error_decreases_with_band():
    x = gen_gaussian(2**8, sigma=0.8)
    tds = [
        trace_distance(simulate(fsl_circuit(fsl_coefficients(x, m), 8, m)), x.samples)
        for m in (2, 4, 6)
    ]
    assert tds[0] >= tds[1] >= tds[2]


@pytest.mark.parametrize("n,m", [(4, 1), (6, 3), (8, 5), (8, 7)])
def test_fsl_cx_count_matches_circuit(n, m):
    x = gen_gaussian(2**n)
    circ = fsl_circuit(fsl_coefficients(x, m), n, m)
    assert report(circ).cnot_count == fsl_cx_count(n, m)


def test_fsl_benchmark_counts():
    assert fsl_cx_count(8, 7) == 576
    assert fsl_cx_count(15, 6) == 491
    assert fsl_cx_count(15, 5) == 364
    assert fsl_cx_count(16, 12) == 16647


def test_fsl_circuit_validation():
    x = gen_gaussian(2**4)
    coeffs = fsl_coefficients(x, 2)
    with pytest.raises(ValueError):
        fsl_circuit(coeffs, 4, 4)
    with pytest.raises(ValueError):
        fsl_circuit(coeffs[:4], 4, 2)
