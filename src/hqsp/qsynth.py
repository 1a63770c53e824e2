"""Quantum decompression circuits and the Fourier Series Loader baseline.

``iqft`` realizes the inverse-DFT matrix (1/sqrt(N)) exp(+2 pi i j k / N)
up to global phase, bit-reversal SWAPs included.  The inverse
packet Haar circuit undoes :func:`hqsp.transforms.packet_dhwt`: one block
per level in increasing block size, each block a descending SWAP chain
followed by a Hadamard on qubit 0.  Closed-form costs (decomposed):

* iqft(n) with swaps: n(n-1) CX from the CPHASE ladder + 3*floor(n/2).
* inverse_packet_qhwt(n, L): 3 * sum_{l=1..L} (n-l) CX, depth 3n + 3L - 5.

The FSL approximates a signal by its 2**(m+1) lowest-frequency Fourier
modes: a dense complex load on m+1 qubits, a CX fan from the sign qubit
relocating negative frequencies to the top of the register, and a full
inverse QFT.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit
from .loaders import dense_complex_load
from .signals import Signal

__all__ = [
    "iqft",
    "inverse_packet_qhwt",
    "fsl_coefficients",
    "fsl_classical_reconstruction",
    "fsl_circuit",
    "fsl_cx_count",
]


def iqft(n: int) -> Circuit:
    """Inverse quantum Fourier transform on n qubits; the closing
    bit-reversal SWAPs make its unitary the inverse-DFT matrix up to
    global phase."""
    if n < 1:
        raise ValueError("iqft needs at least one qubit")
    circ = Circuit(n)
    for q in range(n - 1, -1, -1):
        circ.add("H", q)
        for p in range(q - 1, -1, -1):
            circ.add("CPHASE", p, q, angle=math.pi / 2 ** (q - p))
    for q in range(n // 2):
        circ.add("SWAP", q, n - 1 - q)
    return circ


def inverse_packet_qhwt(n: int, L: int) -> Circuit:
    """Inverse packet Haar wavelet circuit for an L-level analysis on n qubits.

    Blocks run in increasing size m = n-L+1 .. n; each block is the SWAP
    chain (m-1, m-2), ..., (1, 0) followed by H on qubit 0, which is the
    transpose of one analysis level restricted to the low m qubits.
    """
    if L < 1 or n - L + 1 < 2:
        raise ValueError(f"need 1 <= L <= n-1, got n={n}, L={L}")
    circ = Circuit(n)
    for m in range(n - L + 1, n + 1):
        for j in range(m - 1, 0, -1):
            circ.add("SWAP", j, j - 1)
        circ.add("H", 0)
    return circ


def fsl_coefficients(x: Signal, m: int) -> np.ndarray:
    """Truncated Fourier coefficients on the (m+1)-qubit FSL register.

    Register index j < 2**m holds frequency j; j >= 2**m holds the negative
    frequency N - 2**(m+1) + j.  Renormalized to unit norm.
    """
    samples = np.asarray(x.samples, dtype=complex)
    N = len(samples)
    n = int(math.log2(N))
    if not 0 <= m <= n - 1:
        raise ValueError(f"need 0 <= m <= n-1, got m={m}, n={n}")
    spectrum = np.fft.fft(samples) / math.sqrt(N)
    half = 2**m
    coeffs = np.concatenate([spectrum[:half], spectrum[N - half :]])
    norm = np.linalg.norm(coeffs)
    if norm == 0:
        raise ValueError("signal has no energy in the retained band")
    return coeffs / norm


def fsl_classical_reconstruction(x: Signal, m: int) -> np.ndarray:
    """Unit-norm inverse DFT of the truncated spectrum; the classical
    reference the simulated FSL state is compared against."""
    samples = np.asarray(x.samples, dtype=complex)
    N = len(samples)
    half = 2**m
    spectrum = np.fft.fft(samples) / math.sqrt(N)
    kept = np.zeros(N, dtype=complex)
    kept[:half] = spectrum[:half]
    kept[N - half :] = spectrum[N - half :]
    recon = np.fft.ifft(kept) * math.sqrt(N)
    return recon / np.linalg.norm(recon)


def fsl_circuit(coefficients: np.ndarray, n: int, m: int) -> Circuit:
    """Fourier Series Loader: load, relocate negative frequencies, iqft."""
    coeffs = np.asarray(coefficients, dtype=complex)
    if not 0 <= m <= n - 1:
        raise ValueError(f"need 0 <= m <= n-1, got m={m}, n={n}")
    if coeffs.shape != (2 ** (m + 1),):
        raise ValueError(
            f"coefficient register must hold {2 ** (m + 1)} values, got {coeffs.shape}"
        )
    circ = Circuit(n)
    for g in dense_complex_load(coeffs):
        circ.append(g)
    for j in range(m + 1, n):
        circ.add("CX", m, j)
    for g in iqft(n):
        circ.append(g)
    return circ


def fsl_cx_count(n: int, m: int) -> int:
    """Closed-form decomposed CX count of fsl_circuit."""
    return 2 * (2 ** (m + 1) - 2) + (n - m - 1) + n * (n - 1) + 3 * (n // 2)
