"""Classical compression phase: unitary transforms, thresholding, metrics.

Two orthonormal analysis transforms are provided: the unitary DFT
(``1/sqrt(N)`` convention, ``exp(-2*pi*1j*k*j/N)`` kernel) and the packet
Haar wavelet transform, where every level re-analyses both the average and
the difference half of each block.  Level ``l`` of the packet transform is
``I (x) W`` with ``W`` the single-level Haar matrix acting on the low
``n - l + 1`` index bits: averages of adjacent pairs land in the first half
of each block, differences in the second half.

Thresholding zeroes coefficients with magnitude strictly below the cutoff
(ties survive) and rescales the survivors to unit norm.

Amplitude vectors on disk, compressed coefficients and simulated states
alike, use one CSV codec: ``# key=value`` header lines (``n`` required),
then ``index,real,imaginary`` rows.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .signals import Signal
from .statesim import MAX_QUBITS

__all__ = [
    "TransformDescriptor",
    "ThresholdPolicy",
    "CompressedVector",
    "EmptySupportError",
    "WrongTransformError",
    "dft",
    "idft",
    "packet_analysis",
    "packet_dhwt",
    "packet_idhwt",
    "threshold_normalize",
    "compression_ratio",
    "analyse",
    "classical_reconstruct",
    "write_amplitude_csv",
    "read_amplitude_csv",
    "save_compressed_csv",
    "load_compressed_csv",
]

DFT = "dft"
PACKET_HAAR = "haar"

FRACTION_OF_MAX = "fraction_of_max"
ABSOLUTE = "absolute"


class EmptySupportError(ValueError):
    """Thresholding removed every coefficient (tau too aggressive)."""


class WrongTransformError(ValueError):
    """Inverse requested for a different transform than the one applied."""


@dataclass(frozen=True)
class TransformDescriptor:
    kind: str
    levels: int | None = None

    def __post_init__(self):
        if self.kind not in (DFT, PACKET_HAAR):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == PACKET_HAAR and (self.levels is None or self.levels < 1):
            raise ValueError("packet Haar descriptor needs levels >= 1")
        if self.kind == DFT and self.levels is not None:
            raise ValueError("DFT descriptor takes no levels")


@dataclass(frozen=True)
class ThresholdPolicy:
    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in (FRACTION_OF_MAX, ABSOLUTE):
            raise ValueError(f"unknown threshold mode {self.mode!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"threshold must be finite, got {self.value}")
        if self.value < 0:
            raise ValueError("threshold must be nonnegative")
        if self.mode == FRACTION_OF_MAX and self.value > 1:
            raise ValueError("fraction-of-max threshold must be <= 1")

    def cutoff(self, magnitudes: np.ndarray) -> float:
        if self.mode == ABSOLUTE:
            return self.value
        return self.value * float(np.max(magnitudes))

    def dropped(self, magnitudes: np.ndarray) -> np.ndarray:
        """Mask of the coefficients this policy zeroes, from their
        magnitudes: those strictly below the cutoff, and the zeros.  Raises
        :class:`EmptySupportError` when it leaves none."""
        cutoff = self.cutoff(magnitudes)
        dropped = magnitudes < cutoff if cutoff > 0 else magnitudes == 0
        if dropped.all():
            if not magnitudes.any():
                raise EmptySupportError("input vector has no nonzero coefficients")
            raise EmptySupportError(
                f"threshold {self.mode}={self.value} prunes every coefficient"
            )
        return dropped


@dataclass(frozen=True)
class CompressedVector:
    """Transform-domain coefficients plus enough context to invert them."""

    coefficients: np.ndarray
    descriptor: TransformDescriptor
    threshold_applied: ThresholdPolicy | None = None

    def __post_init__(self):
        coeffs = _as_samples(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        n = int(math.log2(len(coeffs)))
        if 2**n != len(coeffs):
            raise ValueError("coefficient length must be a power of two")

    @property
    def n(self) -> int:
        return int(math.log2(len(self.coefficients)))

    @property
    def d(self) -> int:
        return int(np.count_nonzero(self.coefficients))

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) of the nonzero coefficients, index-sorted."""
        idx = np.flatnonzero(self.coefficients)
        return idx, self.coefficients[idx]


def _as_samples(x) -> np.ndarray:
    """The samples of ``x`` as float64 if they are float64, else complex."""
    samples = np.asarray(x.samples if isinstance(x, Signal) else x)
    return samples if samples.dtype == np.float64 else samples.astype(complex)


def dft(x: Signal) -> CompressedVector:
    """Unitary forward DFT: X_k = (1/sqrt(N)) sum_j x_j exp(-2 pi i k j / N)."""
    samples = _as_samples(x).astype(complex, copy=False)
    coeffs = np.fft.fft(samples) / math.sqrt(len(samples))
    return CompressedVector(coeffs, TransformDescriptor(DFT))


def idft(X: CompressedVector) -> Signal:
    if X.descriptor.kind != DFT:
        raise WrongTransformError(f"cannot idft a {X.descriptor.kind!r} vector")
    n = len(X.coefficients)
    samples = np.fft.ifft(X.coefficients) * math.sqrt(n)
    return Signal(samples)


# NumPy divides a complex array by a real one as a product with its
# reciprocal, so scaling by this keeps the bits of dividing by sqrt(2)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _haar_level(values: np.ndarray, block: int) -> np.ndarray:
    """One analysis level on every contiguous block of the given length,
    built in one array of the dtype of ``values``."""
    pairs = values.reshape(-1, block // 2, 2)
    out = np.empty((len(pairs), 2, block // 2), dtype=values.dtype)
    np.add(pairs[:, :, 0], pairs[:, :, 1], out=out[:, 0])
    np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=out[:, 1])
    out *= _INV_SQRT2
    return out.reshape(-1)


def _haar_level_inverse(values: np.ndarray, block: int) -> np.ndarray:
    half = values.reshape(-1, 2, block // 2)
    avg, diff = half[:, 0, :], half[:, 1, :]
    out = np.empty_like(half.reshape(-1, block))
    out[:, 0::2] = (avg + diff) / math.sqrt(2.0)
    out[:, 1::2] = (avg - diff) / math.sqrt(2.0)
    return out.reshape(-1)


def _check_levels(n: int, levels: int) -> None:
    if not 1 <= levels <= n:
        raise ValueError(f"levels must satisfy 1 <= L <= {n}, got {levels}")


def packet_analysis(x: Signal) -> Iterator[CompressedVector]:
    """Packet Haar analysis deepened one level at a time: yields the
    level-1, level-2, ..., level-n transforms of ``x``, each built from the
    one before, and keeps only the latest.  A float64 ``x`` is analysed in
    real arithmetic, any other in complex."""
    out = _as_samples(x)
    n = int(math.log2(len(out)))
    for level in range(1, n + 1):
        out = _haar_level(out, 2 ** (n - level + 1))
        yield CompressedVector(out, TransformDescriptor(PACKET_HAAR, level))


def packet_dhwt(x: Signal, levels: int) -> CompressedVector:
    """Packet Haar analysis: both halves of every block are re-analysed at
    each of the ``levels`` stages.  Orthogonal, norm-preserving.  This is
    the ``levels``-th transform :func:`packet_analysis` yields."""
    samples = _as_samples(x)
    _check_levels(int(math.log2(len(samples))), levels)
    return next(itertools.islice(packet_analysis(samples), levels - 1, None))


def packet_idhwt(X: CompressedVector) -> Signal:
    if X.descriptor.kind != PACKET_HAAR:
        raise WrongTransformError(f"cannot invert {X.descriptor.kind!r} as packet Haar")
    levels = X.descriptor.levels
    out = X.coefficients.copy()
    n = X.n
    for level in range(levels, 0, -1):
        out = _haar_level_inverse(out, 2 ** (n - level + 1))
    return Signal(out)


def threshold_normalize(X: CompressedVector, policy: ThresholdPolicy) -> CompressedVector:
    """Zero coefficients with |X_k| strictly below the cutoff, renormalize."""
    coeffs = X.coefficients
    kept = np.where(policy.dropped(np.abs(coeffs)), 0.0, coeffs)
    return CompressedVector(kept / np.linalg.norm(kept), X.descriptor, threshold_applied=policy)


def compression_ratio(N: int, d: int) -> float:
    if d < 1:
        raise EmptySupportError("compression ratio undefined for empty support")
    return N / d


def analyse(x, descriptor: TransformDescriptor) -> CompressedVector:
    """Apply the forward transform ``descriptor`` names; the twin of
    :func:`classical_reconstruct`."""
    if descriptor.kind == DFT:
        return dft(x)
    return packet_dhwt(x, descriptor.levels)


def classical_reconstruct(X: CompressedVector) -> Signal:
    """Inverse-transform the (possibly thresholded) coefficients.

    Not on the pipeline's path, which prices a compression from its
    coefficients by Parseval; the tests keep it as the oracle that the
    simulated register and the Parseval price are checked against."""
    if X.descriptor.kind == DFT:
        return idft(X)
    return packet_idhwt(X)


# ---------------------------------------------------------------------------
# Sparse-amplitude CSV: '# key=value' lines, then index,real,imaginary rows
# ---------------------------------------------------------------------------

_AMPLITUDE_COLUMNS = ["index", "real", "imaginary"]


def write_amplitude_csv(path, n: int, indices, amplitudes, meta: dict | None = None) -> None:
    """Write ``indices`` and their ``amplitudes`` as ``index,real,imaginary`` rows.

    A ``# n=`` line and one ``# key=value`` line per ``meta`` item come
    first.  Python floats are written with ``repr``, so a round trip is exact.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    rows = zip(np.asarray(indices).tolist(), amps.real.tolist(), amps.imag.tolist())
    with open(path, "w", newline="") as fh:
        for key, value in {"n": n, **(meta or {})}.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(_AMPLITUDE_COLUMNS) + "\n")
        fh.writelines(f"{i},{re!r},{im!r}\n" for i, re, im in rows)


def _parse_cell(cast, text: str, where: str, what: str):
    """``cast(text)`` (``int`` or ``float``), or a :class:`ValueError`
    naming ``where`` and ``what``."""
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"{where}: {what} {text.strip()!r} is not {kind}") from None


def _decoded(fh, path):
    """The lines of the text file ``fh``; bytes that do not decode raise
    :class:`ValueError` naming ``path``."""
    try:
        yield from fh
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def read_amplitude_csv(path) -> tuple[int, np.ndarray, np.ndarray, dict[str, str]]:
    """Read a file of :func:`write_amplitude_csv` as ``(n, indices, amplitudes, meta)``.

    The arrays hold the rows in file order.  ``meta`` holds every header
    value as a string, ``n`` included; ``n`` may not exceed the dense
    simulator's ``MAX_QUBITS``, since callers densify the vector.  A missing
    or malformed header or cell, an index outside ``[0, 2**n)``, a repeated
    index or a non-finite value raises :class:`ValueError` naming ``path:line``,
    and bytes that do not decode one naming ``path``.
    """
    meta: dict[str, str] = {}
    indices: list[int] = []
    values: list[complex] = []
    n = seen = None  # seen holds the indices read, from the column header on
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(_decoded(fh, path), start=1):
            line = raw.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if seen is None:
                if line.startswith("#"):
                    key, eq, value = line[1:].partition("=")
                    key = key.strip()
                    if not eq or not key or key in meta:
                        raise ValueError(f"{where}: expected a new '# key=value' line")
                    meta[key] = value.strip()
                    if key == "n":
                        n = _parse_cell(int, value, where, "n")
                        if not 1 <= n <= MAX_QUBITS:
                            raise ValueError(f"{where}: n={n} outside [1, {MAX_QUBITS}]")
                    continue
                if [c.strip() for c in line.split(",")] != _AMPLITUDE_COLUMNS:
                    raise ValueError(f"{where}: expected header 'index,real,imaginary'")
                if n is None:
                    raise ValueError(f"{where}: missing '# n=' line before the header")
                seen = set()
                continue
            cells = line.split(",")
            if len(cells) != 3:
                raise ValueError(f"{where}: expected 3 cells, got {len(cells)}")
            index = _parse_cell(int, cells[0], where, "index")
            value = complex(*(_parse_cell(float, c, where, "value") for c in cells[1:]))
            if not 0 <= index < 2**n:
                raise ValueError(f"{where}: index {index} outside [0, 2^{n})")
            if index in seen:
                raise ValueError(f"{where}: duplicate index {index}")
            if not cmath.isfinite(value):
                raise ValueError(f"{where}: non-finite amplitude {value}")
            seen.add(index)
            indices.append(index)
            values.append(value)
    if seen is None:
        raise ValueError(f"{path}: missing header 'index,real,imaginary'")
    return n, np.array(indices, dtype=np.int64), np.array(values, dtype=complex), meta


def save_compressed_csv(X: CompressedVector, path) -> None:
    """Nonzero coefficients, with the transform and threshold as metadata."""
    pol = X.threshold_applied
    meta = {
        "kind": X.descriptor.kind,
        "levels": X.descriptor.levels or "",
        "mode": pol.mode if pol else "",
        "value": repr(pol.value) if pol else "",
    }
    write_amplitude_csv(path, X.n, *X.support(), meta)


_COMPRESSED_KEYS = ("n", "kind", "levels", "mode", "value")


def load_compressed_csv(path) -> CompressedVector:
    """Read a file of :func:`save_compressed_csv`; a key it does not write
    and missing or malformed metadata raise :class:`ValueError` naming
    ``path`` and the key."""
    n, indices, values, meta = read_amplitude_csv(path)
    unknown = next((key for key in meta if key not in _COMPRESSED_KEYS), None)
    if unknown is not None:
        raise ValueError(f"{path}: unknown compressed CSV key '# {unknown}='")
    if "kind" not in meta:
        raise ValueError(f"{path}: compressed CSV missing '# kind=' metadata")
    coeffs = np.zeros(2**n, dtype=complex)
    coeffs[indices] = values
    levels = _parse_cell(int, meta["levels"], path, "levels") if meta.get("levels") else None
    mode, value = meta.get("mode"), meta.get("value")
    if mode:
        if not value:
            raise ValueError(f"{path}: '# mode={mode}' needs a '# value=' line")
        value = _parse_cell(float, value, path, "value")
    elif value:
        raise ValueError(f"{path}: '# value={value}' needs a '# mode=' line")
    try:
        descriptor = TransformDescriptor(meta["kind"], levels)
        policy = ThresholdPolicy(mode, value) if mode else None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return CompressedVector(coeffs, descriptor, threshold_applied=policy)
