"""Benchmark signal generators and waveform ingestion.

Every public constructor returns a unit-norm :class:`Signal` whose length is
an exact power of two.  Generators are pure functions of their keyword
arguments; the mixture generator draws its components and its noise from a
seeded NumPy ``default_rng`` (PCG64), so identical seeds give identical
signals.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Signal",
    "InvalidLengthError",
    "DegenerateSignalError",
    "NonNumericCellError",
    "EmptyColumnError",
    "gen_periodic",
    "gen_piecewise",
    "gen_sinc",
    "gen_gaussian",
    "gen_gaussian_mixture",
    "ingest_waveform_csv",
    "save_signal_csv",
]

# sinusoid amplitudes of the four-coefficient benchmark spectrum
PERIODIC_A = 0.41099
PERIODIC_B = 0.57539

DEFAULT_BLOCK_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)

# standard deviation of the mixture's additive white noise
MIXTURE_NOISE_STD = 0.001


class InvalidLengthError(ValueError):
    """Signal length is not an admissible power of two."""


class DegenerateSignalError(ValueError):
    """Signal has no finite, nonzero energy (cannot be normalized)."""


class NonNumericCellError(ValueError):
    """CSV cell could not be parsed as a number."""


class EmptyColumnError(ValueError):
    """CSV file contains no data rows."""


@dataclass(frozen=True)
class Signal:
    """Unit-norm amplitude vector of power-of-two length (n = log2 length)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.ndim != 1 or len(samples) < 2:
            raise InvalidLengthError("signal must be a vector of length >= 2")
        n = int(math.log2(len(samples)))
        if 2**n != len(samples):
            raise InvalidLengthError(
                f"signal length {len(samples)} is not a power of two"
            )
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return int(math.log2(len(self.samples)))


def _normalized(values: np.ndarray, label: str) -> Signal:
    """``values`` scaled to unit norm; ``label`` names the signal in errors."""
    with np.errstate(over="ignore"):  # reported below, not warned about
        norm = np.linalg.norm(values)
    if norm == 0:
        raise DegenerateSignalError(f"{label}: zero-energy signal")
    if not np.isfinite(norm):
        fault = "non-finite samples" if np.isnan(norm) else "signal energy overflows"
        raise DegenerateSignalError(f"{label}: {fault}")
    return Signal(values / norm)


def _check_finite(label: str, **params: float) -> None:
    """Reject a non-finite float parameter before NumPy computes with it."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{label}: {name} must be finite, got {value}")


def _check_pow2(N: int, minimum: int = 2) -> int:
    if N < minimum or (N & (N - 1)) != 0:
        raise InvalidLengthError(f"N must be a power of two >= {minimum}, got {N}")
    return N


def gen_periodic(N: int = 256) -> Signal:
    """Two-tone sinusoid whose DFT support is exactly {3, 20, N-20, N-3}.

    x_j = (1/sqrt(N)) * (-2A sin(2 pi 3 j / N) + 2B cos(2 pi 20 j / N)),
    renormalized because the published A, B are rounded (norm 0.99996).
    """
    _check_pow2(N, minimum=64)
    j = np.arange(N)
    x = (
        -2.0 * PERIODIC_A * np.sin(2.0 * np.pi * 3.0 * j / N)
        + 2.0 * PERIODIC_B * np.cos(2.0 * np.pi * 20.0 * j / N)
    ) / math.sqrt(N)
    return _normalized(x, "periodic")


def gen_piecewise(N: int = 1024, block_values=DEFAULT_BLOCK_VALUES) -> Signal:
    """Constant on 8 equal blocks; exactly 8-sparse under packet Haar at
    L = n - 3."""
    _check_pow2(N, minimum=8)
    values = np.asarray(block_values, dtype=float)
    if values.shape != (8,):
        raise ValueError("block_values must hold exactly 8 reals")
    if not np.any(values):
        raise DegenerateSignalError("all block values are zero")
    x = np.repeat(values, N // 8)
    return _normalized(x, "piecewise")


def gen_sinc(N: int = 32768, t_min: float = -10.0, t_max: float = 10.0) -> Signal:
    """Normalized sinc sin(pi t)/(pi t) on a uniform inclusive grid.

    The default range is calibrated (scripts/calibrate_sinc_range.py) so the
    10-level packet Haar transform at tau = 0.9% of max retains ~110
    coefficients at N = 2**15.
    """
    if N < 2:
        raise InvalidLengthError("sinc needs at least 2 samples")
    _check_pow2(N)
    _check_finite("sinc", t_min=t_min, t_max=t_max)
    if not t_min < 0.0 < t_max:
        raise ValueError("sinc grid must straddle t = 0")
    t = np.linspace(t_min, t_max, N)
    return _normalized(np.sinc(t), "sinc")


def gen_gaussian(
    N: int = 32768,
    mu: float = 0.0,
    sigma: float = 0.8,
    x_min: float = -5.0,
    x_max: float = 5.0,
) -> Signal:
    """Discretized Gaussian exp(-(x-mu)^2 / (2 sigma^2)) on an inclusive grid."""
    _check_pow2(N)
    _check_finite("gaussian", mu=mu, x_min=x_min, x_max=x_max)
    if not 0 < sigma < math.inf:  # NaN included
        raise ValueError(f"gaussian: sigma must be positive and finite, got {sigma}")
    x = np.linspace(x_min, x_max, N)
    return _normalized(np.exp(-((x - mu) ** 2) / (2.0 * sigma**2)), "gaussian")


def gen_gaussian_mixture(
    N: int = 32768,
    seed: int = 0,
    K: int = 12,
    x_min: float = -5.0,
    x_max: float = 5.0,
) -> Signal:
    """Sum of K Gaussians plus white noise of standard deviation
    :data:`MIXTURE_NOISE_STD`, normalized.

    ``default_rng(seed)`` draws the components from the benchmark ranges:
    the K centers in [-4.5, 4.5], then the K widths in [0.12, 0.60], then
    the K amplitudes in [0.30, 1.00].  The noise comes from a fresh
    ``default_rng(seed)``.
    """
    _check_pow2(N)
    _check_finite("mixture", x_min=x_min, x_max=x_max)
    if K < 1:
        raise DegenerateSignalError("mixture needs at least one component")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.5, 4.5, K)
    widths = rng.uniform(0.12, 0.60, K)
    amplitudes = rng.uniform(0.30, 1.00, K)
    x = np.linspace(x_min, x_max, N)
    f = np.zeros(N)
    for a, mu, sigma in zip(amplitudes, centers, widths):
        f += a * np.exp(-((x - mu) ** 2) / (2.0 * sigma**2))
    f = f + np.random.default_rng(seed).normal(0.0, MIXTURE_NOISE_STD, N)
    return _normalized(f, "mixture")


def _next_pow2(m: int) -> int:
    return 1 << max(1, (m - 1).bit_length())


def ingest_waveform_csv(path) -> Signal:
    """Read the first CSV column, zero-pad it to the next power of two,
    and normalize.  A single non-numeric header line is skipped.  A cell
    that is not a finite number, a file the ``csv`` module cannot read and
    one whose bytes do not decode raise :class:`NonNumericCellError` named
    by path.  The column is read in one C parse, retried once with the
    whitespace-only lines emptied; a file that parse still rejects is read
    again one ``float()`` per row, which names the first bad row."""
    try:
        with open(path, newline="") as fh:
            try:
                values = _parse_column(fh, path)
            except (ValueError, csv.Error):
                values = None
            if values is None or not np.isfinite(values).all():
                fh.seek(0)
                values = _parse_rows(fh, path)
    except (csv.Error, UnicodeDecodeError) as err:
        raise NonNumericCellError(f"{path}: {err}") from err
    padded = np.zeros(_next_pow2(len(values)))
    padded[: len(values)] = values
    return _normalized(padded, f"waveform:{path}")


def _parse_column(fh, path):
    """The first column of the CSV file ``path``, open as ``fh``, or None if
    it has no data row.  ``csv`` reads the first non-blank row, so the
    header is found as :func:`_parse_rows` finds it, and ``np.loadtxt``
    reads the rest from ``path`` in blocks, past the lines ``fh`` consumed.
    ``fh`` ends lines as ``loadtxt``'s universal newlines do, at ``\n``,
    ``\r\n`` and ``\r``, so both count the lines alike."""
    reader = csv.reader(fh)
    first = next((row[0] for row in reader if "".join(row).strip()), None)
    if first is None:
        return None
    head = [float(first)] if _is_number(first) else []
    consumed = reader.line_num
    for line in fh:  # csv skips blank lines too
        if line.strip():
            break
        consumed += 1
    else:  # loadtxt would warn that it read no rows
        return np.array(head) if head else None
    options = dict(delimiter=",", usecols=0, comments=None, quotechar='"',
                   skiprows=consumed, ndmin=1)
    try:
        tail = np.loadtxt(path, encoding=fh.encoding, **options)
    except ValueError:
        # loadtxt rejects a line of whitespace, which the row parse skips as
        # blank: parse once more with such lines emptied, which it skips too
        with open(path, encoding=fh.encoding) as lines:
            tail = np.loadtxt((line if line.strip() else "\n" for line in lines), **options)
    return np.concatenate((head, tail))


def _parse_rows(fh, path) -> list[float]:
    """The first column of an open CSV file, one ``float()`` per row."""
    cells = [row[0] for row in csv.reader(fh) if "".join(row).strip()]
    if cells and not _is_number(cells[0]):
        cells = cells[1:]
    if not cells:
        raise EmptyColumnError(f"{path}: no data rows")
    values = []
    for lineno, cell in enumerate(cells, start=1):
        cell = cell.strip()  # strip() drops \x1c, float() not
        value = float(cell) if _is_number(cell) else math.nan
        if not math.isfinite(value):
            raise NonNumericCellError(
                f"{path}: row {lineno}: non-numeric or non-finite cell {cell!r}"
            )
        values.append(value)
    return values


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_signal_csv(signal: Signal, path) -> None:
    """Write the real samples one per line, as :func:`ingest_waveform_csv`
    reads them back."""
    samples = np.asarray(signal.samples)
    if np.iscomplexobj(samples) and np.any(np.abs(samples.imag) > 1e-15):
        raise ValueError("signal CSV format stores real samples only")
    with open(path, "w") as fh:
        for v in samples.real:
            fh.write(f"{float(v)!r}\n")
