"""End-to-end hybrid state-preparation experiments.

The hybrid pipeline prepares a signal on a quantum register in two phases.
Phase one is classical: transform the signal into a basis where it is
sparse (DFT or packet Haar), discard coefficients below a threshold, and
renormalize.  Phase two is quantum: load the d surviving coefficients with
the sparse loader, then run the inverse-transform circuit so the register
holds the reconstructed signal.  Because the decompression circuit
implements the inverse transform exactly, the simulated state must match
the classical reconstruction to machine precision; the only approximation
error is the thresholding itself.

:func:`hybrid_prepare` runs one experiment and returns the circuit plus an
:class:`ExperimentRecord` of costs and trace distances.  The benchmark
drivers reproduce the standard comparison tables: :func:`run_table1`
(hybrid vs. exact amplitude encoding across four signal families) and
:func:`run_table2` (Fourier series loader costs), while :func:`sweep_ppg`
maps compression quality over a (levels, threshold) grid of waveform
recordings, analysing each recording once, deepened level by level.
Classical trace distances are priced from the transform by Parseval, with
no inverse transform.  Records serialize to CSV, one column per dataclass
field, with fixed formatting so reruns are byte-identical.

The input signal is always normalized to unit norm before the transform,
so absolute thresholds refer to coefficients of a unit vector and are
invariant under input rescaling.
"""

from __future__ import annotations

import csv
import inspect
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, report
from .loaders import SparseState, dense_load, sqsp
from .qsynth import fsl_circuit, fsl_coefficients, inverse_packet_qhwt, iqft
from .signals import (
    Signal,
    gen_gaussian,
    gen_gaussian_mixture,
    gen_periodic,
    gen_piecewise,
    gen_sinc,
    ingest_waveform_csv,
)
from .statesim import simulate, simulate_support, trace_distance
from .transforms import (
    ABSOLUTE,
    DFT,
    FRACTION_OF_MAX,
    PACKET_HAAR,
    CompressedVector,
    ThresholdPolicy,
    TransformDescriptor,
    _check_levels,
    analyse,
    compression_ratio,
    packet_analysis,
    packet_dhwt,
    threshold_normalize,
)

__all__ = [
    "PipelineError",
    "ToleranceExceededError",
    "ExperimentConfig",
    "ExperimentRecord",
    "FslRecord",
    "SweepCell",
    "hybrid_prepare",
    "run_table1",
    "run_table2",
    "sweep_ppg",
    "build_signal",
    "compression_point",
    "price_thresholds",
    "write_records_csv",
    "write_sweep_csv",
    "DEFAULT_PPG_DIR",
    "DEFAULT_PPG_RECORDING",
    "TABLE1_REFERENCE_SQSP_CX",
    "CR_VALID_LOW",
    "CR_VALID_HIGH",
]

DEFAULT_PPG_DIR = Path("data") / "ppg"
DEFAULT_PPG_RECORDING = DEFAULT_PPG_DIR / "recording01.csv"

# published sparse-loader CNOT counts (Farias et al.) printed next to ours
# for comparison; never asserted against
TABLE1_REFERENCE_SQSP_CX = {
    "sinc": 494,
    "gaussian": 210,
    "mixture": 416,
    "ppg": 17_000,
}

# n^2 <= d <= n^3 at n = 16 samples, expressed as a compression-ratio band
CR_VALID_LOW = 15.0
CR_VALID_HIGH = 235.0

_AGREEMENT_TOL = 1e-9


class PipelineError(Exception):
    """Configuration or orchestration failure."""


class ToleranceExceededError(PipelineError):
    """Simulated state missed the requested tolerance; carries the TD."""

    def __init__(self, achieved_td: float, epsilon: float):
        super().__init__(
            f"trace distance {achieved_td:.6f} exceeds tolerance {epsilon}"
        )
        self.achieved_td = achieved_td
        self.epsilon = epsilon


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_GENERATORS = {
    "periodic": gen_periodic,
    "piecewise": gen_piecewise,
    "sinc": gen_sinc,
    "gaussian": gen_gaussian,
    "mixture": gen_gaussian_mixture,
}

# each generator's keyword parameters and defaults: the signal.* keys it
# takes, and the type each value must have
_SIGNAL_DEFAULTS = {
    kind: {
        p.name: p.default
        for p in inspect.signature(generator).parameters.values()
        if p.default is not p.empty
    }
    for kind, generator in _GENERATORS.items()
}


@dataclass
class ExperimentConfig:
    """One hybrid-preparation experiment.

    ``signal`` names a generator (periodic, piecewise, sinc, gaussian,
    mixture) or the literal ``"csv"`` with ``csv_path`` set;
    ``signal_params`` is forwarded to the generator, which must take each
    one with a value of its default's type.  ``epsilon`` is the admissible
    trace distance between the prepared state and the input.
    """

    signal: str
    transform: str = PACKET_HAAR
    levels: int | None = None
    threshold: ThresholdPolicy = ThresholdPolicy(FRACTION_OF_MAX, 0.0)
    epsilon: float = 1.0
    label: str = ""
    signal_params: dict = field(default_factory=dict)
    csv_path: str | None = None
    output_dir: str | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise PipelineError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        try:
            self.descriptor
        except ValueError as err:
            raise PipelineError(str(err)) from None
        if self.signal == "csv" and not self.csv_path:
            raise PipelineError("csv signal needs csv_path")
        _check_signal_params(self.signal, self.signal_params)
        if not self.label:
            self.label = self.signal

    @property
    def descriptor(self) -> TransformDescriptor:
        """``transform`` and ``levels``; building it validates them."""
        return TransformDescriptor(self.transform, self.levels)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Parse a flat ``key = value`` config file (see README for keys)."""
        values = _parse_flat_config(path)
        kwargs: dict = {"signal_params": {}}
        for key, value in values.items():
            if key == "signal.kind":
                kwargs["signal"] = value
            elif key == "signal.csv":
                kwargs["signal"] = "csv"
                kwargs["csv_path"] = str(value)
            elif key.startswith("signal."):
                kwargs["signal_params"][key.split(".", 1)[1]] = value
            elif key == "transform.kind":
                kwargs["transform"] = value
            elif key == "transform.levels":
                kwargs["levels"] = _typed(key, value, int)
            elif key == "threshold.mode":
                kwargs.setdefault("_tau", {})["mode"] = value
            elif key == "threshold.value":
                kwargs.setdefault("_tau", {})["value"] = _typed(key, value, float)
            elif key == "epsilon":
                kwargs["epsilon"] = _typed(key, value, float)
            elif key == "output.dir":
                kwargs["output_dir"] = str(value)
            elif key == "label":
                kwargs["label"] = str(value)
            else:
                raise PipelineError(f"unknown config key {key!r}")
        tau = kwargs.pop("_tau", None)
        if tau is not None:
            if set(tau) != {"mode", "value"}:
                raise PipelineError("threshold needs both threshold.mode and threshold.value")
            kwargs["threshold"] = ThresholdPolicy(tau["mode"], tau["value"])
        if "signal" not in kwargs:
            raise PipelineError("config must set signal.kind or signal.csv")
        return cls(**kwargs)

    def build_signal(self) -> Signal:
        return build_signal(self.signal, self.signal_params, csv_path=self.csv_path)


def build_signal(kind: str, params: dict | None = None, csv_path=None) -> Signal:
    """Instantiate a benchmark signal by generator name, or ingest a CSV
    (``kind="csv"``).  ``params`` is forwarded to the generator as keywords
    after the checks of :func:`_check_signal_params`, whose failures raise
    :class:`PipelineError`."""
    params = dict(params or {})
    _check_signal_params(kind, params)
    if kind == "csv":
        if not csv_path:
            raise PipelineError("csv signal needs a path")
        return ingest_waveform_csv(csv_path)
    return _GENERATORS[kind](**params)


def _check_signal_params(kind, params: dict) -> None:
    """Reject a ``signal.*`` parameter that the generator behind ``kind``
    does not take, or whose value :func:`_typed` rejects for its default's
    type."""
    defaults = {} if kind == "csv" else _SIGNAL_DEFAULTS.get(kind)
    if defaults is None:
        raise PipelineError(f"unknown signal generator {kind!r}")
    for name, value in params.items():
        if name not in defaults:
            raise PipelineError(f"{kind} signal takes no parameter signal.{name}")
        _typed(f"signal.{name}", value, type(defaults[name]))


_NUMBER_TYPES = {float: numbers.Real, int: numbers.Integral}


def _typed(key: str, value, kind: type):
    """``value`` as a ``kind``, the one typing rule of config values.

    An int may stand for a float, but a bool or a string is no number
    (``signal.K = true`` is not one component, nor ``epsilon = "0.5"`` a
    tolerance) and a float is no int, so nothing is truncated.  A
    float-typed value goes through ``float()`` and must be finite, so an int
    too large for one, a NaN or an infinity is rejected here rather than
    where it is used.
    """
    expected = _NUMBER_TYPES.get(kind, kind)
    if not isinstance(value, expected) or (isinstance(value, bool) and kind is not bool):
        raise PipelineError(f"{key} must be {kind.__name__}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise PipelineError(f"{key} is too large for a float: {value!r}") from None
        if not math.isfinite(value):
            raise PipelineError(f"{key} must be finite, got {value!r}")
    return value


def _parse_flat_config(path) -> dict:
    """Flat TOML-style key/value lines; #-comments outside quotes; no
    sections; each key at most once.  A file that does not decode is named
    by path; a line without ``=``, a repeated key or a quote left open by
    ``path:line``."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise PipelineError(f"{path}: {err}") from None
    values: dict = {}
    # read_text leaves \n the one line break; U+2028, \x0c and the like are text
    for lineno, raw in enumerate(text.split("\n"), start=1):
        where = f"{path}:{lineno}"
        line = _strip_comment(raw, where).strip()
        if not line:
            continue
        if "=" not in line:
            raise PipelineError(f"{where}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise PipelineError(f"{where}: duplicate key {key!r}")
        values[key] = _parse_scalar(value.strip())
    return values


def _strip_comment(line: str, where: str) -> str:
    quote = None
    for i, ch in enumerate(line):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#":
            return line[:i]
    if quote is not None:
        raise PipelineError(f"{where}: unterminated {quote} quote")
    return line


def _parse_scalar(text: str):
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRecord:
    """Metrics of one hybrid preparation, or a skip notice (``warning``).

    The fields, in order, are the CSV columns, as for :class:`FslRecord`.
    """

    label: str
    n: int = 0
    levels: int | None = None
    tau_mode: str = ""
    tau_value: float = 0.0
    d: int = 0
    cr: float = 0.0
    sqsp_cnot: int = 0
    sqsp_depth: int = 0
    decomp_cnot: int = 0
    decomp_depth: int = 0
    total_cnot: int = 0
    total_depth: int = 0
    eae_cnot: int | None = None
    eae_depth: int | None = None
    cx_reduction: float | None = None
    depth_reduction: float | None = None
    reference_sqsp_cnot: int | None = None
    simulated_td: float = 0.0
    classical_td: float = 0.0
    warning: str | None = None

    def __post_init__(self):
        if self.warning is not None:
            return
        if abs(self.cr - 2**self.n / self.d) > 1e-9:
            raise ValueError(
                f"{self.label}: CR {self.cr} inconsistent with 2^{self.n}/{self.d}"
            )
        if abs(self.simulated_td - self.classical_td) >= _AGREEMENT_TOL:
            raise ValueError(
                f"{self.label}: simulated TD {self.simulated_td} disagrees with "
                f"classical TD {self.classical_td}"
            )


@dataclass
class FslRecord:
    """Fourier-series-loader cost and accuracy for one signal."""

    label: str
    n: int = 0
    m: int = 0
    cnot: int = 0
    depth: int = 0
    td: float = 0.0
    warning: str | None = None


@dataclass(frozen=True)
class SweepCell:
    """Aggregate over all recordings at one (levels, tau) grid point."""

    levels: int
    tau: float
    mean_td: float
    mean_cr: float
    std_cr: float
    in_valid_regime: bool


# ---------------------------------------------------------------------------
# Core pipeline
# ---------------------------------------------------------------------------


def _unit_samples(signal: Signal) -> np.ndarray:
    x = np.asarray(signal.samples, dtype=complex)
    return x / np.linalg.norm(x)


def _decompression_circuit(n: int, cfg: ExperimentConfig) -> Circuit:
    if cfg.transform == DFT:
        return iqft(n)
    return inverse_packet_qhwt(n, cfg.levels)


def hybrid_prepare(cfg: ExperimentConfig) -> tuple[Circuit, ExperimentRecord]:
    """Run one experiment: compress classically, load and decompress on the
    register, simulate, and price everything.

    The classical TD is priced from the transform by Parseval (see
    :func:`price_thresholds`) right after the analysis, so the transform
    is released before the loader and the simulator allocate.  The loader
    is simulated on its support (:func:`hqsp.statesim.simulate_support`),
    which is scattered into one dense register; only the decompression
    runs through the dense :func:`hqsp.statesim.simulate`.  The simulated
    TD is the residual-form trace distance of that full register to the
    input, and the record checks that the two agree.

    Raises :class:`ToleranceExceededError` when the prepared state is
    farther than ``cfg.epsilon`` from the input in trace distance, and
    :class:`hqsp.transforms.EmptySupportError` when thresholding empties
    the support.
    """
    signal = cfg.build_signal()
    x = _unit_samples(signal)
    n = signal.n

    X = analyse(x, cfg.descriptor)
    d, cr, classical_td = next(price_thresholds(X, (cfg.threshold,)))
    compressed = threshold_normalize(X, cfg.threshold)
    del X  # released before the loader and the simulator allocate
    load = sqsp(SparseState.from_compressed(compressed))
    decompression = _decompression_circuit(n, cfg)
    circuit = load + decompression

    # the loader acts on a d-sparse state: simulate it on its support and
    # scatter that into the one dense register the decompression runs on
    psi = simulate(decompression, simulate_support(load))
    simulated_td = trace_distance(psi, x)
    if simulated_td >= cfg.epsilon:
        raise ToleranceExceededError(simulated_td, cfg.epsilon)

    load_rep, decomp_rep, rep = report(load), report(decompression), report(circuit)
    eae_rep = report(dense_load(x))
    record = ExperimentRecord(
        label=cfg.label,
        n=n,
        levels=cfg.levels,
        tau_mode=cfg.threshold.mode,
        tau_value=cfg.threshold.value,
        d=d,
        cr=cr,
        sqsp_cnot=load_rep.cnot_count,
        sqsp_depth=load_rep.depth,
        decomp_cnot=decomp_rep.cnot_count,
        decomp_depth=decomp_rep.depth,
        total_cnot=rep.cnot_count,
        total_depth=rep.depth,
        eae_cnot=eae_rep.cnot_count,
        eae_depth=eae_rep.depth,
        cx_reduction=eae_rep.cnot_count / rep.cnot_count,
        depth_reduction=eae_rep.depth / rep.depth,
        simulated_td=simulated_td,
        classical_td=classical_td,
    )
    return circuit, record


# ---------------------------------------------------------------------------
# Benchmark tables
# ---------------------------------------------------------------------------


def table1_configs(
    ppg_csv=DEFAULT_PPG_RECORDING, seed: int = 0
) -> list[ExperimentConfig]:
    """The four benchmark compressions: 2**15-sample sinc, Gaussian and
    Gaussian mixture under fraction-of-max thresholds, and a 2**16-sample
    waveform recording under an absolute threshold."""
    return [
        ExperimentConfig(
            "sinc", PACKET_HAAR, 10, ThresholdPolicy(FRACTION_OF_MAX, 0.009)
        ),
        ExperimentConfig(
            "gaussian", PACKET_HAAR, 13, ThresholdPolicy(FRACTION_OF_MAX, 0.006)
        ),
        ExperimentConfig(
            "mixture",
            PACKET_HAAR,
            12,
            ThresholdPolicy(FRACTION_OF_MAX, 0.005),
            signal_params={"seed": seed},
        ),
        ExperimentConfig(
            "csv",
            PACKET_HAAR,
            13,
            ThresholdPolicy(ABSOLUTE, 0.0041),
            label="ppg",
            csv_path=str(ppg_csv),
        ),
    ]


def run_table1(
    ppg_csv=DEFAULT_PPG_RECORDING, skip_ppg: bool = False, seed: int = 0
) -> list[ExperimentRecord]:
    """Hybrid cost table: one record per benchmark signal, with measured
    EAE baselines, reduction factors, and the published reference loader
    counts attached.  A missing recording yields a warning record instead
    of a row; ``skip_ppg`` drops that row entirely."""
    records = []
    for cfg in table1_configs(ppg_csv=ppg_csv, seed=seed):
        if cfg.label == "ppg":
            if skip_ppg:
                continue
            if not Path(cfg.csv_path).exists():
                records.append(
                    ExperimentRecord(
                        label="ppg",
                        warning=f"recording {cfg.csv_path} not found; row skipped",
                    )
                )
                continue
        _, record = hybrid_prepare(cfg)
        record.reference_sqsp_cnot = TABLE1_REFERENCE_SQSP_CX.get(record.label)
        records.append(record)
    return records


def _table2_rows(seed: int) -> tuple:
    """(label, n, m, signal params) rows priced by :func:`run_table2`;
    signals as in table 1 plus the exactly sparse pair."""
    return (
        ("periodic", 8, 7, {}),
        ("piecewise", 10, 7, {}),
        ("sinc", 15, 6, {}),
        ("gaussian", 15, 5, {}),
        ("mixture", 15, 6, {"seed": seed}),
        ("ppg", 16, 12, {}),
    )


def run_table2(
    ppg_csv=DEFAULT_PPG_RECORDING, skip_ppg: bool = False, seed: int = 0
) -> list[FslRecord]:
    """Fourier-series-loader table: truncate each benchmark signal to its
    2**(m+1) lowest-frequency modes, synthesize the loader, and report CX
    count, depth, and simulated trace distance to the original."""
    records = []
    for label, n, m, params in _table2_rows(seed):
        if label == "ppg":
            if skip_ppg:
                continue
            if not Path(ppg_csv).exists():
                records.append(
                    FslRecord(
                        label="ppg",
                        warning=f"recording {ppg_csv} not found; row skipped",
                    )
                )
                continue
            signal = build_signal("csv", csv_path=ppg_csv)
        else:
            signal = build_signal(label, {"N": 2**n, **params})
        if signal.n != n:
            records.append(
                FslRecord(
                    label=label,
                    warning=f"expected {n} qubits, recording pads to {signal.n}",
                )
            )
            continue
        x = _unit_samples(signal)
        circuit = fsl_circuit(fsl_coefficients(Signal(x), m), n, m)
        rep = report(circuit)
        td = trace_distance(simulate(circuit), x)
        records.append(FslRecord(label, n, m, rep.cnot_count, rep.depth, td))
    return records


# ---------------------------------------------------------------------------
# Threshold/level sweep over a recording directory
# ---------------------------------------------------------------------------

DEFAULT_SWEEP_LEVELS = tuple(range(8, 15))
DEFAULT_SWEEP_TAUS = (0.0, 0.001, 0.002, 0.0041, 0.008, 0.02)


def price_thresholds(X: CompressedVector, policies) -> Iterator[tuple[int, float, float]]:
    """(d, CR, TD) of thresholding ``X`` by each policy in turn, from one
    pass over its magnitudes; no thresholded vector is built.

    Each policy drops the coefficients ``ThresholdPolicy.dropped`` names,
    the ones :func:`hqsp.transforms.threshold_normalize` zeroes, and raises
    ``EmptySupportError`` as it does.  By Parseval (both transforms are
    orthonormal), the TD of the reconstruction is the root of the dropped
    share of the energy.
    """
    mag = np.abs(X.coefficients)
    energy = mag**2
    total = energy.sum()
    for policy in policies:
        dropped = policy.dropped(mag)
        d = len(mag) - int(np.count_nonzero(dropped))
        td = math.sqrt(min(1.0, float(energy[dropped].sum() / total)))
        yield d, compression_ratio(len(mag), d), td


def compression_point(
    signal: Signal, levels: int, policy: ThresholdPolicy
) -> tuple[int, float, float]:
    """(d, CR, TD) of one classical compression, without any synthesis."""
    return next(price_thresholds(packet_dhwt(_unit_samples(signal), levels), (policy,)))


def sweep_ppg(
    levels=DEFAULT_SWEEP_LEVELS,
    taus=DEFAULT_SWEEP_TAUS,
    dataset_dir=DEFAULT_PPG_DIR,
) -> list[SweepCell]:
    """Mean TD and CR statistics per (levels, tau) cell, tau an absolute
    threshold, across every recording CSV in ``dataset_dir``, flagging
    cells whose mean CR falls in the useful band [15, 235].

    One recording is held at a time and analysed once, up to the deepest
    level the grid names (:func:`_price_recording`).  Cells then come out
    in the caller's grid order (levels, then taus by position), each the
    mean and standard deviation of :func:`compression_point` over the
    recordings in file-name order, and a bad tau or a level outside
    ``[1, n]`` raises the error that order meets first, as
    :func:`compression_point` raises it.
    """
    paths = sorted(Path(dataset_dir).glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no recording CSVs under {dataset_dir}")
    levels, taus = tuple(levels), tuple(taus)
    recordings = [_price_recording(path, levels, taus) for path in paths]
    cells = []
    for level in levels:
        for j, tau in enumerate(taus):  # by position: 0.0 and -0.0 are two cells
            ThresholdPolicy(ABSOLUTE, tau)  # compression_point's argument: built first
            points = []
            for n, rows in recordings:
                _check_levels(n, level)
                point = rows[level][j]
                if isinstance(point, ValueError):
                    raise point
                points.append(point)
            crs = np.array([cr for _, cr, _ in points])
            mean_td, mean_cr = float(np.mean([td for _, _, td in points])), float(crs.mean())
            valid = CR_VALID_LOW <= mean_cr <= CR_VALID_HIGH
            cells.append(SweepCell(level, tau, mean_td, mean_cr, float(crs.std()), valid))
    return cells


def _price_recording(path, levels: tuple, taus: tuple) -> tuple[int, dict]:
    """The width n of one recording, and its row of (d, CR, TD) per tau at
    each level in ``levels`` up to n, by one :func:`price_thresholds` call
    each.  A ``ValueError`` that stops a row ends it, without its traceback
    so that it pins no transform; the samples and the analysis go when
    this returns.  The recording is real, so it is analysed in real
    arithmetic, on the real part of its unit samples: the magnitudes, and
    so the prices, are those of the complex analysis bit for bit."""
    x = _unit_samples(ingest_waveform_csv(path)).real
    rows = {}
    for level, X in zip(range(1, max(levels, default=0) + 1), packet_analysis(x)):
        if level in levels:
            rows[level] = row = []
            try:  # each policy is built as it is priced, as compression_point does
                row.extend(price_thresholds(X, (ThresholdPolicy(ABSOLUTE, t) for t in taus)))
            except ValueError as err:
                row.append(err.with_traceback(None))
    return int(math.log2(len(x))), rows


# ---------------------------------------------------------------------------
# Serialization (fixed formatting: counts exact, CR one decimal, TD four)
# ---------------------------------------------------------------------------


_COLUMN_FORMATS = {
    "tau_value": "g",
    "cr": ".1f",
    "cx_reduction": ".2f",
    "depth_reduction": ".2f",
    "simulated_td": ".4f",
    "classical_td": ".4f",
    "td": ".4f",
}


def _cell(name: str, value) -> str:
    if value is None:
        return ""
    fmt = _COLUMN_FORMATS.get(name)
    if fmt is None:
        return str(value)
    return format(value, fmt)


def _table(records) -> tuple[tuple[str, ...], list[list[str]]]:
    """Header and formatted cells of records of one dataclass type: a
    column per field, in field order.  A warning row fills only ``label``
    and ``warning``."""
    kinds = {type(r) for r in records}
    if len(kinds) > 1:
        names = sorted(kind.__name__ for kind in kinds)
        raise TypeError(f"cannot serialize a mix of {', '.join(names)}")
    if not kinds:
        return (), []
    kind = kinds.pop()
    if not is_dataclass(kind):
        raise TypeError(f"cannot serialize {kind.__name__}")
    columns = tuple(f.name for f in fields(kind))
    rows = []
    for r in records:
        shown = columns if getattr(r, "warning", None) is None else ("label", "warning")
        rows.append([_cell(c, getattr(r, c)) if c in shown else "" for c in columns])
    return columns, rows


def write_records_csv(records, path) -> None:
    columns, rows = _table(list(records))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_sweep_csv(cells, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("L", "tau", "mean_td", "mean_cr", "std_cr", "in_valid_regime"))
        for c in cells:
            writer.writerow(
                (
                    c.levels,
                    format(c.tau, "g"),
                    format(c.mean_td, ".4f"),
                    format(c.mean_cr, ".1f"),
                    format(c.std_cr, ".1f"),
                    "true" if c.in_valid_regime else "false",
                )
            )


def format_table(records) -> str:
    """Fixed-width text rendering of a record list for terminal output."""
    columns, cells = _table(list(records))
    widths = [
        max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
        for i, name in enumerate(columns)
    ]
    lines = ["  ".join(name.ljust(w) for name, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
