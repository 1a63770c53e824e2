"""Command-line front end.

Subcommands mirror the pipeline stages: ``gen-signal`` writes benchmark
waveforms, ``compress`` runs the classical phase and reports (d, CR, TD),
``synth`` builds any of the circuit families and prices it, ``simulate``
runs a circuit file through the state-vector simulator, ``prepare`` runs
one experiment from a config file, ``run`` reproduces the benchmark
tables, and ``sweep-ppg`` maps the compression grid over a recording
directory.  Circuit files are OpenQASM 2 throughout: ``synth`` writes one
to stdout or ``--out`` and ``simulate`` reads one, whatever the suffix.

Exit codes: 0 success, 1 tolerance exceeded, 2 usage or invalid values,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .circuit import export, parse_qasm, report
from .loaders import SparseState, eae_real, sqsp
from .pipeline import (
    DEFAULT_PPG_DIR,
    DEFAULT_PPG_RECORDING,
    DEFAULT_SWEEP_LEVELS,
    DEFAULT_SWEEP_TAUS,
    ExperimentConfig,
    PipelineError,
    ToleranceExceededError,
    _GENERATORS,
    _unit_samples,
    build_signal,
    format_table,
    hybrid_prepare,
    price_thresholds,
    run_table1,
    run_table2,
    sweep_ppg,
    write_records_csv,
    write_sweep_csv,
)
from .qsynth import fsl_circuit, fsl_coefficients, inverse_packet_qhwt, iqft
from .signals import ingest_waveform_csv, save_signal_csv
from .statesim import simulate
from .transforms import (
    ABSOLUTE,
    DFT,
    FRACTION_OF_MAX,
    PACKET_HAAR,
    ThresholdPolicy,
    TransformDescriptor,
    analyse,
    load_compressed_csv,
    save_compressed_csv,
    threshold_normalize,
    write_amplitude_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqsp",
        description="hybrid classical compression + sparse quantum loading",
    )
    # every subcommand writes to --out
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, help="output file")
    common = [out]
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-signal", parents=common, help="write a benchmark waveform")
    p.add_argument("--kind", required=True, choices=tuple(_GENERATORS))
    p.add_argument("--n-samples", type=int, help="length (power of two)")
    p.add_argument("--seed", type=int, help="generator seed (mixture)")
    p.set_defaults(func=cmd_gen_signal)

    p = sub.add_parser("compress", parents=common, help="transform + threshold a CSV")
    p.add_argument("input", type=Path, help="waveform CSV")
    p.add_argument("--transform", choices=(DFT, PACKET_HAAR), default=PACKET_HAAR)
    p.add_argument("--levels", type=int, help="packet Haar levels")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau-frac", type=float, help="threshold as fraction of max")
    group.add_argument("--tau-abs", type=float, help="absolute threshold")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("synth", parents=common, help="synthesize a circuit")
    p.add_argument(
        "--plan",
        required=True,
        choices=("sqsp", "eae", "fsl", "iqft", "qhwt-inv"),
    )
    p.add_argument("--n", type=int, help="register size (iqft, qhwt-inv)")
    p.add_argument("--levels", type=int, help="packet Haar levels (qhwt-inv)")
    p.add_argument("--m", type=int, help="FSL mode parameter")
    p.add_argument("--input", type=Path, help="compressed CSV (sqsp) or waveform CSV")
    p.add_argument("--report", action="store_true", help="print resource counts")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", parents=common, help="run a circuit file")
    p.add_argument("circuit", type=Path, help="OpenQASM 2 file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "prepare", parents=common, help="run one experiment from a config file"
    )
    p.add_argument("config", type=Path, help="flat key = value config")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("run", parents=common, help="reproduce a benchmark table")
    p.add_argument("table", choices=("table1", "table2"))
    p.add_argument("--seed", type=int, default=0, help="mixture seed")
    p.add_argument("--skip", choices=("ppg",), help="drop the recording row")
    p.add_argument(
        "--ppg-csv", type=Path, default=DEFAULT_PPG_RECORDING, help="recording path"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-ppg", parents=common, help="grid over (levels, tau)")
    p.add_argument("--dataset", type=Path, default=DEFAULT_PPG_DIR)
    p.add_argument("--levels", type=_parse_level_range, default=DEFAULT_SWEEP_LEVELS,
                   help="inclusive range lo:hi or comma list")
    p.add_argument("--taus", type=_parse_float_list, default=DEFAULT_SWEEP_TAUS,
                   help="comma-separated thresholds")
    p.set_defaults(func=cmd_sweep)

    return parser


def _parse_level_range(text: str) -> tuple[int, ...]:
    if ":" in text:
        lo, hi = (int(tok) for tok in text.split(":", 1))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty level range {text!r}")
        return tuple(range(lo, hi + 1))
    return _distinct(tuple(int(tok) for tok in text.split(",")), text)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return _distinct(tuple(float(tok) for tok in text.split(",")), text)


def _distinct(values: tuple, text: str) -> tuple:
    """``values`` if no value equals an earlier one (``0`` and ``-0`` are
    equal); a repeat would only compute a grid cell twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise argparse.ArgumentTypeError(f"repeated value {value!r} in {text!r}")
    return values


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_gen_signal(args) -> int:
    # only the flags given, so one the generator does not take is an error
    flags = {"N": args.n_samples, "seed": args.seed}
    signal = build_signal(
        args.kind, {name: value for name, value in flags.items() if value is not None}
    )
    if args.out is None:
        for v in np.asarray(signal.samples).real:
            print(f"{float(v)!r}")
    else:
        save_signal_csv(signal, args.out)
        print(f"wrote {len(signal.samples)} samples to {args.out}")
    return 0


def _threshold_from_args(args) -> ThresholdPolicy:
    if args.tau_abs is not None:
        return ThresholdPolicy(ABSOLUTE, args.tau_abs)
    return ThresholdPolicy(FRACTION_OF_MAX, args.tau_frac or 0.0)


def cmd_compress(args) -> int:
    x = _unit_samples(ingest_waveform_csv(args.input))
    try:
        descriptor = TransformDescriptor(args.transform, args.levels)
    except ValueError as err:
        # the descriptor's levels are the --levels flag here
        raise PipelineError(str(err).replace("levels", "--levels")) from None
    X, policy = analyse(x, descriptor), _threshold_from_args(args)
    d, cr, td = next(price_thresholds(X, (policy,)))
    print(f"d={d} CR={cr:.1f} TD={td:.4f}")
    if args.out is not None:
        save_compressed_csv(threshold_normalize(X, policy), args.out)
        print(f"wrote coefficients to {args.out}")
    return 0


def _read(path, reader):
    """``reader(path)``, each invalid value it meets named by ``path`` once:
    a reader's own parse errors already lead with ``path:`` (and the line)."""
    try:
        return reader(path)
    except (PipelineError, ValueError) as err:  # a UnicodeDecodeError is one
        text = str(err)
        raise PipelineError(text if text.startswith(f"{path}:") else f"{path}: {text}") from None


def _require(value, flag: str, plan: str):
    if value is None:
        raise PipelineError(f"--plan {plan} requires {flag}")
    return value


def cmd_synth(args) -> int:
    plan = args.plan
    if plan == "iqft":
        circuit = iqft(_require(args.n, "--n", plan))
    elif plan == "qhwt-inv":
        circuit = inverse_packet_qhwt(
            _require(args.n, "--n", plan), _require(args.levels, "--levels", plan)
        )
    elif plan == "sqsp":
        path = _require(args.input, "--input", plan)
        circuit = sqsp(_read(path, lambda p: SparseState.from_compressed(load_compressed_csv(p))))
    elif plan == "eae":
        signal = ingest_waveform_csv(_require(args.input, "--input", plan))
        circuit = eae_real(np.asarray(signal.samples, dtype=float))
    else:  # fsl
        signal = ingest_waveform_csv(_require(args.input, "--input", plan))
        m = _require(args.m, "--m", plan)
        circuit = fsl_circuit(fsl_coefficients(signal, m), signal.n, m)
    if args.report:
        print(report(circuit))
    if args.out is not None:
        text = export(circuit)
        args.out.write_text(text)
        # one line per written gate after the three header lines; native
        # multiplexers are written lowered, so this is not len(circuit)
        written = text.count("\n") - 3
        print(f"wrote {written} gates to {args.out}")
    elif not args.report:
        sys.stdout.write(export(circuit))
    return 0


def cmd_simulate(args) -> int:
    circuit = _read(args.circuit, lambda p: parse_qasm(p.read_text()))
    state = simulate(circuit)
    print(f"simulated {circuit.n_qubits} qubits, {len(circuit)} gates")
    if args.out is not None:
        write_amplitude_csv(args.out, circuit.n_qubits, np.arange(len(state)), state)
        print(f"wrote state to {args.out}")
    else:
        largest = np.argsort(np.abs(state))[::-1][:8]
        for idx in sorted(map(int, largest)):
            amp = state[idx]
            print(f"|{idx:0{circuit.n_qubits}b}> {amp.real:+.6f}{amp.imag:+.6f}j")
    return 0


def cmd_prepare(args) -> int:
    cfg = _read(args.config, ExperimentConfig.from_file)
    circuit, record = hybrid_prepare(cfg)
    print(format_table([record]))
    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_records_csv([record], out_dir / f"{cfg.label}.csv")
        (out_dir / f"{cfg.label}.qasm").write_text(export(circuit))
        print(f"wrote record and circuit to {out_dir}")
    if args.out is not None:
        write_records_csv([record], args.out)
    return 0


def cmd_run(args) -> int:
    runner = run_table1 if args.table == "table1" else run_table2
    records = runner(
        ppg_csv=args.ppg_csv, skip_ppg=args.skip == "ppg", seed=args.seed
    )
    print(format_table(records))
    if args.out is not None:
        write_records_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    cells = sweep_ppg(args.levels, args.taus, dataset_dir=args.dataset)
    out = args.out if args.out is not None else Path("sweep.csv")
    write_sweep_csv(cells, out)
    print(f"wrote {len(cells)} cells to {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToleranceExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (PipelineError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
