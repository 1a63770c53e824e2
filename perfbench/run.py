"""The hqsp benchmark: four ``hqsp`` command lines, timed end to end and split
by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --record-refs

Run it from the root of a checkout.  Workloads (NOTES.md says why each):

    sparse-merge   hqsp run table1 --skip ppg
    dense-cascade  hqsp prepare <ppg config, n=16, output.dir set>
    fsl            hqsp run table2
    sweep          hqsp sweep-ppg --dataset data/ppg

Every repetition runs ``hqsp.cli.main`` in a fresh interpreter
(``child.py``) and its output files are compared byte for byte with
``refs.json`` and checked against closed-form invariants.  ``--seed`` picks
the Gaussian-mixture seed of each repetition; all other inputs are the
fixed data in ``data/ppg``.  Repetitions continue while the next one is
expected to finish within ``--seconds``; metrics are medians over them.

``--trace 0`` prints the end-to-end metrics (wall_s, cpu_s, peak_rss_mib,
and setup_s, the importing thread's CPU time).  ``--trace 1`` runs
untraced/traced pairs and a per-op simulator microbenchmark and prints the
per-layer metrics.  The last line of stdout is the JSON result; the lines
before it are for people.

``--record-refs`` rewrites ``refs.json`` from the code in this checkout.
Do that only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(WORK, "out")
# The child sees only paths relative to the checkout root and an empty
# environment, so that its heap history, and with it glibc's allocation
# regime, depends neither on where the checkout lives nor on the caller's
# environment (see NOTES.md).
CHILD_BOOT = ("path = 'perfbench/child.py'; "
              "exec(compile(open(path).read(), path, 'exec'))")
CHILD_ENV: dict[str, str] = {}
REFS = os.path.join(HERE, "refs.json")
DENSE_CONFIG = os.path.join(WORK, "ppg.conf")

sys.path.insert(0, HERE)
import spans  # noqa: E402

# the Gaussian-mixture seeds the benchmark uses; refs.json holds outputs for each
MIX_SEEDS = tuple(range(16))
SETUP_SAMPLES = 11
# a run must end within 180 s; stop starting work past this
RUN_LIMIT_S = 170.0
OP_KINDS = ("H", "RY", "RZ", "CX", "SWAP", "CPHASE")

# (output files, whether --seed reaches the program)
WORKLOADS = {
    "sparse-merge": (("table1.csv",), True),
    "dense-cascade": (("ppg.csv", "ppg.qasm"), False),
    "fsl": (("table2.csv",), True),
    "sweep": (("sweep.csv",), False),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

# recording01 one level short of its table-1 row (n=16, d=1029, a 16.4k-gate
# subcube cascade against the row's 32.9k), so that a run fits three
# repetitions (NOTES.md)
_PPG_CONFIG = """\
signal.csv = data/ppg/recording01.csv
transform.kind = haar
transform.levels = 12
threshold.mode = absolute
threshold.value = 0.006
label = ppg
output.dir = {out}
"""


def _rel(path: str) -> str:
    return os.path.relpath(path, ROOT)


def _cli_args(workload: str, mix: int) -> list[str]:
    out = _rel(OUT)
    if workload == "sparse-merge":
        return ["run", "table1", "--skip", "ppg", "--seed", str(mix),
                "--out", f"{out}/table1.csv"]
    if workload == "dense-cascade":
        return ["prepare", _rel(DENSE_CONFIG)]
    if workload == "fsl":
        return ["run", "table2", "--seed", str(mix), "--out", f"{out}/table2.csv"]
    return ["sweep-ppg", "--dataset", "data/ppg", "--out", f"{out}/sweep.csv"]


# ---------------------------------------------------------------------------
# Correctness: byte-identical outputs plus invariants that need no reference
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fsl_cx(n: int, m: int) -> int:
    """Decomposed CX count of the Fourier Series Loader: dense complex load on
    m+1 qubits, the CX fan, and the inverse QFT with its SWAPs."""
    return 2 * (2 ** (m + 1) - 2) + (n - m - 1) + n * (n - 1) + 3 * (n // 2)


def _hybrid_invariants(row: dict) -> list[str]:
    n, levels = int(row["n"]), int(row["levels"])
    problems = []
    decomp = 3 * sum(n - level for level in range(1, levels + 1))
    if int(row["decomp_cnot"]) != decomp:
        problems.append(f"decomp_cnot {row['decomp_cnot']} != 3*sum(n-l) = {decomp}")
    if int(row["eae_cnot"]) != 2**n - 2:
        problems.append(f"eae_cnot {row['eae_cnot']} != 2^n-2 = {2**n - 2}")
    if row["simulated_td"] != row["classical_td"]:
        problems.append(
            f"simulated_td {row['simulated_td']} != classical_td {row['classical_td']}"
        )
    return problems


def _fsl_invariants(row: dict) -> list[str]:
    n, m = int(row["n"]), int(row["m"])
    if int(row["cnot"]) != fsl_cx(n, m):
        return [f"cnot {row['cnot']} != fsl_cx_count({n}, {m}) = {fsl_cx(n, m)}"]
    return []


_INVARIANTS = {
    "table1.csv": _hybrid_invariants,
    "ppg.csv": _hybrid_invariants,
    "table2.csv": _fsl_invariants,
}


def _ref_key(workload: str, mix: int) -> str:
    return str(mix) if WORKLOADS[workload][1] else "fixed"


def check_outputs(workload: str, mix: int, refs: dict | None) -> list[str]:
    """Problems with the files the last invocation wrote; empty when correct.
    ``refs`` None checks the invariants only."""
    problems = []
    expected = None
    if refs is not None:
        expected = refs.get(workload, {}).get(_ref_key(workload, mix))
        if expected is None:
            problems.append(f"no reference for {workload} seed {mix}")
    for name in WORKLOADS[workload][0]:
        path = os.path.join(OUT, name)
        if not os.path.isfile(path):
            problems.append(f"{name} was not written")
            continue
        if expected is not None and _sha256(path) != expected.get(name):
            problems.append(f"{name} differs from the reference")
        invariant = _INVARIANTS.get(name)
        for row in _rows(path) if invariant else ():
            if row.get("warning"):
                problems.append(f"{name} {row['label']}: {row['warning']}")
                continue
            problems += [f"{name} {row['label']}: {p}" for p in invariant(row)]
    return problems


# ---------------------------------------------------------------------------
# Fresh-interpreter invocations
# ---------------------------------------------------------------------------


class Clock:
    """Time left before the run must stop starting work."""

    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)


def _spawn(mode: str, args: list[str], clock: Clock, stdout_path: str | None = None) -> dict:
    """Run child.py once and return its measurements, or ``{"error": ...}``."""
    result_path = os.path.join(WORK, "child.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    timeout = clock.left()
    if timeout <= 0:
        return {"error": "out of time before starting"}
    cmd = [sys.executable, "-I", "-c", CHILD_BOOT, mode, _rel(result_path), *args]
    with open(stdout_path or os.devnull, "wb") as out:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdout=out,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} {' '.join(args)}: killed after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.isfile(result_path):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return {"error": f"{mode} {' '.join(args)}: exit {proc.returncode}: {' | '.join(tail)}"}
    with open(result_path) as fh:
        return json.load(fh)


def _invoke(workload: str, mix: int, traced: bool, refs: dict | None, clock: Clock) -> dict:
    """One checked invocation of the workload's command line."""
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    stdout_path = os.path.join(WORK, "stdout.txt")
    res = _spawn("trace" if traced else "run", _cli_args(workload, mix), clock, stdout_path)
    res["mix"] = mix
    if "error" in res:
        res["problems"] = [res["error"]]
        return res
    if res["rc"] != 0:
        res["problems"] = [f"hqsp exited {res['rc']}"]
        return res
    res["problems"] = check_outputs(workload, mix, refs)
    res["output_bytes"] = os.path.getsize(stdout_path) + sum(
        os.path.getsize(os.path.join(OUT, name)) for name in os.listdir(OUT)
    )
    return res


def _mix_order(seed: int) -> list[int]:
    return random.Random(seed).sample(MIX_SEEDS, len(MIX_SEEDS))


def _repeat(step, seconds: float, clock: Clock) -> list:
    """Call ``step(i)`` at least once, then again while the next call is
    expected to end within ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - t0
        per_step = elapsed / len(results)
        if elapsed + per_step > min(seconds, clock.left()):
            return results
        if any("error" in r for r in _flatten(results[-1])):
            return results


def _flatten(item) -> list[dict]:
    return list(item) if isinstance(item, tuple) else [item]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _report_invocation(tag: str, res: dict) -> None:
    if "wall_s" in res:
        print(f"  {tag} mix={res['mix']} wall_s={res['wall_s']:.3f} cpu_s={res['cpu_s']:.3f} "
              f"peak_rss_mib={res['peak_rss_mib']:.1f} minor_faults={res['minor_faults']}"
              f" {'ok' if not res['problems'] else 'FAILED'}")
    for problem in res["problems"]:
        print(f"    {problem}")


def run_end_to_end(workload: str, seed: int, seconds: float, refs: dict) -> tuple[dict, list]:
    clock = Clock()
    # the first import fills the bytecode cache, which users do not pay each run
    _spawn("setup", [], clock)
    mixes = _mix_order(seed)
    setups = []

    def step(i: int) -> dict:
        # set-up is sampled between the repetitions, so that it sees the
        # same spells of the host as they do
        setups.append(_spawn("setup", [], clock))
        return _invoke(workload, mixes[i % len(mixes)], False, refs, clock)

    invocations = _repeat(step, seconds, clock)
    # and topped up to at least SETUP_SAMPLES after them.  It is the importing
    # thread's CPU time: wall time is bimodal on two cores (NOTES.md).
    while len(setups) < SETUP_SAMPLES:
        setups.append(_spawn("setup", [], clock))
    for i, res in enumerate(invocations):
        _report_invocation(f"rep {i + 1}", res)
    timed = [r for r in invocations if "wall_s" in r]
    sampled = [r for r in setups if "setup_cpu_s" in r]
    if not timed or not sampled:
        raise RuntimeError("no invocation produced timings: "
                           + "; ".join(r.get("error", "") for r in setups + invocations))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
        "setup_s": statistics.median(r["setup_cpu_s"] for r in sampled),
    }
    counts = {"wall_s": len(timed), "cpu_s": len(timed), "peak_rss_mib": len(timed),
              "setup_s": len(sampled)}
    for name, value in metrics.items():
        print(f"{name} {value:.4f} {END_TO_END_UNITS[name]} (median of {counts[name]})")
    print("setup wall_s " + " ".join(f"{r['setup_wall_s']:.3f}" for r in sampled))
    print("proc.minor_faults " + " ".join(str(r["minor_faults"]) for r in timed))
    return metrics, invocations


def _layer_unit(name: str) -> str:
    if name.startswith("statesim.us_per"):
        return "us"
    if name.startswith("statesim.faults_per_op"):
        return "count/op"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_traced(workload: str, seed: int, seconds: float, refs: dict) -> tuple[dict, list]:
    clock = Clock()
    _spawn("setup", [], clock)
    mixes = _mix_order(seed)

    def pair(i: int) -> tuple:
        mix = mixes[i % len(mixes)]
        return (_invoke(workload, mix, False, refs, clock),
                _invoke(workload, mix, True, refs, clock))

    pairs = _repeat(pair, seconds, clock)
    samples: dict[str, list] = {}
    missing: set[str] = set()
    for i, (plain, traced) in enumerate(pairs):
        _report_invocation(f"pair {i + 1} untraced", plain)
        _report_invocation(f"pair {i + 1} traced  ", traced)
        if "wall_s" not in plain or "spans" not in traced:
            continue
        missing.update(traced["missing"])
        layer = spans.layer_metrics(traced["spans"], traced["missing"])
        layer["cli.output_bytes"] = traced["output_bytes"]
        layer["proc.minor_faults"] = plain["minor_faults"]
        layer["trace.minor_faults"] = traced["minor_faults"]
        layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        for name, value in layer.items():
            samples.setdefault(name, []).append(value)
    if not samples:
        raise RuntimeError("no traced pair completed")
    if missing:
        print("missing (not wrapped, metrics left out): " + ", ".join(sorted(missing)))
    metrics = {name: statistics.median(values) for name, values in samples.items()}

    ops = []
    for kind in OP_KINDS:
        res = _spawn("op", [kind], clock)
        res["problems"] = [res["error"]] if "error" in res else (
            [] if res["rc"] == 0 else [f"op {kind}: state lost its norm"])
        ops.append(res)
        if "us_per_op" in res:
            metrics[f"statesim.us_per_op.{kind}"] = res["us_per_op"]
            metrics[f"statesim.faults_per_op.{kind}"] = res["faults_per_op"]
    for name in sorted(metrics):
        value = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {_layer_unit(name)} (median of {len(samples.get(name, [1]))})")
    return metrics, [r for p in pairs for r in p] + ops


def _source_digest() -> str:
    src = os.path.join(ROOT, "src")
    paths = []
    for base, dirs, files in os.walk(src):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(base, name) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def metadata(**extra) -> dict:
    allocator_env = {
        k: v for k, v in os.environ.items()
        if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES" or k.endswith("_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "allocator_env": allocator_env,
        **extra,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    print(f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    runner = run_traced if trace else run_end_to_end
    metrics, attempts = runner(workload, seed, seconds, refs)
    failed = sum(1 for r in attempts if r["problems"])
    print(f"failed_frac {failed / len(attempts):.4f} share ({failed} of {len(attempts)})")
    units = END_TO_END_UNITS if not trace else {n: _layer_unit(n) for n in metrics}
    return {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def record_refs() -> int:
    refs: dict = {}
    for workload, (outputs, seeded) in WORKLOADS.items():
        for mix in MIX_SEEDS if seeded else (0,):
            clock = Clock()
            res = _invoke(workload, mix, False, None, clock)
            if res["problems"]:
                print(f"{workload} seed {mix}: " + "; ".join(res["problems"]), file=sys.stderr)
                return 1
            refs.setdefault(workload, {})[_ref_key(workload, mix)] = {
                name: _sha256(os.path.join(OUT, name)) for name in outputs
            }
            print(f"{workload} {_ref_key(workload, mix)} wall_s={res['wall_s']:.2f}", flush=True)
    refs["recorded_with"] = metadata()
    with open(REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true")
    args = parser.parse_args(argv)

    needed = (os.path.join(ROOT, "src", "hqsp", "cli.py"),
              os.path.join(ROOT, "data", "ppg", "recording01.csv"))
    absent = [_rel(p) for p in needed if not os.path.isfile(p)]
    if absent:
        print(f"error: not an hqsp checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    with open(DENSE_CONFIG, "w") as fh:
        fh.write(_PPG_CONFIG.format(out=_rel(OUT)))
    if args.record_refs:
        return record_refs()
    if args.workload is None:
        parser.error("--workload is required")
    with open(REFS) as fh:
        refs = json.load(fh)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = metadata(seed=args.seed, seconds=args.seconds, trace=args.trace,
                    workloads=workloads, mixture_seeds=_mix_order(args.seed))
    print("meta " + json.dumps(meta, sort_keys=True))
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), refs)
                   for w in workloads}
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
