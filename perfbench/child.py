"""One measured hqsp invocation, run in a fresh interpreter by ``run.py``.

From the root of a checkout, ``run.py`` starts

    python3 -I -c "<exec perfbench/child.py>" MODE RESULT_JSON [ARG ...]

MODE is ``setup`` (import ``hqsp.cli`` and stop), ``run`` (call
``hqsp.cli.main(ARGS)`` untraced), ``trace`` (the same, with the layer
spans of ``spans.py`` installed) or ``op`` (simulate one gate kind, ARG,
repeated on 16 qubits).  The measurements go to RESULT_JSON.

Every mode executes the same prelude, the same imports in the same order,
so glibc's allocator starts each measured call from the same state.  The
prelude also keeps the checkout's location out of the process: see
:class:`CheckoutFinder` and NOTES.md ("Allocation regime").
"""

import importlib.machinery
import json
import os
import resource
import sys
import time


class CheckoutFinder:
    """Imports ``hqsp`` from ``src/`` and the tracer from ``perfbench/`` under
    paths relative to the checkout root.

    Python's own path finder stores absolute module paths, and their length
    shifts the heap enough to flip glibc's allocation regime from one
    checkout location to another.
    """

    ROOTS = {"hqsp": "src", "spans": "perfbench"}

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        root = cls.ROOTS.get(name.partition(".")[0])
        if root is None:
            return None
        base = os.path.join(root, *name.split("."))
        package = os.path.isdir(base)
        origin = os.path.join(base, "__init__.py") if package else base + ".py"
        if not os.path.isfile(origin):
            return None
        loader = importlib.machinery.SourceFileLoader(name, origin)
        spec = importlib.machinery.ModuleSpec(name, loader, origin=origin, is_package=package)
        spec.has_location = True
        if package:
            spec.submodule_search_locations = [base]
        return spec


sys.meta_path.insert(0, CheckoutFinder)

import spans  # noqa: E402  imported in every mode, traced or not

OP_QUBITS = 16
OP_GATES = 512


def _op_circuit(kind: str):
    """OP_GATES gates of one kind, cycled over the qubits of the register."""
    from hqsp.circuit import Circuit

    circuit = Circuit(OP_QUBITS)
    for k in range(OP_GATES):
        q, p = k % OP_QUBITS, (k + 1) % OP_QUBITS
        if kind == "H":
            circuit.add("H", q)
        elif kind in ("RY", "RZ"):
            circuit.add(kind, q, angle=0.3 + 1e-3 * k)
        elif kind == "CPHASE":
            circuit.add("CPHASE", p, q, angle=0.3 + 1e-3 * k)
        else:  # CX, SWAP
            circuit.add(kind, p, q)
    return circuit


def _op_bench(kind: str) -> dict:
    import numpy as np

    from hqsp.statesim import simulate

    circuit = _op_circuit(kind)
    before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    state = simulate(circuit)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "rc": 0 if abs(float(np.linalg.norm(state)) - 1.0) < 1e-9 else 1,
        "us_per_op": wall / OP_GATES * 1e6,
        "faults_per_op": (after.ru_minflt - before.ru_minflt) / OP_GATES,
    }


def _cpu_s(before, after) -> float:
    """User + system CPU of all threads of this process between two rusages."""
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def main(argv: list[str]) -> int:
    mode, out_path, args = argv[0], argv[1], argv[2:]
    # the importing thread's CPU time: NumPy's OpenBLAS starts a worker thread
    # during the import, and its spinning is not import work (NOTES.md)
    w0, c0 = time.perf_counter(), time.thread_time()
    import hqsp.cli

    c1, w1 = time.thread_time(), time.perf_counter()
    result = {"setup_wall_s": w1 - w0, "setup_cpu_s": c1 - c0}
    if mode in ("run", "trace"):
        tracer = spans.Tracer()
        if mode == "trace":
            result["missing"] = tracer.install()
        before, t1 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        rc = hqsp.cli.main(args)
        wall = time.perf_counter() - t1
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=_cpu_s(before, after),
            peak_rss_mib=after.ru_maxrss / 1024,
            minor_faults=after.ru_minflt - before.ru_minflt,
        )
        if mode == "trace":
            result["spans"] = tracer.rows()
    elif mode == "op":
        result.update(_op_bench(args[0]))
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    if hqsp.cli.__file__ != os.path.join("src", "hqsp", "cli.py"):
        print(f"hqsp was imported from {hqsp.cli.__file__}, not from src/", file=sys.stderr)
        return 2
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
