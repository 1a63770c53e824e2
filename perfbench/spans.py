"""Layer spans for hqsp, recorded from outside the package.

:class:`Tracer` wraps each layer function named in :data:`TARGETS` at every
``hqsp`` module global that refers to it, which is where the program looks
it up at call time (``hqsp.cli.run_table1``, ``hqsp.pipeline.sqsp``,
``hqsp.qsynth.dense_complex_load``, and ``hqsp.circuit`` itself for the
inline import of ``cancel_adjacent_inverses`` in ``sqsp``).  Nothing under
``src/`` is edited.

Every wrapped call records a span: name, layer, start, end, parent span,
thread, and the calling thread's minor-fault delta.  Span stacks are
thread-local, because ``sweep_ppg`` runs its columns on a thread pool and a
shared stack would make one thread's span the parent of another's.  A
span's self time is its duration minus the same-thread child spans it
encloses; layer times are self times summed across threads.  Spans stay in
memory until :meth:`Tracer.rows` hands them to the owner at the end of the
run.

:func:`layer_metrics` turns the rows into the per-layer metrics of
``BENCHMARK.json``.  A target that no longer exists is reported as missing
and its metrics are left out, never reported as zero.
"""

from __future__ import annotations

import functools
import itertools
import resource
import sys
import threading
import time

# (defining module, function, layer)
TARGETS = (
    ("hqsp.pipeline", "build_signal", "signals"),
    ("hqsp.signals", "ingest_waveform_csv", "signals"),
    ("hqsp.transforms", "packet_dhwt", "transforms"),
    ("hqsp.transforms", "dft", "transforms"),
    ("hqsp.transforms", "threshold_normalize", "transforms"),
    ("hqsp.transforms", "classical_reconstruct", "transforms"),
    ("hqsp.loaders", "sqsp", "loaders"),
    ("hqsp.loaders", "eae_real", "loaders"),
    ("hqsp.loaders", "dense_complex_load", "loaders"),
    ("hqsp.qsynth", "inverse_packet_qhwt", "qsynth"),
    ("hqsp.qsynth", "iqft", "qsynth"),
    ("hqsp.qsynth", "fsl_coefficients", "qsynth"),
    ("hqsp.qsynth", "fsl_circuit", "qsynth"),
    ("hqsp.circuit", "report", "circuit"),
    ("hqsp.circuit", "cancel_adjacent_inverses", "circuit"),
    ("hqsp.circuit", "export", "circuit"),
    ("hqsp.statesim", "simulate", "statesim"),
    ("hqsp.statesim", "trace_distance", "statesim"),
    ("hqsp.pipeline", "hybrid_prepare", "pipeline"),
    ("hqsp.pipeline", "compression_point", "pipeline"),
    ("hqsp.pipeline", "run_table1", "pipeline"),
    ("hqsp.pipeline", "run_table2", "pipeline"),
    ("hqsp.pipeline", "sweep_ppg", "pipeline"),
    ("hqsp.cli", "main", "cli"),
)


def _samples_out(args, result):
    return len(result.samples)


def _samples_in(args, result):
    return 2**result.n


def _gates_out(args, result):
    return len(result)


def _gates_in(args, result):
    return len(args[0])


def _reported_gates(args, result):
    return result.cnot_count + result.single_qubit_count


def _rows(args, result):
    return len(result) if isinstance(result, list) else 1


# work counted per span, from its arguments and result
_COUNTERS = {
    "build_signal": _samples_out,
    "ingest_waveform_csv": _samples_out,
    "packet_dhwt": _samples_in,
    "dft": _samples_in,
    "sqsp": _gates_out,
    "eae_real": _gates_out,
    "dense_complex_load": _gates_out,
    "inverse_packet_qhwt": _gates_out,
    "iqft": _gates_out,
    "fsl_circuit": _gates_out,
    "report": _reported_gates,
    "export": lambda args, result: len(result.encode()),
    "simulate": _gates_in,
    "hybrid_prepare": _rows,
    "run_table1": _rows,
    "run_table2": _rows,
    "sweep_ppg": _rows,
}


def _thread_faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


class _Span:
    __slots__ = (
        "id", "name", "layer", "parent", "thread", "start", "end",
        "faults", "child_s", "child_faults", "count",
    )


class Tracer:
    """Wraps the :data:`TARGETS` and keeps their spans in memory."""

    def __init__(self):
        self._local = threading.local()
        self._spans: list[_Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def install(self) -> list[str]:
        """Wrap every target; return the ``module.function`` names not found."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "hqsp" or name.startswith("hqsp."))
        ]
        missing = []
        for module_name, attr, layer in TARGETS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(fn, attr, layer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        return missing

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = _Span()
            with self._lock:
                span.id = next(self._ids)
            span.name, span.layer = name, layer
            span.parent = stack[-1].id if stack else None
            span.thread = threading.get_ident()
            span.child_s = 0.0
            span.child_faults = 0
            span.count = None
            stack.append(span)
            faults0 = _thread_faults()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.faults = _thread_faults() - faults0
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                    stack[-1].child_faults += span.faults
                with self._lock:
                    self._spans.append(span)
            if counter is not None:
                span.count = counter(args, result)
            return result

        return wrapper

    def rows(self) -> list[dict]:
        """Spans in completion order, as JSON-ready dicts."""
        return [
            {
                "id": s.id, "name": s.name, "layer": s.layer, "parent": s.parent,
                "thread": s.thread, "start": s.start, "end": s.end,
                "self_s": (s.end - s.start) - s.child_s,
                "self_faults": s.faults - s.child_faults,
                "count": s.count,
            }
            for s in self._spans
        ]


# (metric, statistic, span names); a count is summed only over spans with no
# ancestor among the same names, so nested or recursive calls count once
LAYER_METRICS = (
    ("signals.ingest_s", "self_s", ("build_signal", "ingest_waveform_csv")),
    ("signals.samples", "count", ("build_signal", "ingest_waveform_csv")),
    ("transforms.busy_s", "self_s",
     ("packet_dhwt", "dft", "threshold_normalize", "classical_reconstruct")),
    ("transforms.analysis_calls", "calls", ("packet_dhwt", "dft")),
    ("transforms.samples", "count", ("packet_dhwt", "dft")),
    ("loaders.sqsp_s", "self_s", ("sqsp",)),
    ("loaders.sqsp_gates", "count", ("sqsp",)),
    ("loaders.dense_s", "self_s", ("eae_real", "dense_complex_load")),
    ("loaders.dense_gates", "count", ("eae_real", "dense_complex_load")),
    ("qsynth.build_s", "self_s",
     ("inverse_packet_qhwt", "iqft", "fsl_coefficients", "fsl_circuit")),
    ("qsynth.gates", "count", ("inverse_packet_qhwt", "iqft", "fsl_circuit")),
    ("circuit.report_s", "self_s", ("report",)),
    ("circuit.reported_gates", "count", ("report",)),
    ("circuit.cancel_s", "self_s", ("cancel_adjacent_inverses",)),
    ("circuit.export_s", "self_s", ("export",)),
    ("circuit.export_bytes", "count", ("export",)),
    ("statesim.simulate_s", "self_s", ("simulate",)),
    ("statesim.gates", "count", ("simulate",)),
    ("statesim.minor_faults", "self_faults", ("simulate",)),
    ("statesim.check_s", "self_s", ("trace_distance",)),
    ("pipeline.self_s", "self_s",
     ("hybrid_prepare", "compression_point", "run_table1", "run_table2", "sweep_ppg")),
    ("pipeline.rows", "count", ("hybrid_prepare", "run_table1", "run_table2", "sweep_ppg")),
    ("cli.self_s", "self_s", ("main",)),
)


def layer_metrics(rows: list[dict], missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    Metrics whose every source function is missing are omitted.
    """
    missing_names = {m.rsplit(".", 1)[1] for m in missing}
    by_id = {r["id"]: r for r in rows}

    def outermost(row, names) -> bool:
        parent = by_id.get(row["parent"])
        while parent is not None:
            if parent["name"] in names:
                return False
            parent = by_id.get(parent["parent"])
        return True

    out: dict[str, float] = {}
    for metric, stat, names in LAYER_METRICS:
        if missing_names.issuperset(names):
            continue
        chosen = [r for r in rows if r["name"] in names]
        if stat == "calls":
            out[metric] = len(chosen)
        elif stat == "count":
            out[metric] = sum(r["count"] for r in chosen if outermost(r, names))
        else:
            out[metric] = sum(r[stat] for r in chosen)
    out["pipeline.threads"] = len({r["thread"] for r in rows})
    return out
