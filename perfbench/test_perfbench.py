"""Self-test of the benchmark.  From the root of a checkout:

    python3 -m pytest perfbench

Takes about half a minute: it runs the sparse-merge workload three times
with the shortest run length.
"""

import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sparse-merge",
         "--seed", "0", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_end_to_end_metrics_match_benchmark_json():
    result, stdout = _run("--trace", "0")
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac 0.0000 share" in stdout


def test_per_layer_metrics_match_benchmark_json():
    result, stdout = _run("--trace", "1")
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer")
    assert "missing" not in stdout


def test_corrupted_reference_counts_as_failure(capsys):
    with open(run.REFS) as fh:
        refs = json.load(fh)
    for outputs in refs["sparse-merge"].values():
        outputs["table1.csv"] = "0" * 64
    os.makedirs(run.WORK, exist_ok=True)
    result = run.run_workload("sparse-merge", 0, 1, False, refs)
    stdout = capsys.readouterr().out
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "failed_frac 1.0000 share" in stdout
    assert "table1.csv differs from the reference" in stdout


def test_spans_from_threads_keep_their_own_parents():
    tracer = spans.Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.002), "inner", "test")
    outer = tracer._wrap(lambda: [inner() for _ in range(3)], "outer", "test")
    threads = [threading.Thread(target=lambda: [outer() for _ in range(5)]) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)

    rows = tracer.rows()
    by_id = {r["id"]: r for r in rows}
    assert len(rows) == 4 * 5 * 4
    for r in rows:
        assert r["self_s"] >= 0
        if r["name"] == "inner":
            parent = by_id[r["parent"]]
            assert parent["name"] == "outer" and parent["thread"] == r["thread"]
        else:
            assert r["parent"] is None
    assert spans.layer_metrics(rows, [])["pipeline.threads"] == 4
