"""Smoke test of the benchmark's own code: each workload shrunk, with its
output checks on, untraced and traced.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pairenergy import cli  # noqa: E402

# Sweep energies at optimizer seed 0 with 2 starts and 1 hop.
SMALL_SWEEP_REFERENCE = {6: -0.10040060142377771, 10: -0.10575244515218349}

SMALL = {
    "sweep": dict(n_list=(6, 10), n_starts=2, hop_count=1,
                  reference=SMALL_SWEEP_REFERENCE),
    "analyze": dict(n=24),
    "recover": dict(n_list=(20, 60), resolution=8),
    "classify": dict(resolution=16),
}


def _run(job, out, workers=None):
    rc = cli.main(job.argv(out, workers))
    return job.check(out, rc)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shrunk_workload_passes_its_checks(name, tmp_path):
    job = workloads.WORKLOADS[name](3, tmp_path, **SMALL[name])
    checks = _run(job, tmp_path / "out")
    assert checks and all(c.ok for c in checks), [c for c in checks if not c.ok]
    attempted, failed, correct = workloads.tally(name, checks)
    assert attempted >= 1 and failed == 0 and correct


def test_checks_reject_a_wrong_output(tmp_path):
    job = workloads.analyze(3, tmp_path, **SMALL["analyze"])
    out = tmp_path / "out"
    assert cli.main(job.argv(out)) == 0
    report = json.loads((out / "analysis.json").read_text())
    report["energy"] *= 1.0 + 1e-6
    (out / "analysis.json").write_text(json.dumps(report))
    bad = [c.condition for c in job.check(out, 0) if not c.ok]
    assert bad == ["energy"]
    assert workloads.tally("analyze", job.check(out, 3)) == (1, 1, False)


def test_w1_bounds_bracket_exact_transport():
    # moving both atoms up by 1 is optimal, so W1 = 1
    x, y = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]])
    half = np.array([0.5, 0.5])
    lower, upper = workloads.w1_bounds(x, half, y, half)
    assert lower == pytest.approx(1.0)
    assert upper == pytest.approx((2.0 + 2.0 * np.sqrt(2.0)) / 4.0)


def test_traced_sweep_nests_threads_and_counts_repeat(tmp_path):
    job = workloads.sweep(3, tmp_path, **SMALL["sweep"])
    metrics = []
    for i in range(2):
        tracer = tracing.Tracer()
        with tracer.root("main"):
            assert _run(job, tmp_path / f"out{i}")
        metrics.append(tracing.layer_metrics(tracer.spans, "main"))
    by_id = {s.id: s for s in tracer.spans}
    solves = [s for s in tracer.spans if s.name == "optimizer.minimize_local"]
    # per N, 2 starts on pool threads and 1 hop on the calling thread
    assert len(solves) == 2 * 3
    assert {by_id[s.parent].name for s in solves} == {"optimizer.minimize_multistart"}
    counts = [k for k, unit, _ in tracing.PER_LAYER if unit == "count"]
    a, b = metrics
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["optimizer.energy_evals"] > 0 and a["optimizer.multistart_s"] > 0
    # the wrappers are gone once the block ends
    assert cli.minimize_multistart.__module__ == "pairenergy.optimizer"


def test_traced_recover_counts_transport(tmp_path):
    job = workloads.recover(3, tmp_path, **SMALL["recover"])
    tracer = tracing.Tracer()
    with tracer.root("main"):
        assert all(c.ok for c in _run(job, tmp_path / "out"))
    m = tracing.layer_metrics(tracer.spans, "main")
    assert m["measures.w1_calls"] == 2
    assert m["measures.w1_pairs"] == (20 + 60) * 64
    assert m["measures.w1_truncated"] == 0
    assert m["measures.grid_energy_calls"] == 2 and m["measures.grid_values"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = []
    for id_, parent, start, end in ((1, None, 0.0, 10.0), (2, 1, 1.0, 4.0),
                                    (3, 1, 3.0, 5.0), (4, 2, 1.0, 2.0)):
        s = tracing.Span(id_, parent, "r", "x", start)
        s.end = end
        spans.append(s)
    assert tracing.self_times(spans) == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
