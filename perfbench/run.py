"""Benchmark of the pairenergy CLI.

    python3 perfbench/run.py --workload {sweep,analyze,recover,classify} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload is a closed loop of
`pairenergy.cli.main` calls made one after another from this process, on
inputs made from the seed (see workloads.py).  Every call's outputs are
checked.  BLAS and OpenMP are pinned to one thread.

--trace 0 times whole calls and prints the end-to-end metrics: the median
wall and CPU time of a call, the median set-up time (interpreter start to
`pairenergy.cli` imported, in a fresh interpreter) and the process's peak
resident memory.  Calls go on while the next one is expected to end within
--seconds, and there is always at least one.

--trace 1 makes one untraced call, then one traced call (plus one at a
single worker where the workload uses more) and prints the per-layer
metrics of tracing.py; the spans go to a JSON dump.

Results, with provenance, go to perfbench/results/; CLI outputs go to a
temporary directory there that is removed at exit.  The last line of
standard output is one JSON object: correct, attempted, failed (output rows
checked and failed) and metrics.
"""

from __future__ import annotations

import os

THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_PIN)   # before numpy is first imported

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_SAMPLES = 5

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def _setup_time() -> float:
    """Seconds from interpreter start until `pairenergy.cli` is imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, pairenergy.cli; print(time.monotonic())"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout) - t0


def _git_commit() -> str | None:
    """HEAD of a git checkout, without running git; None elsewhere."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pairenergy").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
            "git_commit": _git_commit(), "src_sha256": _src_digest(),
            "platform": platform.platform()}


def _call(cli, argv) -> tuple[float, float, int]:
    """(wall s, CPU s, exit code) of one cli.main call; an exception is
    printed and counts as exit code -1."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - t0, time.process_time() - c0, rc


def _record_checks(name, checks, log) -> tuple[int, int, bool]:
    for c in checks:
        if not c.ok:
            known = (name, c.row, c.condition) in workloads.KNOWN_DEFECTS
            print(f"check FAILED{' (known defect)' if known else ''}: "
                  f"{c.row}: {c.condition}: {c.detail}")
    log.extend(dict(c._asdict(), ok=bool(c.ok)) for c in checks)
    return workloads.tally(name, checks)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from pairenergy import cli

    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}"
    record = {"provenance": provenance(name, seed), "trace": trace, "calls": [],
              "checks": []}
    attempted = failed = 0
    correct = True

    with tempfile.TemporaryDirectory(dir=RESULTS, prefix=f"{tag}-") as tmp:
        tmp = Path(tmp)
        job = workloads.WORKLOADS[name](seed, tmp)

        def call(index: int, workers: int | None = None,
                 context=contextlib.nullcontext()) -> float:
            nonlocal attempted, failed, correct
            out = tmp / f"call{index}"
            with context:
                wall, cpu, rc = _call(cli, job.argv(out, workers))
            record["calls"].append({"wall_s": wall, "cpu_s": cpu, "exit_code": rc,
                                    "workers": workers or job.workers})
            try:
                checks = job.check(out, rc)
            except Exception as exc:   # unreadable output fails the call's rows
                traceback.print_exc()
                checks = [workloads.Check("output", "readable", False, repr(exc))]
            a, f, ok = _record_checks(name, checks, record["checks"])
            attempted, failed, correct = attempted + a, failed + f, correct and ok
            return wall

        if not trace:
            setup = [_setup_time() for _ in range(SETUP_SAMPLES)]
            start = time.perf_counter()
            walls = []
            while not walls or \
                    time.perf_counter() - start + statistics.median(walls) <= seconds:
                walls.append(call(len(walls)))
            cpus = [c["cpu_s"] for c in record["calls"]]
            values = {"wall_s": (statistics.median(walls), len(walls)),
                      "cpu_s": (statistics.median(cpus), len(cpus)),
                      "setup_s": (statistics.median(setup), len(setup)),
                      "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                      / 1024.0, 1)}
            units = dict(END_TO_END)
            record["setup_s"] = setup
        else:
            import tracing

            untraced = call(0)
            tracer = tracing.Tracer()
            runs = {"main": job.workers}
            if job.workers > 1:
                runs["w1"] = 1
            walls = {}
            for i, (run_id, workers) in enumerate(runs.items(), start=1):
                walls[run_id] = call(i, workers, tracer.root(run_id))
            layer = tracing.layer_metrics(tracer.spans, "main")
            # multistart time at 1 worker over time at the workload's count
            single = tracing.layer_metrics(tracer.spans, "w1") if "w1" in runs else {}
            main_ms = layer["optimizer.multistart_s"]
            layer["optimizer.speedup_w2"] = \
                single["optimizer.multistart_s"] / main_ms if single and main_ms else 0.0
            layer["trace.overhead_s"] = walls["main"] - untraced
            values = {k: (layer[k], 1) for k, _, _ in tracing.PER_LAYER}
            units = {k: u for k, u, _ in tracing.PER_LAYER}
            spans_path = RESULTS / f"{tag}-spans.json"
            spans_path.write_text(json.dumps(tracer.dump()))
            record["spans_file"] = spans_path.name
            print(f"spans: {len(tracer.spans)} written to {spans_path}")

    metrics = {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()}
    for k, (v, n) in values.items():
        print(f"{k:34s} {v:>16.6g} {units[k]:6s} (samples: {n})")
    print(f"output rows checked: {attempted}, failed: {failed}, correct: {correct}")
    record.update(metrics=metrics, samples={k: n for k, (_, n) in values.items()},
                  attempted=attempted, failed=failed, correct=correct)
    path = RESULTS / f"{tag}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"results written to {path}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pairenergy" / "cli.py").is_file():
        print(f"no pairenergy sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
