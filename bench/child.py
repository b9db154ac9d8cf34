"""One repetition of a workload, run in a fresh process by run.py.

    python3 bench/child.py PLAN.json RECORD.json

The plan names the source tree, the ingest and stage argument lists, the
output directory and whether to trace. The child times ``ingest`` (set-up)
INGEST_REPEATS times and then the stages (the audit) through
``recinfluence.cli.main``, and writes a record with the timings, exit codes,
artifact digests, peak RSS and, when traced, the per-layer numbers. Only the
last ingest and the stages are traced, so the layer numbers are those of one
pass through the pipeline. A memory repetition runs under ``tracemalloc``
and records each stage's allocation peak; its timings are not used.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import INGEST_REPEATS


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def _run_stage(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except Exception:  # a crashed stage counts as a failed operation
            traceback.print_exc()
            return 1


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_record(tracer) -> dict:
    """Per-layer numbers of one traced repetition."""
    removal = "influence.LeaveOneOutEngine.distances_without"
    removals = [end - start for name, _, start, end, _, _ in tracer.spans
                if name == removal]
    return {
        "functions": tracer.summary(),
        "counters": dict(tracer.counters),
        "lists_recomputed": len(tracer.nested_under(
            "recommender.top_items", removal)),
        "group_reruns": len(tracer.nested_under(
            removal, "influence.group_influence")),
        "removal_ms_p50": 1e3 * (statistics.median(removals)
                                 if removals else 0.0),
        "removal_ms_p95": 1e3 * _percentile(removals, 0.95),
    }


def run(plan: dict) -> dict:
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("recinfluence")
    importlib.import_module("recinfluence.cli")
    if Path(package.__file__).resolve().parent != src / "recinfluence":
        raise RuntimeError(f"recinfluence imported from {package.__file__}, "
                           f"not from {src}")
    out_dir = Path(plan["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    # At these sizes the interpreter and the imports set ru_maxrss, so a
    # memory repetition also takes each stage's allocation peak, numpy
    # arrays included. In use every stage is a process of its own.
    if plan["memory"]:
        tracemalloc.start()
    stage_peak_mb = {}

    def stage(argv):
        tracemalloc.reset_peak()
        codes.append(_run_stage(package.cli.main, argv))
        if plan["memory"]:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            stage_peak_mb[argv[0]] = max(peak,
                                         stage_peak_mb.get(argv[0], 0.0))

    codes, ingest_s = [], []

    def ingest():
        start = perf_counter()
        stage(plan["ingest"])
        ingest_s.append(perf_counter() - start)

    for _ in range(INGEST_REPEATS - 1):
        ingest()
        if codes[-1] != 0:
            break
    tracer = None
    if plan["trace"]:
        tracer = Tracer(package).install()
    try:
        if codes[-1] == 0:
            ingest()
        stage_s = []
        start = perf_counter()
        for argv in plan["stages"]:
            if codes[-1] != 0:
                break
            t0 = perf_counter()
            stage(argv)
            stage_s.append(perf_counter() - t0)
        audit_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    tracemalloc.stop()

    record = {
        "trace": bool(plan["trace"]),
        "memory": bool(plan["memory"]),
        "setup_s": statistics.median(ingest_s),
        "ingest_s": ingest_s,
        "audit_s": audit_s,
        "stage_s": stage_s,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digests": digests(out_dir),
    }
    if plan["memory"]:
        record["stage_peak_mb"] = stage_peak_mb
        record["alloc_peak_mb"] = max(stage_peak_mb.values())
    meta = out_dir / "influence.csv.meta.json"
    if meta.exists():
        record["removal_failures"] = len(
            json.loads(meta.read_text(encoding="utf-8"))["failures"])
    if tracer is not None:
        record["layers"] = layer_record(tracer)
        tracer.write_spans(plan["spans_path"])
    return record


def main(argv) -> int:
    plan = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    record = run(plan)
    Path(argv[2]).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
