"""Benchmark entry point for the recinfluence audit pipeline.

    python3 bench/run.py --workload knn-loo --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``. For ``--seconds`` seconds the workload is repeated,
each repetition in a fresh child process and one at a time. The inputs come
from ``--seed``. After the timed repetitions the outputs are checked, and
the last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
repetitions (interleaved with untraced ones, to measure the tracing
overhead). Exit status: 0 when every check passed, 1 when a check failed,
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import gen
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(".bench_work")        # relative to ROOT, so artifacts match
MIN_REPS = 3                      # per kind (untraced, traced) in a run
# Past REPEAT_LIMIT_S no repetition starts, and past CHILD_LIMIT_S a running
# one is killed, so a run ends well within three minutes whatever --seconds.
REPEAT_LIMIT_S = 110.0
CHILD_LIMIT_S = 150.0
# The workloads are serial. Left at its default, OpenBLAS starts nproc
# threads that spin between the small products these sizes make; on a
# 2-vCPU machine that burned a second core and widened the spread of the
# profile workload's repetitions from about 4% to about 10%, with no gain.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


END_TO_END = {
    "audit_s": "s",
    "users_per_s": "users/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "alloc_peak_mb": "MB",
    "completed_frac": "ratio",
}


def _calls(name):
    return "count", lambda rec: rec["functions"].get(name, {}).get("calls", 0)


def _self_s(name):
    return "s", lambda rec: rec["functions"].get(name, {}).get("self_s", 0.0)


def _total_s(name):
    return "s", lambda rec: rec["functions"].get(name, {}).get("total_s", 0.0)


def _counter(key, unit="count"):
    return unit, lambda rec: rec["counters"][key]


def _useful_ratio(rec):
    recomputed = rec["lists_recomputed"]
    return rec["counters"]["lists_changed"] / recomputed if recomputed else 0.0


def _artifact_write_s(rec):
    return sum(row["self_s"] for name, row in rec["functions"].items()
               if name.startswith(("artifacts.write", "artifacts.save")))


_REMOVAL = "influence.LeaveOneOutEngine.distances_without"
STAGES = ("ingest", "influence", "features", "fit_tree", "mds", "report")

# name -> (unit, value of one traced repetition's layer record). Function
# metrics ``.s`` are self time, except the ``cli.<stage>.s`` root spans,
# which are the stage's whole wall time.
PER_LAYER = {
    "recommender.top_items.calls": _calls("recommender.top_items"),
    "recommender.top_items.s": _self_s("recommender.top_items"),
    "recommender.train_knn.calls": _calls("recommender.train_knn"),
    "recommender.train_knn.s": _self_s("recommender.train_knn"),
    "recommender.train_nmf.calls": _calls("recommender.train_nmf"),
    "recommender.train_nmf.s": _self_s("recommender.train_nmf"),
    "recommender.nmf_iters": _counter("nmf_iters"),
    "recommender.nmf_early_stops": _counter("nmf_early_stops"),
    "recommender.nmf_gemm_flops": _counter("nmf_gemm_flops", "flop"),
    "influence.removals": _calls(_REMOVAL),
    "influence.removals_failed": (
        "count", lambda rec: rec["functions"].get(_REMOVAL, {}).get(
            "failed", 0)),
    "influence.group_reruns": ("count", lambda rec: rec["group_reruns"]),
    "influence.lists_recomputed": (
        "count", lambda rec: rec["lists_recomputed"]),
    "influence.lists_changed": _counter("lists_changed"),
    "influence.useful_ratio": ("ratio", _useful_ratio),
    "influence.removal_ms.p50": ("ms", lambda rec: rec["removal_ms_p50"]),
    "influence.removal_ms.p95": ("ms", lambda rec: rec["removal_ms_p95"]),
    "influence.jaccard_distance.calls": _calls("influence.jaccard_distance"),
    "influence.jaccard_distance.s": _self_s("influence.jaccard_distance"),
    "influence.group_influence.s": _self_s("influence.group_influence"),
    "similarity.user_similarity_matrix.calls": _calls(
        "similarity.user_similarity_matrix"),
    "similarity.user_similarity_matrix.s": _self_s(
        "similarity.user_similarity_matrix"),
    "similarity.item_distance_submatrix.calls": _calls(
        "similarity.item_distance_submatrix"),
    "similarity.item_distance_submatrix.s": _self_s(
        "similarity.item_distance_submatrix"),
    "similarity.pairs": _counter("similarity_pairs"),
    "data.drop_user.calls": _calls("data.drop_user"),
    "data.drop_user.s": _self_s("data.drop_user"),
    "data.load_dataset.s": _self_s("data.load_dataset"),
    "features.extract_all.s": _self_s("features.extract_all"),
    "features.recommendation_overlap.s": _self_s(
        "features.recommendation_overlap"),
    "features.centroid_similarity.s": _self_s(
        "features.centroid_similarity"),
    "features.intra_profile_distance.s": _self_s(
        "features.intra_profile_distance"),
    "predictor.fit_tree.s": _self_s("predictor.fit_tree"),
    "predictor.nodes": _counter("tree_nodes"),
    "analysis.classical_mds.s": _self_s("analysis.classical_mds"),
    "analysis.smacof_refine.s": _self_s("analysis.smacof_refine"),
    "analysis.mds_embed.s": _self_s("analysis.mds_embed"),
    "artifacts.bytes_written": _counter("bytes_written", "bytes"),
    "artifacts.write.s": ("s", _artifact_write_s),
    **{f"cli.{stage}.s": _total_s(f"cli.cmd_{stage}")
       for stage in STAGES},
}
OVERHEAD = "trace.overhead_frac"


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(props: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy too old to report its build
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "dataset": props,
    }


def prepare(wl: Workload, seed: int) -> tuple[Path, tuple, dict]:
    """Write the workload's inputs; returns (work dir, triplets, props)."""
    work = WORK / wl.name
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work / "input").mkdir(parents=True)
    triplets = gen.generate(wl.name, seed, wl.n_users, wl.n_items,
                            wl.density, wl.half_stars)
    (ROOT / work / "input" / "ratings.csv").write_text(
        gen.ratings_csv(*triplets), encoding="utf-8")
    if not wl.loo:
        scores = gen.influence_column(wl.name, seed, wl.n_users)
        order = sorted(range(wl.n_users), key=lambda u: (-scores[u], u))
        rank = {u: r for r, u in enumerate(order, start=1)}
        lines = ["user_id,influence,rank"] + [
            f"{u + 1},{float(scores[u])!r},{rank[u]}"
            for u in range(wl.n_users)]
        (ROOT / work / "input" / "influence.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
    props = gen.properties(*triplets, wl.n_users, wl.n_items)
    return work, triplets, props


def run_child(work: Path, wl: Workload, trace: bool, timeout: float,
              memory: bool = False) -> dict:
    inp, out = str(work / "input"), str(work / "out")
    plan = {"src": str(SRC), "trace": trace, "memory": memory,
            "out_dir": out,
            "ingest": wl.ingest(inp, out), "stages": wl.stages(inp, out),
            "spans_path": str(work / "spans.jsonl")}
    plan_path = ROOT / work / "plan.json"
    record_path = ROOT / work / "record.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    record_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("child.py")),
             str(plan_path), str(record_path)],
            cwd=ROOT, env={**os.environ, **BLAS_THREADS},
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{wl.name}: repetition exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{wl.name}: child failed\n{proc.stderr}")
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    return json.loads(record_path.read_text(encoding="utf-8"))


def repeat(work: Path, wl: Workload, seconds: float, trace: bool) -> list:
    """A memory repetition, then timed ones for ``seconds`` in all (at least
    MIN_REPS of each kind)."""
    start = perf_counter()
    records = [run_child(work, wl, False, CHILD_LIMIT_S, memory=True)]
    kinds = (False, True) if trace else (False,)
    while True:
        kind = kinds[(len(records) - 1) % len(kinds)]
        elapsed = perf_counter() - start
        records.append(run_child(work, wl, kind, CHILD_LIMIT_S - elapsed))
        enough = all(sum(r["trace"] == k for r in records[1:]) >= MIN_REPS
                     for k in kinds)
        elapsed = perf_counter() - start
        if (enough and elapsed >= seconds) or elapsed >= REPEAT_LIMIT_S:
            return records


def end_to_end(wl: Workload, memory: dict, plain: list, attempted: int,
               failed: int) -> dict:
    audit = statistics.median(r["audit_s"] for r in plain)
    values = {
        "audit_s": audit,
        "users_per_s": wl.n_users / audit,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "alloc_peak_mb": memory["alloc_peak_mb"],
        "completed_frac": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(memory: dict, plain: list, traced: list) -> dict:
    metrics = {}
    for name, (unit, read) in PER_LAYER.items():
        value = statistics.median_low(read(r["layers"]) for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    for stage in STAGES:
        peak = memory["stage_peak_mb"].get(stage.replace("_", "-"), 0.0)
        metrics[f"cli.{stage}.peak_mb"] = {"value": peak, "unit": "MB"}
    overhead = (statistics.median(r["audit_s"] for r in traced)
                / statistics.median(r["audit_s"] for r in plain) - 1.0)
    metrics[OVERHEAD] = {"value": overhead, "unit": "ratio"}
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    work, triplets, props = prepare(wl, seed)
    records = repeat(work, wl, seconds, trace)
    memory, *timed = records
    plain = [r for r in timed if not r["trace"]]
    traced = [r for r in timed if r["trace"]]

    attempted = len(records) * (wl.n_stages + wl.removals)
    failed = sum(sum(code != 0 for code in r["exit_codes"])
                 + wl.n_stages - len(r["exit_codes"])
                 + r.get("removal_failures", 0) for r in records)
    problems = checks.same_digests(records)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    else:
        out = ROOT / work / "out"
        problems += (checks.check_loo(wl, out, seed) if wl.loo else
                     checks.check_profile(wl, out, triplets, seed))
    metrics = (per_layer(memory, plain, traced) if trace else
               end_to_end(wl, memory, plain, attempted, failed))
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env = environment(props)
    (ROOT / work / "result.json").write_text(json.dumps({
        "environment": env, "seed": seed,
        "problems": problems, "records": records, **result},
        indent=1), encoding="utf-8")

    print(f"== {wl.name} seed={seed} repetitions={len(records)} "
          f"(traced {len(traced)})")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"artifacts {len(records[0]['digests'])} files, identical across "
          f"repetitions: {not checks.same_digests(records)}")
    print(f"memory   alloc_peak_mb {memory['alloc_peak_mb']:.4f}")
    for key in ("audit_s", "setup_s", "peak_rss_mb"):
        for label, group in (("untraced", plain), ("traced", traced)):
            vals = sorted(r[key] for r in group)
            if vals:
                print(f"{label:8s} {key:13s} "
                      f"median={statistics.median(vals):.4f} "
                      f"min={vals[0]:.4f} max={vals[-1]:.4f} n={len(vals)}")
    if traced:
        _print_top_self(traced[-1]["layers"]["functions"])
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return result


def _print_top_self(functions: dict, count: int = 8) -> None:
    total = sum(row["self_s"] for row in functions.values())
    ranked = sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in ranked[:count]:
        print(f"self {row['self_s']:8.4f} s {100 * row['self_s'] / total:5.1f}%"
              f" calls={row['calls']:<7d} {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recinfluence" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed,
                                         args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"result {name} {json.dumps(result)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value
                        for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
