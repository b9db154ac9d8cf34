"""Tests of the benchmark itself: generator, tracer, checks, metric names.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import importlib
import inspect
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = {
    "loo": Workload("test-tiny-loo", 30, 60, 0.1, False, "knn", True,
                    (3, 6)),
    "profile": Workload("test-tiny-profile", 40, 80, 0.1, True, "knn",
                        False),
}


def _csv(name, seed):
    wl = WORKLOADS[name]
    return gen.ratings_csv(*gen.generate(name, seed, wl.n_users, wl.n_items,
                                         wl.density, wl.half_stars))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_same_bytes_for_same_seed(name):
    assert _csv(name, 7) == _csv(name, 7)
    assert _csv(name, 7) != _csv(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_shape_is_exact(name):
    wl = WORKLOADS[name]
    u, i, r = gen.generate(name, 3, wl.n_users, wl.n_items, wl.density,
                           wl.half_stars)
    props = gen.properties(u, i, r, wl.n_users, wl.n_items)
    assert props["ratings"] == round(wl.density * wl.n_users * wl.n_items)
    assert np.bincount(u, minlength=wl.n_users).min() >= gen.MIN_PER_USER
    assert np.bincount(i, minlength=wl.n_items).min() >= 1
    assert len(set(zip(u.tolist(), i.tolist()))) == len(r)


def _bindings(package):
    """(namespace, attribute) -> object for every function binding."""
    tracer = Tracer(package)
    out = {}
    for ns in tracer.namespaces():
        for attr, obj in vars(ns).items():
            if inspect.isfunction(obj):
                out[(ns.__name__, attr)] = obj
    cls = package.influence.LeaveOneOutEngine
    out[("LeaveOneOutEngine", "distances_without")] = \
        vars(cls)["distances_without"]
    return out


def test_tracer_patches_every_binding_and_restores_them():
    package = importlib.import_module("recinfluence")
    importlib.import_module("recinfluence.cli")
    before = _bindings(package)
    tracer = Tracer(package)
    originals = {id(fn) for _, _, fn in tracer.targets().values()}
    with tracer:
        during = _bindings(package)
        for key, fn in before.items():
            if id(fn) in originals:
                assert during[key] is not fn, key
                assert during[key].__wrapped__ is fn, key
        # top_items is bound in recommender, influence, cli and the package
        wrapped = {during[(ns, "top_items")] for ns in (
            "recinfluence", "recinfluence.recommender",
            "recinfluence.influence", "recinfluence.cli")}
        assert len(wrapped) == 1
    after = _bindings(package)
    assert after.keys() == before.keys()
    for key, fn in before.items():
        assert after[key] is fn, key


def test_tracer_self_time_nests():
    package = importlib.import_module("recinfluence")
    importlib.import_module("recinfluence.cli")
    ds = package.RatingsDataset.build(
        ["a", "b", "c"], ["x", "y", "z"], [0, 0, 1, 1, 2, 2],
        [0, 1, 1, 2, 0, 2], [5.0, 3.0, 4.0, 2.0, 1.0, 5.0])
    with Tracer(package) as tracer:
        model = package.train_knn(ds, 1)
        package.top_items(model, 0, 2)
    names = [span[0] for span in tracer.spans]
    assert names == ["recommender.train_knn",
                     "similarity.user_similarity_matrix",
                     "recommender.top_items"]
    train, sim, _ = tracer.spans
    assert sim[1] == 0 and train[1] == -1
    assert train[4] == pytest.approx((train[3] - train[2])
                                     - (sim[3] - sim[2]))
    assert tracer.counters["similarity_pairs"] == 9


@pytest.fixture(scope="module")
def tiny_results():
    sys.path.insert(0, str(run.SRC))
    return {(kind, trace): run.run_workload(wl, 5, 0.0, trace)
            for kind, wl in TINY.items() for trace in (False, True)}


def test_printed_metric_names_match_benchmark_json(tiny_results):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for kind in TINY:
            result = tiny_results[(kind, trace)]
            assert result["correct"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted


def test_traced_counts_follow_the_workload(tiny_results):
    metrics = tiny_results[("loo", True)]["metrics"]
    wl = TINY["loo"]
    assert metrics["influence.removals"]["value"] == wl.removals
    assert metrics["influence.group_reruns"]["value"] == sum(wl.top_k)
    assert metrics["influence.lists_recomputed"]["value"] == \
        wl.removals * (wl.n_users - 1)


def test_oracle_check_catches_one_ulp(tiny_results):
    wl = TINY["loo"]
    out = ROOT / run.WORK / wl.name / "out"
    path = out / "influence.csv"
    text = path.read_text()
    header, *rows = text.splitlines()
    assert not checks.check_loo(wl, out, 5)
    try:
        for seed in range(50):  # find a seed whose sample covers row 0
            if 0 in random.Random(seed).sample(
                    range(wl.n_users), checks.ORACLE_SAMPLE):
                break
        user, value, rank = rows[0].split(",")
        bumped = repr(float(np.nextafter(float(value), np.inf)))
        path.write_text("\n".join([header, f"{user},{bumped},{rank}",
                                   *rows[1:]]) + "\n")
        assert any("oracle" in p for p in checks.check_loo(wl, out, seed))
    finally:
        path.write_text(text)


def test_memory_repetition_comes_first_and_peaks_every_stage(tiny_results):
    wl = TINY["profile"]
    stored = json.loads((ROOT / run.WORK / wl.name / "result.json")
                        .read_text())
    memory, *timed = stored["records"]
    assert memory["memory"] and not any(r["memory"] for r in timed)
    assert set(memory["stage_peak_mb"]) == {
        "ingest", "features", "fit-tree", "mds", "report"}
    assert memory["alloc_peak_mb"] == max(memory["stage_peak_mb"].values())
    metrics = tiny_results[("profile", True)]["metrics"]
    assert metrics["cli.mds.peak_mb"]["value"] == \
        memory["stage_peak_mb"]["mds"] > 0
    assert metrics["cli.influence.peak_mb"]["value"] == 0.0
