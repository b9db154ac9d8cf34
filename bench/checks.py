"""Output checks, run after the timed repetitions.

Each check returns a list of problems; an empty list means the output is
correct. Leave-one-out workloads are checked against the program's naive
retraining oracle, bit for bit, on a seeded sample of users; the profile
workload against this file's own textbook feature arithmetic on the raw
generated triplets.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from pathlib import Path

import numpy as np

from workloads import FACTORS, ITERS, K, L, Workload

ORACLE_SAMPLE = 3
FEATURE_SAMPLE = 25
BETA7_TOLERANCE = 1e-9   # textbook and program sum in different orders
THETAS = 9               # the CLI's default theta grid


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def same_digests(records: list[dict]) -> list[str]:
    """Every repetition, traced or not, must write identical artifacts."""
    first = records[0]["digests"]
    return [f"repetition {i} artifacts differ from repetition 0"
            for i, rec in enumerate(records) if rec["digests"] != first]


def _ranking(values: list[float]) -> list[int]:
    return sorted(range(len(values)), key=lambda u: (-values[u], u))


def check_loo(wl: Workload, out_dir: Path, seed: int) -> list[str]:
    from recinfluence.data import load_dataset
    from recinfluence.influence import influence_oracle
    from recinfluence.recommender import ModelConfig

    problems = []
    ds = load_dataset(out_dir / "dataset.tsv")
    header, rows = _rows(out_dir / "influence.csv")
    if header != ["user_id", "influence", "rank"] or len(rows) != wl.n_users:
        return [f"influence.csv: bad header or {len(rows)} rows"]
    if [r[0] for r in rows] != list(ds.user_ids):
        return ["influence.csv: users out of dataset order"]
    values = [float(r[1]) for r in rows]
    ranks = [int(r[2]) for r in rows]
    if any(math.isnan(v) for v in values):
        problems.append("influence.csv: failed removals")
    expected = [0] * wl.n_users
    for rank, u in enumerate(_ranking(values), start=1):
        expected[u] = rank
    if ranks != expected:
        problems.append("influence.csv: ranks disagree with the scores")

    config = ModelConfig(algorithm=wl.algo, k=K, similarity="pearson",
                         factors=FACTORS, seed=0, n_iters=ITERS)
    sample = random.Random(seed).sample(range(wl.n_users), ORACLE_SAMPLE)
    for u in sorted({*sample, ranks.index(1)}):
        oracle = influence_oracle(ds, config, u, L)
        if values[u] != oracle:
            problems.append(f"user {ds.user_ids[u]}: influence {values[u]!r}"
                            f" != oracle {oracle!r}")

    _, rows = _rows(out_dir / "group_influence.csv")
    curves: dict[int, list[float]] = {}
    for top_k, _, frac in rows:
        curves.setdefault(int(top_k), []).append(float(frac))
    if sorted(curves) != sorted(wl.top_k) or any(
            len(c) != THETAS for c in curves.values()):
        problems.append("group_influence.csv: wrong top-k sets or thetas")
    else:
        for top_k, fracs in curves.items():
            if any(not 0.0 <= f <= 1.0 for f in fracs) or \
                    fracs != sorted(fracs, reverse=True):
                problems.append(f"group curve {top_k}: not a fraction "
                                "falling with theta")
        smaller, larger = (curves[k] for k in sorted(curves))
        if any(a > b for a, b in zip(smaller, larger)):
            problems.append("group curves: larger top set reaches fewer")
    return problems


def textbook_features(user_idx, item_idx, ratings, u: int):
    """beta1, beta6 and beta7 of user ``u`` straight from the triplets."""
    raters: dict[int, int] = {}
    totals: dict[int, list[float]] = {}
    for i, r in zip(item_idx.tolist(), ratings.tolist()):
        raters[i] = raters.get(i, 0) + 1
        totals.setdefault(i, []).append(r)
    mine = [(i, r) for uu, i, r in zip(user_idx.tolist(), item_idx.tolist(),
                                       ratings.tolist()) if uu == u]
    beta1 = float(len(mine))
    beta6 = float(statistics.median(raters[i] for i, _ in mine))
    x = [r for _, r in mine]
    y = [math.fsum(totals[i]) / len(totals[i]) for i, _ in mine]
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    var_x = math.fsum((a - mx) ** 2 for a in x)
    var_y = math.fsum((b - my) ** 2 for b in y)
    denom = math.sqrt(var_x * var_y)
    beta7 = 0.0
    if denom > 1e-12:
        beta7 = max(-1.0, min(1.0, cov / denom)) * min(n, 50) / 50
    return beta1, beta6, beta7


def check_profile(wl: Workload, out_dir: Path, triplets,
                  seed: int) -> list[str]:
    user_idx, item_idx, ratings = triplets
    problems = []
    header, rows = _rows(out_dir / "features.csv")
    ids = [str(u + 1) for u in range(wl.n_users)]
    if len(header) != 9 or [r[0] for r in rows] != ids:
        return ["features.csv: bad header or user order"]
    hub = int(np.argmax(np.bincount(user_idx, minlength=wl.n_users)))
    sample = random.Random(seed).sample(range(wl.n_users), FEATURE_SAMPLE)
    for u in sorted({*sample, hub}):
        beta1, beta6, beta7 = textbook_features(user_idx, item_idx,
                                                ratings, u)
        got = [float(v) for v in rows[u][1:]]
        if got[0] != beta1 or got[5] != beta6:
            problems.append(f"user {ids[u]}: beta1/beta6 {got[0]}/{got[5]}"
                            f" != {beta1}/{beta6}")
        if not abs(got[6] - beta7) <= BETA7_TOLERANCE:
            problems.append(f"user {ids[u]}: beta7 {got[6]!r} != {beta7!r}")

    _, rows = _rows(out_dir / "embedding.csv")
    if sorted(r[0] for r in rows) != sorted(ids):
        problems.append("embedding.csv: does not embed every user")
    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    wanted = {"features", "tree", "boundaries", "embedding", "dispersion"}
    if not wanted <= set(report["stages"]):
        problems.append("report.json: missing stages")
    return problems
