"""Seeded long-tail rating data for the benchmark workloads.

Item popularity follows Zipf(0.8) over a random item order, user activity
is lognormal(sigma=0.8) with at least two ratings per user, and a rating is
a global mean plus a per-user bias, a per-item quality and noise, rounded to
the workload's rating grid. A few heavy users and many light ones result,
so hub users exist as in real rating logs.

The rating count is exact (round(density * users * items)), the profile
sizes are the same multiset for every seed (evenly spaced lognormal
quantiles, dealt to users in seeded order) and every item gets at least one
rater. Each seed therefore asks for nearly the same amount of work; which
user rated what, and how, depends on the seed.
"""

from __future__ import annotations

import zlib
from statistics import NormalDist

import numpy as np

ZIPF_EXPONENT = 0.8
ACTIVITY_SIGMA = 0.8
MIN_PER_USER = 2


def _rng(seed: int, name: str, stream: str) -> np.random.Generator:
    return np.random.default_rng(
        [seed, zlib.crc32(name.encode()), zlib.crc32(stream.encode())])


def _user_counts(rng, n_users: int, n_items: int, total: int) -> np.ndarray:
    """Lognormal activity scaled to exactly ``total`` ratings."""
    if not MIN_PER_USER * n_users <= total <= n_users * n_items:
        raise ValueError("rating count does not fit the user x item grid")
    normal = NormalDist(0.0, ACTIVITY_SIGMA)
    weights = np.exp([normal.inv_cdf((k + 0.5) / n_users)
                      for k in range(n_users)])
    counts = np.full(n_users, MIN_PER_USER, dtype=np.int64)
    spare = total - counts.sum()
    while spare > 0:
        room = counts < n_items
        share = weights * room
        extra = np.floor(share / share.sum() * spare).astype(np.int64)
        if extra.sum() == 0:
            # hand the remainder out one by one, heaviest users first
            order = np.lexsort((np.arange(n_users), -share))
            extra[order[:spare]] = 1
        counts = np.minimum(counts + extra, n_items)
        spare = total - counts.sum()
    return rng.permutation(counts)


def generate(name: str, seed: int, n_users: int, n_items: int,
             density: float, half_stars: bool):
    """Return (user_idx, item_idx, ratings) sorted by user then item."""
    total = int(round(density * n_users * n_items))
    rng = _rng(seed, name, "ratings")
    ranks = rng.permutation(n_items) + 1
    popularity = ranks.astype(np.float64) ** -ZIPF_EXPONENT
    popularity /= popularity.sum()
    counts = _user_counts(rng, n_users, n_items, total)
    profiles = [np.sort(rng.choice(n_items, size=int(c), replace=False,
                                   p=popularity)) for c in counts]

    # Give each unrated item to the heaviest user who lacks it, in exchange
    # for that user's most popular item that has other raters.
    raters = np.bincount(np.concatenate(profiles), minlength=n_items)
    by_activity = np.lexsort((np.arange(n_users), -counts))
    for item in np.flatnonzero(raters == 0):
        for u in by_activity:
            prof = profiles[u]
            spare = prof[raters[prof] > 1]
            if len(spare):
                give = spare[np.argmax(popularity[spare])]
                profiles[u] = np.sort(np.append(prof[prof != give], item))
                raters[give] -= 1
                raters[item] += 1
                break

    user_idx = np.repeat(np.arange(n_users), [len(p) for p in profiles])
    item_idx = np.concatenate(profiles)
    bias = rng.normal(0.0, 0.5, size=n_users)
    quality = rng.normal(0.0, 0.5, size=n_items)
    raw = (3.5 + bias[user_idx] + quality[item_idx]
           + rng.normal(0.0, 0.8, size=len(item_idx)))
    if half_stars:
        ratings = np.clip(np.round(raw * 2.0) / 2.0, 0.5, 5.0)
    else:
        ratings = np.clip(np.round(raw), 1.0, 5.0)
    return user_idx, item_idx, ratings


def ratings_csv(user_idx, item_idx, ratings) -> str:
    """``user,item,rating`` lines with 1-based ids, as ``ingest`` reads."""
    lines = [f"{u + 1},{i + 1},{r:g}"
             for u, i, r in zip(user_idx.tolist(), item_idx.tolist(),
                                ratings.tolist())]
    return "\n".join(lines) + "\n"


def properties(user_idx, item_idx, ratings, n_users: int,
               n_items: int) -> dict:
    counts = np.bincount(item_idx, minlength=n_items)
    activity = np.bincount(user_idx, minlength=n_users)
    return {
        "users": int(n_users),
        "items": int(n_items),
        "ratings": int(len(ratings)),
        "density": len(ratings) / (n_users * n_items),
        "max_item_popularity": int(counts.max()),
        "max_user_activity": int(activity.max()),
        "rating_grid": sorted({float(r) for r in ratings.tolist()}),
    }


def influence_column(name: str, seed: int, n_users: int) -> np.ndarray:
    """Seeded long-tailed stand-in influence scores (Pareto, shape 1.5)."""
    return _rng(seed, name, "influence").pareto(1.5, size=n_users)
