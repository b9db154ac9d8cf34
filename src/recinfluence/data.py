"""Ratings ingestion and the core rating-table container.

Reads delimited rating logs into a dense-indexed, immutable dataset and
provides sampling, summary statistics and a canonical on-disk dump that
round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised for unreadable, malformed, or empty ratings input."""


# Preset formats; "delimited" takes sep/columns from the caller.
FORMATS = {
    "delimited": {},
    "csv": {"sep": ","},
    "tsv": {"sep": "\t"},
    "movielens-dat": {"sep": "::", "columns": ("user", "item", "rating", "timestamp")},
}


@dataclass(frozen=True, eq=False)
class RatingsDataset:
    """Immutable user x item rating table with dense contiguous indices.

    ``user_idx`` / ``item_idx`` / ``values`` hold one entry per rating,
    sorted by (user, item). Ingestion guarantees every user and item index
    carries at least one rating; derived datasets (leave-one-out, train
    splits) may contain rating-less items, which downstream candidate
    selection treats as ineligible.
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    user_idx: np.ndarray
    item_idx: np.ndarray
    values: np.ndarray
    r_min: float
    r_max: float

    @classmethod
    def build(cls, user_ids, item_ids, user_idx, item_idx, values,
              r_min=None, r_max=None) -> "RatingsDataset":
        """Sort triplets canonically, freeze arrays, and validate bounds."""
        user_idx = np.asarray(user_idx, dtype=np.int64)
        item_idx = np.asarray(item_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(user_idx) == len(item_idx) == len(values)):
            raise DatasetError("triplet arrays have mismatched lengths")
        if len(values) == 0:
            raise DatasetError("empty dataset")
        pairs = user_idx * (item_idx.max() + 1) + item_idx
        order = np.argsort(pairs, kind="stable")
        user_idx, item_idx, values = user_idx[order], item_idx[order], values[order]
        pairs = pairs[order]
        if np.any(pairs[1:] == pairs[:-1]):
            raise DatasetError("duplicate (user, item) rating")
        if r_min is None:
            r_min = float(values.min())
        if r_max is None:
            r_max = float(values.max())
        if values.min() < r_min or values.max() > r_max:
            raise DatasetError("rating outside declared scale bounds")
        for arr in (user_idx, item_idx, values):
            arr.flags.writeable = False
        return cls(tuple(user_ids), tuple(item_ids), user_idx, item_idx,
                   values, float(r_min), float(r_max))

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_ratings(self) -> int:
        return len(self.values)

    @cached_property
    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(ratings, mask) dense views; zeros where no rating exists."""
        ratings = np.zeros((self.n_users, self.n_items))
        mask = np.zeros((self.n_users, self.n_items), dtype=bool)
        ratings[self.user_idx, self.item_idx] = self.values
        mask[self.user_idx, self.item_idx] = True
        ratings.flags.writeable = False
        mask.flags.writeable = False
        return ratings, mask

    @cached_property
    def _user_ptr(self) -> np.ndarray:
        return np.searchsorted(self.user_idx, np.arange(self.n_users + 1))

    def user_items(self, u: int) -> np.ndarray:
        """Item indices rated by user ``u`` (ascending)."""
        lo, hi = self._user_ptr[u], self._user_ptr[u + 1]
        return self.item_idx[lo:hi]

    def user_values(self, u: int) -> np.ndarray:
        lo, hi = self._user_ptr[u], self._user_ptr[u + 1]
        return self.values[lo:hi]

    @cached_property
    def user_counts(self) -> np.ndarray:
        return np.diff(self._user_ptr)

    @cached_property
    def item_counts(self) -> np.ndarray:
        return np.bincount(self.item_idx, minlength=self.n_items)

    @cached_property
    def item_sums(self) -> np.ndarray:
        return np.bincount(self.item_idx, weights=self.values,
                           minlength=self.n_items)

    @cached_property
    def global_mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_ratings: int
    sparsity: float
    per_user_count: tuple[int, ...]
    per_item_count: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_ratings": self.n_ratings,
            "sparsity": self.sparsity,
            "per_user_count": list(self.per_user_count),
            "per_item_count": list(self.per_item_count),
        }


def _sorted_ids(tokens) -> list[str]:
    # Integer-looking ids sort numerically so ml-style files index intuitively.
    toks = list(tokens)
    try:
        return sorted(toks, key=int)
    except ValueError:
        return sorted(toks)


def load_ratings(path, format: str = "delimited", sep: str = ",",
                 columns: tuple[str, ...] = ("user", "item", "rating"),
                 has_header: bool = False, value_map: dict | None = None,
                 r_min: float | None = None,
                 r_max: float | None = None) -> RatingsDataset:
    """Parse a delimited ratings file into a :class:`RatingsDataset`.

    ``columns`` names the field order; fields other than user/item/rating are
    ignored. Duplicate (user, item) records keep the last occurrence.
    ``value_map`` translates ordinal interaction labels to numeric ratings.
    """
    if format not in FORMATS:
        raise DatasetError(f"unknown format {format!r}")
    preset = FORMATS[format]
    sep = preset.get("sep", sep)
    columns = preset.get("columns", columns)
    for field in ("user", "item", "rating"):
        if field not in columns:
            raise DatasetError(f"columns must include {field!r}")

    path = Path(path)
    records: dict[tuple[str, str], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1 and has_header:
                continue
            line = raw.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) < len(columns):
                raise DatasetError(
                    f"{path}: line {lineno}: expected {len(columns)} fields, "
                    f"got {len(parts)}")
            rec = dict(zip(columns, parts))
            user = rec["user"].strip()
            item = rec["item"].strip()
            tok = rec["rating"].strip()
            if value_map is not None:
                if tok not in value_map:
                    raise DatasetError(
                        f"{path}: line {lineno}: unmapped interaction {tok!r}")
                value = float(value_map[tok])
            else:
                try:
                    value = float(tok)
                except ValueError:
                    raise DatasetError(
                        f"{path}: line {lineno}: unparseable rating {tok!r}"
                    ) from None
            if not np.isfinite(value):
                raise DatasetError(
                    f"{path}: line {lineno}: non-finite rating {tok!r}")
            if (r_min is not None and value < r_min) or \
               (r_max is not None and value > r_max):
                raise DatasetError(
                    f"{path}: line {lineno}: rating {value} outside "
                    f"[{r_min}, {r_max}]")
            records[(user, item)] = value

    if not records:
        raise DatasetError(f"{path}: empty dataset after ingestion")

    user_ids = _sorted_ids({u for u, _ in records})
    item_ids = _sorted_ids({i for _, i in records})
    umap = {tok: idx for idx, tok in enumerate(user_ids)}
    imap = {tok: idx for idx, tok in enumerate(item_ids)}
    u_idx = np.array([umap[u] for u, _ in records], dtype=np.int64)
    i_idx = np.array([imap[i] for _, i in records], dtype=np.int64)
    vals = np.array(list(records.values()))
    return RatingsDataset.build(user_ids, item_ids, u_idx, i_idx, vals,
                                r_min=r_min, r_max=r_max)


def compute_stats(ds: RatingsDataset) -> DatasetStats:
    sparsity = 1.0 - ds.n_ratings / (ds.n_users * ds.n_items)
    return DatasetStats(ds.n_users, ds.n_items, ds.n_ratings, sparsity,
                        tuple(int(c) for c in ds.user_counts),
                        tuple(int(c) for c in ds.item_counts))


def sample_users(ds: RatingsDataset, count: int, seed: int) -> RatingsDataset:
    """Seeded uniform user subset without replacement; items re-pruned."""
    if not 1 <= count <= ds.n_users:
        raise DatasetError(
            f"sample count {count} out of range [1, {ds.n_users}]")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(ds.n_users, size=count, replace=False))
    keep = np.isin(ds.user_idx, chosen)
    new_u = np.searchsorted(chosen, ds.user_idx[keep])
    old_items = ds.item_idx[keep]
    kept_items = np.unique(old_items)
    new_i = np.searchsorted(kept_items, old_items)
    return RatingsDataset.build(
        [ds.user_ids[u] for u in chosen],
        [ds.item_ids[i] for i in kept_items],
        new_u, new_i, ds.values[keep], r_min=ds.r_min, r_max=ds.r_max)


def sample_items(ds: RatingsDataset, count: int, mode: str = "random",
                 seed: int = 0) -> RatingsDataset:
    """Item subset by seeded uniform draw or by keeping the most popular.

    ``mode="popularity"`` keeps the ``count`` items with the highest rater
    counts (ties by ascending index); ``mode="random"`` draws uniformly
    without replacement. Users left without ratings are pruned.
    """
    if not 1 <= count <= ds.n_items:
        raise DatasetError(
            f"sample count {count} out of range [1, {ds.n_items}]")
    if mode == "random":
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(ds.n_items, size=count, replace=False))
    elif mode == "popularity":
        order = np.lexsort((np.arange(ds.n_items), -ds.item_counts))
        chosen = np.sort(order[:count])
    else:
        raise DatasetError(f"unknown item sampling mode {mode!r}")
    keep = np.isin(ds.item_idx, chosen)
    new_i = np.searchsorted(chosen, ds.item_idx[keep])
    old_users = ds.user_idx[keep]
    kept_users = np.unique(old_users)
    new_u = np.searchsorted(kept_users, old_users)
    return RatingsDataset.build(
        [ds.user_ids[u] for u in kept_users],
        [ds.item_ids[i] for i in chosen],
        new_u, new_i, ds.values[keep], r_min=ds.r_min, r_max=ds.r_max)


def drop_user(ds: RatingsDataset, u: int) -> RatingsDataset:
    """Dataset with user ``u`` removed.

    The item axis is preserved so that positional indices (and the pairwise
    arithmetic over the remaining profiles) stay identical to the full
    dataset; items losing their only rater simply become empty.
    """
    if not 0 <= u < ds.n_users:
        raise DatasetError(f"user index {u} out of range")
    if ds.n_users < 2:
        raise DatasetError("cannot remove the only user")
    keep = ds.user_idx != u
    new_u = ds.user_idx[keep] - (ds.user_idx[keep] > u)
    user_ids = ds.user_ids[:u] + ds.user_ids[u + 1:]
    return RatingsDataset.build(user_ids, ds.item_ids, new_u,
                                ds.item_idx[keep], ds.values[keep],
                                r_min=ds.r_min, r_max=ds.r_max)


def _dump_text(ds: RatingsDataset) -> str:
    """The canonical dump text, one line per rating in (user, item) order.

    Each line holds the user index, the item index and the ``repr`` of the
    rating, separated by tabs.
    """
    return "".join(f"{u}\t{i}\t{repr(float(v))}\n"
                   for u, i, v in zip(ds.user_idx, ds.item_idx, ds.values))


def save_dataset(ds: RatingsDataset, tsv_path) -> Path:
    """Write the canonical 3-column dump plus its JSON sidecar."""
    tsv_path = Path(tsv_path)
    tsv_path.write_text(_dump_text(ds), encoding="utf-8")
    sidecar = {
        "user_ids": list(ds.user_ids),
        "item_ids": list(ds.item_ids),
        "r_min": ds.r_min,
        "r_max": ds.r_max,
        "stats": compute_stats(ds).to_dict(),
    }
    side_path = tsv_path.with_suffix(".json")
    side_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n",
                         encoding="utf-8")
    return tsv_path


def load_dataset(tsv_path) -> RatingsDataset:
    """Read back a canonical dump written by :func:`save_dataset`."""
    tsv_path = Path(tsv_path)
    side = json.loads(tsv_path.with_suffix(".json").read_text(encoding="utf-8"))
    u_idx, i_idx, vals = [], [], []
    with open(tsv_path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DatasetError(f"{tsv_path}: line {lineno}: bad dump row")
            u_idx.append(int(parts[0]))
            i_idx.append(int(parts[1]))
            vals.append(float(parts[2]))
    return RatingsDataset.build(side["user_ids"], side["item_ids"],
                                u_idx, i_idx, vals,
                                r_min=side["r_min"], r_max=side["r_max"])
