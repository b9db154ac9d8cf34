"""Ratings ingestion and the core rating-table container.

Reads delimited rating logs into a dense-indexed, immutable dataset and
provides sampling, summary statistics and a canonical on-disk dump that
round-trips bit-exactly.

A dataset holds its ratings as one entry per rating and caches a single
n x m array, its bool ``mask``. The float64 n x m ratings are built on
demand by ``RatingsDataset.ratings`` and owned by the caller, so a kNN
audit on half-star data never holds them.
"""

from __future__ import annotations

import json
import math
import warnings
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
ITEM_SAMPLE_MODES = ("random", "popularity")


@dataclass(frozen=True, eq=False)
class RatingsDataset:
    """Immutable user x item rating table with dense contiguous indices.

    ``user_idx`` / ``item_idx`` / ``values`` hold one entry per rating,
    sorted by (user, item). ``mask`` is the one cached n x m array; the
    float64 ratings come from ``ratings()`` and are not cached. Ingestion
    guarantees every user and item index carries at least one rating;
    derived datasets (leave-one-out, train splits) may contain rating-less
    items, which downstream candidate selection treats as ineligible.
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
        """Sort triplets, freeze arrays, validate index ranges, finiteness
        and bounds."""
        user_idx = np.asarray(user_idx, dtype=np.int64)
        item_idx = np.asarray(item_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(user_idx) == len(item_idx) == len(values)):
            raise DatasetError("triplet arrays have mismatched lengths")
        if len(values) == 0:
            raise DatasetError("empty dataset")
        finite = np.isfinite(values)
        if not finite.all():
            raise DatasetError(
                f"rating {float(values[~finite][0])!r} is not finite")
        for name, idx, ids in (("user", user_idx, user_ids),
                               ("item", item_idx, item_ids)):
            if idx.min() < 0 or idx.max() >= len(ids):
                bad = idx[(idx < 0) | (idx >= len(ids))][0]
                raise DatasetError(f"{name} index {bad} out of range "
                                   f"[0, {len(ids)})")
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
    def mask(self) -> np.ndarray:
        """(n_users, n_items) bool, True where a rating exists; read-only.
        The one n x m array the dataset caches."""
        mask = np.zeros((self.n_users, self.n_items), dtype=bool)
        mask[self.user_idx, self.item_idx] = True
        mask.flags.writeable = False
        return mask

    def ratings(self) -> np.ndarray:
        """(n_users, n_items) float64 ratings, zeros where no rating exists.

        Built afresh on every call and not cached: the caller owns the
        n * m * 8 bytes and frees them. Only the readers of float64 n x m
        values call it: an NMF fit, the similarity row loop on off-grid
        ratings and the test oracles.
        """
        ratings = np.zeros((self.n_users, self.n_items))
        ratings[self.user_idx, self.item_idx] = self.values
        return ratings

    @cached_property
    def _user_ptr(self) -> np.ndarray:
        return np.searchsorted(self.user_idx, np.arange(self.n_users + 1))

    @cached_property
    def _item_order(self) -> np.ndarray:
        """Rating positions item by item, in user order within an item."""
        return np.argsort(self.item_idx, kind="stable")

    @cached_property
    def _item_ptr(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.item_counts)))

    def _item_ratings(self, items: np.ndarray):
        """(positions, slots) of the ratings of each of ``items`` (repeats
        allowed) in turn, in user order within an item; slots index items."""
        lo = self._item_ptr[items]
        sizes = self._item_ptr[items + 1] - lo
        return (self._item_order[_spans(lo, sizes)],
                np.repeat(np.arange(len(items)), sizes))

    def user_items(self, u: int) -> np.ndarray:
        """Item indices rated by user ``u`` (ascending)."""
        lo, hi = self._user_ptr[u], self._user_ptr[u + 1]
        return self.item_idx[lo:hi]

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


def _spans(lo: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions of the CSR ranges [lo, lo + sizes), one after another."""
    pos = np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    pos += np.arange(len(pos))
    return pos


def _sorted_ids(tokens) -> list[str]:
    # Integer-looking ids sort numerically so ml-style files index
    # intuitively, ties ("1", "01") by text, never by a set's hash order.
    toks = sorted(tokens)
    try:
        return sorted(toks, key=int)
    except ValueError:
        return toks


def load_ratings(path, format: str = "delimited", sep: str = ",",
                 columns: tuple[str, ...] = ("user", "item", "rating"),
                 has_header: bool = False) -> RatingsDataset:
    """Parse a delimited ratings file into a :class:`RatingsDataset`.

    ``columns`` names the field order; fields other than user/item/rating are
    ignored. Duplicate (user, item) records keep the last occurrence. The
    rating scale is the span of the ratings read. A rating whose square
    times n_users * n_items is not a finite float64 is refused.
    """
    if format not in FORMATS:
        raise DatasetError(f"unknown format {format!r}")
    preset = FORMATS[format]
    sep = preset.get("sep", sep)
    columns = preset.get("columns", columns)
    for field in ("user", "item", "rating"):
        if field not in columns:
            raise DatasetError(f"columns must include {field!r}")

    place = {name: j for j, name in enumerate(columns)}  # last one wins
    ucol, icol, rcol = place["user"], place["item"], place["rating"]
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
            user = parts[ucol].strip()
            item = parts[icol].strip()
            tok = parts[rcol].strip()
            try:
                value = float(tok)
            except ValueError:
                raise DatasetError(
                    f"{path}: line {lineno}: unparseable rating {tok!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path}: line {lineno}: non-finite rating {tok!r}")
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
    # n * m * r**2 bounds the sums of squares the models and similarity
    # kernels form over the dense matrix
    big = float(vals[np.argmax(np.abs(vals))])
    with np.errstate(over="ignore"):
        if not np.isfinite(len(user_ids) * len(item_ids) * np.square(big)):
            raise DatasetError(f"{path}: rating {big!r} is too large: n_users"
                               " * n_items * rating**2 overflows float64")
    return RatingsDataset.build(user_ids, item_ids, u_idx, i_idx, vals)


def compute_stats(ds: RatingsDataset) -> DatasetStats:
    sparsity = 1.0 - ds.n_ratings / (ds.n_users * ds.n_items)
    return DatasetStats(ds.n_users, ds.n_items, ds.n_ratings, sparsity,
                        tuple(int(c) for c in ds.user_counts),
                        tuple(int(c) for c in ds.item_counts))


def _restrict(ds: RatingsDataset, keep, users, items) -> RatingsDataset:
    """The ratings ``keep`` marks, each index renumbered to its place in
    ``users`` or ``items``: the kept axes' old indices, ascending."""
    return RatingsDataset.build(
        [ds.user_ids[u] for u in users], [ds.item_ids[i] for i in items],
        np.searchsorted(users, ds.user_idx[keep]),
        np.searchsorted(items, ds.item_idx[keep]), ds.values[keep],
        r_min=ds.r_min, r_max=ds.r_max)


def _present(idx: np.ndarray) -> np.ndarray:
    """The indices ``idx`` holds, ascending: ``np.unique(idx)`` of
    non-negative indices, without the numpy.ma import it makes."""
    return np.flatnonzero(np.bincount(idx))


def _transposed(ds: RatingsDataset) -> RatingsDataset:
    """``ds`` with its axes swapped: one user per item of ``ds``, whose
    ratings sit in the columns of that item's raters. Item similarities
    are the user similarities of this dataset."""
    return RatingsDataset.build(ds.item_ids, ds.user_ids, ds.item_idx,
                                ds.user_idx, ds.values, r_min=ds.r_min,
                                r_max=ds.r_max)


def sample_users(ds: RatingsDataset, count: int, seed: int) -> RatingsDataset:
    """Seeded uniform user subset without replacement; items re-pruned."""
    if not 1 <= count <= ds.n_users:
        raise DatasetError(
            f"sample count {count} out of range [1, {ds.n_users}]")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(ds.n_users, size=count, replace=False))
    keep = np.isin(ds.user_idx, chosen)
    return _restrict(ds, keep, chosen, _present(ds.item_idx[keep]))


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
        chosen = np.sort(np.argsort(-ds.item_counts, kind="stable")[:count])
    else:
        raise DatasetError(f"unknown item sampling mode {mode!r}")
    keep = np.isin(ds.item_idx, chosen)
    return _restrict(ds, keep, _present(ds.user_idx[keep]), chosen)


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
    return _restrict(ds, ds.user_idx != u,
                     np.delete(np.arange(ds.n_users), u),
                     np.arange(ds.n_items))


# Ratings formatted at a time when the dump is written, so ingest never
# holds the whole dump text (171 MiB at ML-1M shape, 12 MiB in blocks).
_DUMP_BLOCK = 65536


def _dump_blocks(ds: RatingsDataset):
    """The canonical dump as encoded blocks of ``_DUMP_BLOCK`` ratings, one
    line per rating in (user, item) order.

    Each line holds the user index, the item index and the ``repr`` of the
    rating, separated by tabs. The values are formatted as the Python ints
    and floats ``tolist`` gives, which print as their numpy scalars do.
    """
    for lo in range(0, ds.n_ratings, _DUMP_BLOCK):
        part = slice(lo, lo + _DUMP_BLOCK)
        yield "".join(f"{u}\t{i}\t{v!r}\n"
                      for u, i, v in zip(ds.user_idx[part].tolist(),
                                         ds.item_idx[part].tolist(),
                                         ds.values[part].tolist())).encode()


def _save_dataset(ds: RatingsDataset, tsv_path, stats: DatasetStats) -> None:
    """``save_dataset`` with the dataset's ``compute_stats``."""
    tsv_path = Path(tsv_path)
    with open(tsv_path, "wb") as fh:
        fh.writelines(_dump_blocks(ds))
    sidecar = {
        "user_ids": list(ds.user_ids),
        "item_ids": list(ds.item_ids),
        "r_min": ds.r_min,
        "r_max": ds.r_max,
        "stats": stats.to_dict(),
    }
    side_path = tsv_path.with_suffix(".json")
    side_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n",
                         encoding="utf-8")


def save_dataset(ds: RatingsDataset, tsv_path) -> Path:
    """Write the canonical 3-column dump plus its JSON sidecar."""
    _save_dataset(ds, tsv_path, compute_stats(ds))
    return Path(tsv_path)


def _dump_table(tsv_path):
    """The (ratings, 2) int64 indices and the ratings of a dump, parsed in
    one ``np.loadtxt`` call; ValueError when a row is not two integers and
    a float."""
    # an open file, not a path: given a path, loadtxt imports numpy's
    # data-source module and keeps about 70 KB alive for the process
    with open(tsv_path, "r", encoding="utf-8") as fh, \
            warnings.catch_warnings():
        # an empty dump is refused by RatingsDataset.build as empty
        warnings.filterwarnings("ignore", "loadtxt: input contained no")
        table = np.loadtxt(fh, delimiter="\t", comments=None, ndmin=2)
    if table.size == 0:
        table = table.reshape(0, 3)
    if table.shape[1] != 3:
        raise ValueError("a dump row has other than 3 fields")
    with np.errstate(invalid="ignore"):
        idx = table[:, :2].astype(np.int64)
    if np.any(idx != table[:, :2]):
        raise ValueError("a dump index is not an integer")
    return idx, table[:, 2]


def _bad_dump_line(tsv_path) -> str:
    """'line N' for the first non-empty line of a dump that is not two
    integers and a float separated by tabs."""
    with open(tsv_path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.rstrip("\r\n").split("\t")
            if parts == [""]:
                continue
            try:
                if len(parts) == 3:
                    int(parts[0]), int(parts[1]), float(parts[2])
                    continue
            except ValueError:
                pass
            return f"line {lineno}"
    return "a line"


def load_dataset(tsv_path) -> RatingsDataset:
    """Read back a canonical dump written by :func:`save_dataset`.

    A row that is not two integer indices and a rating raises
    ``DatasetError`` with its line number; empty lines are skipped. So does
    a sidecar whose ids are not lists of strings or whose bounds are not
    finite numbers. Every error, ``RatingsDataset.build``'s included, names
    the dump.
    """
    tsv_path = Path(tsv_path)
    side_path = tsv_path.with_suffix(".json")
    try:
        side = json.loads(side_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetError(f"{tsv_path}: no sidecar {side_path}; --dataset "
                           "takes a dump written by ingest") from None
    for key in ("user_ids", "item_ids", "r_min", "r_max"):
        if not isinstance(side, dict) or key not in side:
            raise DatasetError(f"{tsv_path}: sidecar {side_path} lacks {key}")
        value = side[key]
        if key.endswith("_ids"):
            ok, kind = (isinstance(value, list) and all(
                isinstance(v, str) for v in value)), "a list of strings"
        else:
            ok, kind = (isinstance(value, (int, float)) and not isinstance(
                value, bool) and math.isfinite(value)), "a finite number"
        if not ok:
            raise DatasetError(f"{tsv_path}: sidecar {side_path}: {key} is "
                               f"not {kind}")
    try:
        idx, values = _dump_table(tsv_path)
    except ValueError:
        raise DatasetError(f"{tsv_path}: {_bad_dump_line(tsv_path)}: "
                           "bad dump row") from None
    try:
        return RatingsDataset.build(side["user_ids"], side["item_ids"],
                                    idx[:, 0], idx[:, 1], values,
                                    r_min=side["r_min"], r_max=side["r_max"])
    except DatasetError as exc:
        raise DatasetError(f"{tsv_path}: {exc}") from None
