import numpy as np
import pytest

from recinfluence.data import RatingsDataset

# Canonical 5-user x 6-item fixture used across the hand-replayed oracles.
TOY_ROWS = [
    ("u1", "i1", 5.0), ("u1", "i2", 4.0), ("u1", "i3", 1.0),
    ("u2", "i1", 4.0), ("u2", "i2", 5.0), ("u2", "i4", 2.0),
    ("u3", "i3", 5.0), ("u3", "i4", 4.0), ("u3", "i5", 3.0),
    ("u4", "i5", 5.0), ("u4", "i6", 4.0), ("u4", "i1", 2.0),
    ("u5", "i2", 3.0), ("u5", "i3", 4.0), ("u5", "i6", 5.0),
]
TOY_USERS = ("u1", "u2", "u3", "u4", "u5")
TOY_ITEMS = ("i1", "i2", "i3", "i4", "i5", "i6")


def build_dataset(rows, users=None, items=None, r_min=None, r_max=None):
    users = users or sorted({r[0] for r in rows})
    items = items or sorted({r[1] for r in rows})
    umap = {u: j for j, u in enumerate(users)}
    imap = {i: j for j, i in enumerate(items)}
    return RatingsDataset.build(
        users, items,
        [umap[u] for u, _, _ in rows],
        [imap[i] for _, i, _ in rows],
        [float(v) for _, _, v in rows],
        r_min=r_min, r_max=r_max)


def revalued(ds, values) -> RatingsDataset:
    """``ds`` with the same ratings pattern and new rating values."""
    return RatingsDataset.build(ds.user_ids, ds.item_ids, ds.user_idx,
                                ds.item_idx, values)


def toy_dataset() -> RatingsDataset:
    return build_dataset(TOY_ROWS, TOY_USERS, TOY_ITEMS)


def random_dataset(n_users=50, n_items=100, density=0.1,
                   seed=0) -> RatingsDataset:
    """Random ratings with every user and item guaranteed >= 1 rating."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    for u in range(n_users):          # no empty users
        if not mask[u].any():
            mask[u, rng.integers(n_items)] = True
    for i in range(n_items):          # no empty items
        if not mask[:, i].any():
            mask[rng.integers(n_users), i] = True
    u_idx, i_idx = np.nonzero(mask)
    values = rng.integers(1, 6, size=len(u_idx)).astype(float)
    users = [f"u{j}" for j in range(n_users)]
    items = [f"i{j}" for j in range(n_items)]
    return RatingsDataset.build(users, items, u_idx, i_idx, values,
                                r_min=1.0, r_max=5.0)


def clone_users_dataset(n_users=5, n_items=8, seed=3) -> RatingsDataset:
    """Every user carries the identical profile."""
    rng = np.random.default_rng(seed)
    row = rng.integers(1, 6, size=n_items).astype(float)
    rows = [(f"u{u}", f"i{i:02d}", row[i])
            for u in range(n_users) for i in range(n_items)]
    return build_dataset(rows)


def mutual_disruption_dataset() -> RatingsDataset:
    """Three users whose removal each moves every other list by exactly 2/3.

    Each rates two signature items at 5, three fillers at 3, and a shared
    pair with positively correlated values (so neighbor lists are
    deterministic and every pair has positive similarity). With k=1 and
    l=4, every user's removal changes every other user's list.
    """
    rows = []
    vals = [5.0, 5.0, 3.0, 3.0, 3.0]
    shared = {"X": (1.0, 2.0), "Y": (2.0, 3.0), "Z": (3.0, 4.0)}
    for u in ("X", "Y", "Z"):
        for j, v in enumerate(vals):
            rows.append((u, f"{u.lower()}{j}", v))
        rows += [(u, "g1", shared[u][0]), (u, "g2", shared[u][1])]
    return build_dataset(rows)


def hub_dataset(n_users=50, n_items=100, hub_fraction=0.8, profile=5,
                seed=0) -> RatingsDataset:
    """One hub user rating most items among sparse small-profile users."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in rng.choice(n_items, size=int(hub_fraction * n_items),
                        replace=False):
        rows.append(("u00", f"i{i:02d}", float(rng.integers(1, 6))))
    for u in range(1, n_users):
        for i in rng.choice(n_items, size=profile, replace=False):
            rows.append((f"u{u:02d}", f"i{i:02d}", float(rng.integers(1, 6))))
    users = sorted({r[0] for r in rows})
    items = sorted({r[1] for r in rows})
    return build_dataset(rows, users=users, items=items)


@pytest.fixture
def toy():
    return toy_dataset()


def order_statistic_arrays(seed: int) -> list[np.ndarray]:
    """Seeded float arrays that tell a quantile or median rule apart from
    numpy's on ties and signed zeros: n = 1 and 2, all-equal arrays (of
    +0.0, -0.0 and a value), ±0.0 mixes, and tie-heavy quarter steps."""
    rng = np.random.default_rng(seed)
    arrays = [np.array([0.5]), np.array([-0.0]), np.array([0.0, -0.0]),
              np.array([-0.0, -0.0]), np.array([3.0, 1.25]),
              np.full(7, -0.0), np.full(6, 0.0), np.full(5, 0.75)]
    for n in rng.integers(1, 40, size=30):
        values = rng.integers(-3, 4, size=n) * 0.25
        zeros = values == 0
        values[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        arrays.append(values)
    arrays += [rng.random(n) for n in (3, 10, 101)]
    return arrays
