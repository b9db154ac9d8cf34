"""Reference implementations used to check the package.

Most of what is here is written in the most literal way possible (per-pair
loops, textbook formulas) and deliberately shares no code with the package
under test. The one-user definitions at the end (features beta1..beta7,
beta8 under item Pearson, ``recommend`` and ``prediction_shift_oracle``)
are the exceptions: they are the package's former public functions and
branches, built on its kernels and retrain route, and its whole-array
passes must match them bit for bit.
``load_model``, last, reads back the model dump that ``train`` writes and
no stage reads.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from recinfluence import features
from recinfluence.data import RatingsDataset, drop_user
from recinfluence.recommender import (KnnModel, ModelConfig, NmfModel,
                                      top_items)
from recinfluence.similarity import (_distances, _similarity_loop,
                                     user_distance_matrix,
                                     user_similarity_matrix)


def corated(ds, u, v):
    iu = set(ds.user_items(u).tolist())
    iv = set(ds.user_items(v).tolist())
    return sorted(iu & iv)


def pearson_pair(ds, u, v, shrink=50):
    """Two-pass centered Pearson over co-rated items, shrunk by support."""
    common = corated(ds, u, v)
    if len(common) == 0:
        return 0.0
    ratings = ds.ratings()
    x = np.array([ratings[u, i] for i in common])
    y = np.array([ratings[v, i] for i in common])
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt(np.sum(xd * xd)) * np.sqrt(np.sum(yd * yd))
    if denom <= 1e-12:
        return 0.0
    rho = float(np.sum(xd * yd) / denom)
    rho = max(-1.0, min(1.0, rho))
    if shrink:
        rho *= min(len(common), shrink) / shrink
    return rho


def cosine_pair(ds, u, v):
    ratings, mask = ds.ratings(), ds.mask
    num = sum(ratings[u, i] * ratings[v, i] for i in corated(ds, u, v))
    nu = np.sqrt(sum(ratings[u, i] ** 2 for i in ds.user_items(u)))
    nv = np.sqrt(sum(ratings[v, i] ** 2 for i in ds.user_items(v)))
    if nu == 0 or nv == 0:
        return 0.0
    return max(-1.0, min(1.0, float(num / (nu * nv))))


def pair_similarity(ds, u, v, kind="pearson"):
    return pearson_pair(ds, u, v) if kind == "pearson" else cosine_pair(ds, u, v)


def neighbor_list(ds, u, k, kind="pearson"):
    """Top-k other users by similarity desc, index asc on equal computed
    values.

    Its Pearson arithmetic (two-pass centered sums) is not ``train_knn``'s,
    so two similarities that are equal mathematically can differ in their
    last bits here or there and rank the other way round: on
    ``random_dataset(20, 40, 0.25, seed=300)`` with Pearson and k = 1,
    user 8 gets [11] here and [4] from ``train_knn``. Compare neighbor
    lists with it only on data without such ties."""
    sims = [(-pair_similarity(ds, u, v, kind), v)
            for v in range(ds.n_users) if v != u]
    sims.sort()
    k_eff = min(k, ds.n_users - 1)
    return [v for _, v in sims[:k_eff]]


def item_mean(ds, i):
    ratings, mask = ds.ratings(), ds.mask
    raters = np.nonzero(mask[:, i])[0]
    if len(raters) == 0:
        return float(ds.values.mean())
    return float(np.mean([ratings[v, i] for v in raters]))


def knn_predict(ds, u, i, k, kind="pearson"):
    """Literal weighted-average prediction with the documented fallbacks."""
    ratings, mask = ds.ratings(), ds.mask
    nbrs = neighbor_list(ds, u, k, kind)
    raters = [v for v in nbrs if mask[v, i]]
    denom = sum(abs(pair_similarity(ds, u, v, kind)) for v in raters)
    if not raters or denom == 0.0:
        return item_mean(ds, i)
    num = sum(pair_similarity(ds, u, v, kind) * ratings[v, i] for v in raters)
    return num / denom


def dense_blend(ratings, mask, nbrs, sims, means, out):
    """The kNN blend as a dense loop over neighbor rank: each rank adds its
    neighbors' whole (masked) rating rows and |sim| weights to (rows, m)
    sums, then the sums divide and unweighted entries take ``means``. The
    package's scatter over rated triples must match it bit for bit."""
    out[...] = 0.0
    asum = np.zeros_like(out)
    term = np.empty_like(out)
    rated = np.empty(out.shape, dtype=bool)
    for j in range(nbrs.shape[1]):
        # mode="clip" lets take write into its out array unbuffered; the
        # indices are in range
        mask.take(nbrs[:, j], axis=0, out=rated, mode="clip")
        ratings.take(nbrs[:, j], axis=0, out=term, mode="clip")
        term *= sims[:, j, None]
        term *= rated
        out += term
        np.multiply(np.abs(sims[:, j, None]), rated, out=term)
        asum += term
    with np.errstate(invalid="ignore", divide="ignore"):
        out /= asum
    np.copyto(out, means, where=~(asum > 0))


def top_l(scores_by_item, rated, eligible, l):
    """Top-l eligible unrated items: score desc, index asc."""
    cands = [i for i in sorted(scores_by_item)
             if i not in rated and i in eligible]
    cands.sort(key=lambda i: (-scores_by_item[i], i))
    return cands[:l]


def knn_top_l(ds, u, k, l, kind="pearson"):
    mask = ds.mask
    rated = set(ds.user_items(u).tolist())
    eligible = {i for i in range(ds.n_items) if ds.item_counts[i] > 0}
    scores = {i: knn_predict(ds, u, i, k, kind)
              for i in range(ds.n_items)}
    return top_l(scores, rated, eligible, l)


def jaccard_dist(a, b):
    a, b = set(a), set(b)
    if not a and not b:
        return 0.0
    return 1.0 - len(a & b) / len(a | b)


def drop_user_keep_items(ds, u):
    """Reduced dataset replay: remove u's rows, keep the item axis."""
    keep = ds.user_idx != u
    new_u = ds.user_idx[keep] - (ds.user_idx[keep] > u)
    users = [x for j, x in enumerate(ds.user_ids) if j != u]
    return RatingsDataset.build(users, ds.item_ids, new_u,
                                ds.item_idx[keep], ds.values[keep],
                                r_min=ds.r_min, r_max=ds.r_max)


def knn_loo_influence(ds, u, k, l, kind="pearson"):
    """Full leave-one-out replay of the neighborhood influence number."""
    reduced = drop_user_keep_items(ds, u)
    total = 0.0
    for v in range(ds.n_users):
        if v == u:
            continue
        v_red = v if v < u else v - 1
        before = knn_top_l(ds, v, k, l, kind)
        after = knn_top_l(reduced, v_red, k, l, kind)
        total += jaccard_dist(before, after)
    return total


def nmf_objective(m, w, pq):
    resid = w * (m - pq)
    return float(np.sum(resid * resid))


def nmf_iterate(m, w, p, q, n_iters, rel_tol, history):
    """Literal multiplicative updates: ``w * m`` formed explicitly and a
    fresh array for every product and residual. Same update order, epsilon
    and stopping rules as the package, so its lean loop must match this
    bit for bit. A rising objective raises RuntimeError with the package's
    message."""
    wm = w * m
    pq = p @ q.T
    for _ in range(n_iters):
        p = p * ((wm @ q) / ((w * pq) @ q + 1e-12))
        pq = p @ q.T
        q = q * ((wm.T @ p) / ((w * pq).T @ p + 1e-12))
        pq = p @ q.T
        obj = nmf_objective(m, w, pq)
        prev = history[-1]
        if obj > prev + 1e-9:
            raise RuntimeError(f"objective increased from {prev} to {obj}")
        history.append(obj)
        if rel_tol and prev > 0 and (prev - obj) / prev < rel_tol:
            break
    return p, q


def nmf_fit(ds, p, q, n_iters, rel_tol, masked=True):
    """(p, q, objective history) of ``nmf_iterate`` from the given start."""
    ratings, mask = ds.ratings(), ds.mask
    w = mask.astype(np.float64) if masked else np.ones_like(ratings)
    history = [nmf_objective(ratings, w, p @ q.T)]
    p, q = nmf_iterate(ratings, w, p, q, n_iters, rel_tol, history)
    return p, q, tuple(history)


def nmf_start(ds, factors, seed):
    """The seeded starting factors ``train_nmf`` documents."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(ds.global_mean / factors)
    p = rng.random((ds.n_users, factors)) * scale
    q = rng.random((ds.n_items, factors)) * scale
    return p, q


def exhaustive_tree(x, y, max_depth, min_samples_leaf):
    """Plain recursive CART with exhaustive midpoint split search.

    Returns nested dicts mirroring the package's node layout.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def grow(idx, depth):
        yy = y[idx]
        node = {"value": float(yy.mean()), "n": len(idx),
                "mse": float(np.mean((yy - yy.mean()) ** 2))}
        if depth >= max_depth or len(idx) < 2 * min_samples_leaf \
                or node["mse"] == 0.0:
            return node
        # same tie margin as the implementation under test: improvements
        # below noise level keep the earliest (feature, threshold)
        tol = 1e-12 * max(1.0, node["n"] * node["mse"])
        best = None
        for feature in range(x.shape[1]):
            vals = sorted(set(x[idx, feature].tolist()))
            for a, b in zip(vals, vals[1:]):
                thr = (a + b) / 2.0
                left = idx[x[idx, feature] < thr]
                right = idx[x[idx, feature] >= thr]
                if len(left) < min_samples_leaf or \
                        len(right) < min_samples_leaf:
                    continue
                cost = len(left) * np.var(y[left]) + \
                    len(right) * np.var(y[right])
                if best is None or cost < best[0] - tol:
                    best = (cost, feature, thr, left, right)
        if best is None:
            return node
        cost, feature, thr, left, right = best
        if node["n"] * node["mse"] - cost <= 0:
            return node
        node["feature"] = feature
        node["threshold"] = thr
        node["left"] = grow(left, depth + 1)
        node["right"] = grow(right, depth + 1)
        return node

    return grow(np.arange(len(y)), 0)


def tree_structures_match(package_node, oracle_node, tol=1e-9):
    if ("feature" in oracle_node) != (not package_node.is_leaf):
        return False
    if abs(package_node.value - oracle_node["value"]) > tol:
        return False
    if package_node.is_leaf:
        return True
    if package_node.feature != oracle_node["feature"]:
        return False
    if abs(package_node.threshold - oracle_node["threshold"]) > tol:
        return False
    return (tree_structures_match(package_node.left, oracle_node["left"], tol)
            and tree_structures_match(package_node.right,
                                      oracle_node["right"], tol))


def restricted(ds, triples, users, items):
    """The fields of a dataset cut to ``triples`` (old user, old item,
    value), with the kept user and item axes ``users`` and ``items`` (old
    indices in their new order), each index renumbered by a dict lookup and
    the triples sorted by (user, item)."""
    umap = {u: j for j, u in enumerate(users)}
    imap = {i: j for j, i in enumerate(items)}
    rows = sorted((umap[u], imap[i], v) for u, i, v in triples)
    return {"user_ids": tuple(ds.user_ids[u] for u in users),
            "item_ids": tuple(ds.item_ids[i] for i in items),
            "user_idx": [u for u, _, _ in rows],
            "item_idx": [i for _, i, _ in rows],
            "values": [v for _, _, v in rows],
            "r_min": ds.r_min, "r_max": ds.r_max}


def rating_triples(ds):
    return list(zip(ds.user_idx.tolist(), ds.item_idx.tolist(),
                    ds.values.tolist()))


def drop_user_fields(ds, u):
    """``drop_user``: u's ratings go, every other user keeps its order and
    every item stays, rated or not."""
    triples = [t for t in rating_triples(ds) if t[0] != u]
    return restricted(ds, triples, [v for v in range(ds.n_users) if v != u],
                      list(range(ds.n_items)))


def sample_users_fields(ds, count, seed):
    """``sample_users``: the seeded draw of users, and the items they rated."""
    chosen = sorted(np.random.default_rng(seed).choice(
        ds.n_users, size=count, replace=False).tolist())
    triples = [t for t in rating_triples(ds) if t[0] in chosen]
    return restricted(ds, triples, chosen, sorted({i for _, i, _ in triples}))


def sample_items_fields(ds, count, mode, seed):
    """``sample_items``: the seeded draw or the ``count`` items with most
    raters (lower index first on ties), and the users who rated them."""
    if mode == "random":
        chosen = sorted(np.random.default_rng(seed).choice(
            ds.n_items, size=count, replace=False).tolist())
    else:
        raters = [0] * ds.n_items
        for _, i, _ in rating_triples(ds):
            raters[i] += 1
        chosen = sorted(sorted(range(ds.n_items),
                               key=lambda i: (-raters[i], i))[:count])
    triples = [t for t in rating_triples(ds) if t[1] in chosen]
    return restricted(ds, triples, sorted({u for u, _, _ in triples}),
                      chosen)


def train_test_split_fields(ds, test_fraction, seed):
    """``train_test_split``: per user in order, the seeded permutation's
    first floor(fraction * count) profile positions are held out. Returns
    (train fields, {user: {item: rating}})."""
    rng = np.random.default_rng(seed)
    held, test = set(), {}
    for u in range(ds.n_users):
        profile = [(i, v) for w, i, v in rating_triples(ds) if w == u]
        n_test = int(np.floor(test_fraction * len(profile)))
        if n_test == 0:
            continue
        perm = rng.permutation(len(profile))
        test[u] = {profile[j][0]: profile[j][1] for j in perm[:n_test]}
        held |= {(u, profile[j][0]) for j in perm[:n_test]}
    triples = [t for t in rating_triples(ds) if t[:2] not in held]
    return (restricted(ds, triples, list(range(ds.n_users)),
                       list(range(ds.n_items))), test)


def neighbor_order_lexsort(sim_matrix, depth):
    """``recommender._neighbor_order`` as a two-key lexsort: similarity
    descending, then user index ascending, each row's own index dropped."""
    n = len(sim_matrix)
    idx = np.arange(n)
    order = np.lexsort((np.broadcast_to(idx, (n, n)), -sim_matrix), axis=-1)
    return np.array([[v for v in row if v != u][:depth]
                     for u, row in enumerate(order.tolist())],
                    dtype=np.int64).reshape(n, min(depth, n - 1))


def item_cosine_distances(ds, items):
    """``similarity.item_distance_submatrix`` with item cosine, written out:
    one column product, divided by the outer product of the column norms
    where that is positive (else 0), clipped to [-1, 1], taken from 1, with
    a zero diagonal. The kernel must match it bit for bit."""
    ratings = ds.ratings()
    cols = ratings[:, items]
    norms = np.sqrt(np.sum(cols * cols, axis=0))
    denom = np.outer(norms, norms)
    num = cols.T @ cols
    sims = np.zeros(num.shape)
    ok = denom > 0
    sims[ok] = num[ok] / denom[ok]
    np.clip(sims, -1.0, 1.0, out=sims)
    dist = 1.0 - sims
    np.fill_diagonal(dist, 0.0)
    return dist


def pairwise_euclidean(coords):
    """(n, n) distances, each column's squared differences summed in order
    into one fresh buffer: the MDS distance step as first written."""
    total = np.zeros((coords.shape[0],) * 2)
    for col in coords.T:
        diff = col[:, None] - col[None, :]
        diff *= diff
        total += diff
    return np.sqrt(total, out=total)


def stress_of(coords, dist):
    """Normalized residual stress, with fresh temporaries throughout."""
    d_hat = pairwise_euclidean(coords)
    denom = float(np.sum(dist * dist))
    if denom == 0.0:
        return 0.0
    return float(np.sum((d_hat - dist) ** 2) / denom)


def smacof_refine(coords, dist, n_iters=200):
    """Guttman-transform steps, each forming its ratios and B matrix in
    fresh (n, n) arrays."""
    n = dist.shape[0]
    x = np.array(coords, dtype=np.float64)
    for _ in range(n_iters):
        d_hat = pairwise_euclidean(x)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(d_hat > 0, dist / d_hat, 0.0)
        bmat = -ratio
        bmat[np.arange(n), np.arange(n)] = ratio.sum(axis=1)
        x = bmat @ x / n
    return x - x.mean(axis=0)


def centered_squares(dist):
    """The doubly centered squared distances of classical MDS, in the one
    line first written: -0.5 * j @ (dist * dist) @ j with fresh temporaries,
    j = eye - 1/n."""
    n = dist.shape[0]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    return -0.5 * j @ (dist * dist) @ j


def user_values(ds: RatingsDataset, u: int) -> np.ndarray:
    """u's ratings, in the order of ``ds.user_items(u)``."""
    lo, hi = ds._user_ptr[u], ds._user_ptr[u + 1]
    return ds.values[lo:hi]


def profile_size(ds: RatingsDataset, u: int) -> int:
    """beta1: number of items rated by u."""
    return int(ds.user_counts[u])


def centrality(ds: RatingsDataset, u: int, similarity: str = "pearson",
               sim_matrix: np.ndarray | None = None) -> float:
    """beta2: mean similarity of u to every other user."""
    if sim_matrix is None:
        sim_matrix = user_similarity_matrix(ds, kind=similarity)
    row = np.delete(sim_matrix[u], u)
    return float(row.mean()) if len(row) else 0.0


def neighborhood_membership(model: KnnModel, u: int) -> int:
    """beta3: how many other users carry u in their neighbor list."""
    others = np.delete(model.neighbors, u, axis=0)
    return int(np.count_nonzero(others == u))


def neighborhood_density(ds: RatingsDataset, u: int, epsilon: float,
                         distance: str = "cosine",
                         dist_matrix: np.ndarray | None = None) -> int:
    """beta4: count of other users strictly within distance epsilon of u."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if dist_matrix is None:
        dist_matrix = user_distance_matrix(ds, kind=distance)
    row = np.delete(dist_matrix[u], u)
    return int(np.count_nonzero(row < epsilon))


def recommendation_overlap(ds: RatingsDataset, u: int, lists) -> float:
    """beta5: mean Jaccard similarity of u's profile to others' lists."""
    profile = set(int(i) for i in ds.user_items(u))
    sims = []
    for v, items in enumerate(lists):
        if v == u:
            continue
        other = set(int(i) for i in items)
        union = profile | other
        sims.append(len(profile & other) / len(union) if union else 0.0)
    return float(np.mean(sims)) if sims else 0.0


def median_item_popularity(ds: RatingsDataset, u: int) -> float:
    """beta6: median rater count over u's items (even count: middle mean)."""
    pops = ds.item_counts[ds.user_items(u)]
    return float(np.median(pops))


def centroid_similarity(ds: RatingsDataset, u: int,
                        similarity: str = "pearson") -> float:
    """beta7: similarity of u's ratings to per-item mean ratings.

    Scored over u's rated items by the routine user similarities use
    (Pearson shrink included); degenerate variance scores 0.
    """
    items = ds.user_items(u)
    x = user_values(ds, u)
    y = ds.item_sums[items] / ds.item_counts[items]
    observed = np.ones((1, len(x)), dtype=bool)
    return float(_similarity_loop(similarity, x[None, :], observed,
                                  y[None, :], observed)[0, 0])


def item_pearson_distances(ds: RatingsDataset, items) -> np.ndarray:
    """Pairwise item Pearson distances between the rating columns of
    ``items`` (repeats allowed), gathered from the raters of those items
    alone: the row loop on the columns, so a pair's value is the one
    ``similarity._similarity_rows`` gives it on ``data._transposed``."""
    pos, slot = ds._item_ratings(items)
    cols = np.zeros((ds.n_users, len(items)), order="F")
    where = (ds.user_idx[pos], slot)
    cols[where] = ds.values[pos]
    observed = np.zeros(cols.shape, dtype=bool, order="F")
    observed[where] = True
    return _distances(_similarity_loop("pearson", cols.T, observed.T, cols.T,
                                       observed.T, shrink=None))


def intra_profile_distance(ds: RatingsDataset, u: int,
                           item_distance: str = "cosine") -> float:
    """beta8: mean pairwise item distance over u's rated items, < 2 items
    giving 0; the package's ``features.intra_profile_distance`` under item
    cosine, ``item_pearson_distances`` under item Pearson."""
    if item_distance == "cosine":
        return features.intra_profile_distance(ds, u)
    if item_distance != "pearson":
        raise ValueError(f"unknown similarity {item_distance!r}")
    items = ds.user_items(u)
    t = len(items)
    if t < 2:
        return 0.0
    dist = item_pearson_distances(ds, items)
    return float(np.mean(dist[np.triu_indices(t, k=1)]))


@dataclass(frozen=True)
class RecommendationList:
    user: int
    items: tuple[int, ...]
    scores: tuple[float, ...]


def recommend(model, u, l):
    """``top_items`` with each item's score."""
    items = top_items(model, u, l)
    return RecommendationList(u, tuple(items.tolist()),
                              tuple(model.scores_for(u)[items].tolist()))


def prediction_shift_oracle(ds: RatingsDataset, config: ModelConfig,
                            u: int) -> float:
    """Mean absolute change in predicted scores caused by removing ``u``.

    Averages |score(with u) - score(without u)| over every other user and
    every item outside that user's profile. This is the score-level
    baseline that list-level influence deliberately ignores: shifts on
    items that never crack a top-l list move this number but not
    list influence.
    """
    full_model = config.train(ds)
    reduced_model = config.train(drop_user(ds, u))
    mask = ds.mask
    total = 0.0
    count = 0
    for v_red in range(ds.n_users - 1):
        v = v_red if v_red < u else v_red + 1
        unrated = ~mask[v]
        before = full_model.scores_for(v)[unrated]
        after = reduced_model.scores_for(v_red)[unrated]
        total += float(np.sum(np.abs(before - after)))
        count += int(np.count_nonzero(unrated))
    return total / count if count else 0.0


def load_model(base_path, ds: RatingsDataset):
    """Rebuild a model dumped by ``artifacts.save_model`` against its
    training dataset ``ds``, which the caller vouches for: the dump's
    round-trip check."""
    base = Path(base_path)
    header = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    rows: dict[str, list[list[str]]] = {}
    for line in base.with_suffix(".tsv").read_text(encoding="utf-8").split("\n"):
        if line:
            tag, *rest = line.split("\t")
            rows.setdefault(tag, []).append(rest)
    if header["algorithm"] == "knn":
        k_eff = len(rows.get("N", [])) // ds.n_users if ds.n_users else 0
        neighbors = np.zeros((ds.n_users, k_eff), dtype=np.int64)
        sims = np.zeros((ds.n_users, k_eff))
        position = np.zeros(ds.n_users, dtype=np.int64)
        for u_s, v_s, s_s in rows.get("N", []):
            u = int(u_s)
            neighbors[u, position[u]] = int(v_s)
            sims[u, position[u]] = float(s_s)
            position[u] += 1
        item_means = np.zeros(ds.n_items)
        for i_s, m_s in rows.get("M", []):
            item_means[int(i_s)] = float(m_s)
        global_mean = float(rows["G"][0][0])
        for arr in (neighbors, sims, item_means):
            arr.flags.writeable = False
        return KnnModel(ds, header["k"], header["similarity"], neighbors,
                        sims, item_means, global_mean)
    if header["algorithm"] == "nmf":
        p = np.array([[float(v) for v in rest[1:]] for rest in rows["P"]])
        q = np.array([[float(v) for v in rest[1:]] for rest in rows["Q"]])
        p.flags.writeable = False
        q.flags.writeable = False
        history = tuple(float(rest[1]) for rest in rows["H"])
        return NmfModel(ds, header["factors"], header["seed"],
                        header["n_iters"], header["masked"], p, q, history)
    raise ValueError(f"{base}: unknown algorithm {header['algorithm']!r}")
