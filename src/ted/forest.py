"""Random forest for binary pain/neutral frame classification.

Built from scratch so that training is fully deterministic for a given seed:
axis-aligned Gini splits over a random feature subset per node, bootstrap
sampling per tree, and per-tree majority votes aggregated into a
positive-class confidence. Rows with equal features and label always travel
together, so `fit` groups them once and each bootstrap becomes an integer
weight per group; split costs use the same integers and float expressions as
a per-row search, so the trees do not depend on the grouping.

All trees grow together, one level per step, breadth first. The frontier
holds a level's nodes of every tree as arrays: their groups, concatenated node
after node, and each node's tree, group count, rows and pain rows. A step
marks the leaves, lets each tree draw the candidate features of all its
searched nodes with one `permuted` call over that many rows of
0..n_features-1 (the same draws, row after row, as one `permutation` call per
node in breadth-first order), and searches all those nodes with one segmented
sort, in batches of at most ENTRY_BUDGET (node, candidate, group) entries.
Each node's cuts keep their own order within a batch, so the budget changes
no tree, and the sort's partition of each node's groups is the next frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ComputeError, ConfigError


class Tree(NamedTuple):
    """One fitted tree as parallel node arrays in breadth-first order (node 0 is
    the root, and the children of the j-th inner node are 2j + 1 and 2j + 2).

    A row at inner node i goes to `left[i]` when `row[feature[i]] < threshold[i]`
    and to `right[i]` otherwise. Leaves have feature, left and right -1 and
    threshold 0. `counts[i]` is the (neutral, pain) bootstrap rows reaching i.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray


# (candidate, node, group) entries one batched split search may hold, unless
# a single node needs more: it bounds the memory of a search
ENTRY_BUDGET = 1 << 12


def _group_rows(table):
    """Rank codes, first rows and group ids of the distinct rows of `table`.

    Returns (codes, first, group): `codes[j]` ranks the values of column j (0
    for the lowest), and row i is in group `group[i]`, whose first row is
    `first[group[i]]`. The groups are numbered in lexicographic row order, as
    `np.unique(table, axis=0)` numbers them. The key is re-ranked after each
    column, so it stays below the row count and cannot overflow.
    """
    codes = np.array([np.unique(col, return_inverse=True)[1].reshape(-1) for col in table.T])
    codes = codes.reshape(table.shape[1], len(table))
    key = np.zeros(len(table), dtype=np.int64)
    for col in codes:
        key = np.unique(key * (col.max(initial=0) + 1) + col, return_inverse=True)[1].reshape(-1)
    return codes, np.unique(key, return_index=True)[1], key


def _weighted_gini(n, pos):
    p1 = pos / n
    return n * (1.0 - p1**2 - (1.0 - p1) ** 2)


def _split_batch(
    members, sizes, tree, node_n, node_pos, candidates,
    codes, n_codes, values, labels, weights, min_leaf,
):
    """Best cut of each of k nodes of one level, searched for all at once.

    Node i holds the next `sizes[i]` groups of `members` and `node_n[i]`
    bootstrap rows of tree `tree[i]`, `node_pos[i]` of them pain; its
    candidate features are `candidates[i]`. Returns each node's feature and
    threshold, -1 and 0 where no cut leaves at least `min_leaf` rows on each
    side, and the children of the nodes that split, left then right, as
    (groups, group counts, tree, rows, pain rows). Ties keep the first
    candidate, then the lowest cut.
    """
    k = sizes.size
    member_node = np.repeat(np.arange(k), sizes)
    # (rows, pain rows) of each member group in its tree's bootstrap
    w_rows = weights[np.repeat(tree, sizes), members]
    w_pain = w_rows * labels[members]
    # entries in (candidate, node, group) order, then sorted by code within each
    # (candidate, node) segment, so each node's cuts keep (candidate, code) order
    seg = (np.arange(candidates.shape[1])[:, None] * k + member_node).reshape(-1)
    key = seg * n_codes + codes[np.repeat(candidates.T, sizes, axis=1), members].reshape(-1)
    order = np.argsort(key, kind="stable")
    key, at = key[order], order % members.size  # at: the member of each sorted entry
    # cuts only between distinct consecutive codes of one segment
    cut = np.nonzero((key[1:] > key[:-1]) & (seg[1:] == seg[:-1]))[0]
    cut_node = seg[cut] % k
    first = np.cumsum(sizes) - sizes  # each node's first member
    start = seg[cut] // k * members.size + first[cut_node]  # each cut's segment start

    def left_of(w):  # the weight left of each cut: a running sum less its segment's start
        cum = np.concatenate(([0], np.cumsum(w[at])))
        return cum[cut + 1] - cum[start]

    n_left, pos_left = left_of(w_rows), left_of(w_pain)
    n, pos = node_n[cut_node], node_pos[cut_node]
    cost = (_weighted_gini(n_left, pos_left) + _weighted_gini(n - n_left, pos - pos_left)) / n
    # each node's lowest cost, and the first of its cuts in (candidate, code)
    # order that has it
    low = np.full(k, np.inf)
    np.minimum.at(low, cut_node, cost)
    lowest = np.flatnonzero(cost == low[cut_node])
    pick = np.full(k, cut.size)
    np.minimum.at(pick, cut_node[lowest], lowest)
    split = np.flatnonzero(pick < cut.size)
    best = cut[pick[split]]
    # partition the groups of every node at once, left ones first (no value is
    # below -inf, so a node without a cut sends all right)
    feature = np.zeros(k, dtype=np.intp)
    threshold = np.full(k, -np.inf)
    feature[split] = candidates[split, seg[best] // k]
    below, above = members[at[best]], members[at[best + 1]]
    threshold[split] = (values[below, feature[split]] + values[above, feature[split]]) / 2.0
    go_left = values[members, np.repeat(feature, sizes)] < np.repeat(threshold, sizes)
    n_go, rows, pain = np.add.reduceat(
        np.column_stack((go_left, w_rows * go_left, w_pain * go_left)), first
    ).T
    # a node without a cut has no rows on its left, so it fails this too
    valid = (min_leaf <= rows) & (rows <= node_n - min_leaf)

    def pairs(left, whole):  # (left, right) of each node that splits, interleaved
        return np.column_stack((left, whole - left))[valid].reshape(-1)

    members = members[np.argsort(2 * member_node + ~go_left, kind="stable")]
    children = (
        members[np.repeat(valid, sizes)], pairs(n_go, sizes), np.repeat(tree[valid], 2),
        pairs(rows, node_n), pairs(pain, node_pos),
    )
    return np.where(valid, feature, -1), np.where(valid, threshold, 0.0), children


def _grow_forest(codes, values, labels, weights, rngs, hp, n_subset) -> list[Tree]:
    """Grow every tree breadth first, all trees one level per step, as the
    module docstring describes."""
    n_trees, n_features = len(rngs), codes.shape[0]
    n_codes = int(codes.max(initial=0)) + 1
    # without features no node can split
    max_depth = 0 if not n_features else np.inf if hp.max_depth is None else hp.max_depth
    min_leaf = hp.min_samples_leaf
    # the frontier: each node's groups, after those of the node before it, and
    # per node its tree, group count, rows and pain rows; nodes in tree order
    drawn = weights > 0
    members = np.broadcast_to(np.arange(weights.shape[1], dtype=np.int32), weights.shape)[drawn]
    sizes, tree = drawn.sum(axis=1), np.arange(n_trees)
    n, pos = weights.sum(axis=1, dtype=np.int64), weights @ labels
    # per tree, per level: (feature, threshold, counts) of its nodes
    parts: list[list] = [[] for _ in rngs]
    depth = 0
    while True:
        searched = (0 < pos) & (pos < n) & (n >= 2 * min_leaf) & (depth < max_depth)
        members = members[np.repeat(searched, sizes)]
        todo = np.flatnonzero(searched)
        per_tree = np.bincount(tree[todo], minlength=n_trees).tolist()
        deck = np.tile(np.arange(n_features), (max(per_tree), 1))
        draws = [rng.permuted(deck[:k], axis=1) for rng, k in zip(rngs, per_tree) if k]
        candidates = np.concatenate(draws)[:, :n_subset] if draws else None
        feature, threshold = np.full(tree.size, -1), np.zeros(tree.size)
        # each batch is the longest run of searched nodes within the budget, at
        # least one; offsets[i]: the groups of the first i searched nodes
        offsets = np.concatenate(([0], np.cumsum(sizes[todo])))
        entries = offsets * min(n_subset, n_features)
        children = []
        stop = 0
        while stop < todo.size:
            start = stop
            cut = np.searchsorted(entries, entries[start] + ENTRY_BUDGET, side="right") - 1
            stop = max(start + 1, int(cut))
            nodes = todo[start:stop]
            feature[nodes], threshold[nodes], kids = _split_batch(
                members[offsets[start] : offsets[stop]], sizes[nodes], tree[nodes],
                n[nodes], pos[nodes], candidates[start:stop],
                codes, n_codes, values, labels, weights, min_leaf,
            )
            children.append(kids)
        records = (feature, threshold, np.column_stack((n - pos, pos)))
        bounds = np.searchsorted(tree, np.arange(n_trees + 1)).tolist()
        for t, lo, hi in zip(range(n_trees), bounds, bounds[1:]):
            if lo < hi:  # copies: a view would keep the whole level alive
                parts[t].append([a[lo:hi].copy() for a in records])
        if not children:  # no node was searched: every tree is done
            break
        members, sizes, tree, n, pos = map(np.concatenate, zip(*children))
        depth += 1
    trees = []
    for t in range(n_trees):
        feature, threshold, counts = map(np.concatenate, zip(*parts[t]))
        parts[t] = None
        inner = feature >= 0
        left = np.where(inner, 2 * np.cumsum(inner) - 1, -1)
        trees.append(Tree(feature, threshold, left, np.where(inner, left + 1, -1), counts))
    return trees


@dataclass
class ForestHyperparams:
    n_trees: int = 100
    max_depth: Optional[int] = None
    min_samples_leaf: int = 1
    stratified_bootstrap: bool = False

    def __post_init__(self):
        for name, low in (("n_trees", 1), ("max_depth", 0), ("min_samples_leaf", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")


class RandomForest:
    """Bagged Gini decision trees with deterministic seeded training."""

    def __init__(self, hyperparams: Optional[ForestHyperparams] = None, seed: int = 0):
        self.hyperparams = hyperparams or ForestHyperparams()
        self.seed = seed
        self.trees: list[Tree] = []
        self.n_features = 0

    def fit(self, X, y) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ComputeError("X must be 2-d with one label per row")
        if not np.isfinite(X).all():
            raise ComputeError("X contains non-finite values")
        classes = np.unique(y)
        if not set(classes.tolist()) <= {0, 1}:
            raise ComputeError("labels must be 0 (neutral) or 1 (pain)")
        if classes.size < 2:
            raise ComputeError(
                "training data contains a single class; cannot fit a classifier"
            )
        hp = self.hyperparams
        self.n_features = X.shape[1]
        n_subset = max(1, int(round(np.sqrt(self.n_features))))
        # one group per distinct (features, label) row
        codes, first, row_group = _group_rows(np.column_stack((X, y)))
        codes, values, labels = codes[:-1, first], X[first], y[first]
        n = y.size
        by_class = [(np.nonzero(y == c)[0], k) for c, k in ((0, n // 2), (1, n - n // 2))]
        seeds = np.random.SeedSequence(self.seed).spawn(hp.n_trees)
        rngs = [np.random.default_rng(seq) for seq in seeds]
        weights = np.empty((hp.n_trees, first.size), dtype=np.int32)  # bootstrap rows per group
        for rng, weight in zip(rngs, weights):
            if hp.stratified_bootstrap:  # half the rows from each class, neutral first
                boot = np.concatenate([i[rng.integers(0, i.size, k)] for i, k in by_class])
            else:
                boot = rng.integers(0, n, n)
            weight[:] = np.bincount(row_group[boot], minlength=first.size)
        self.trees = _grow_forest(codes, values, labels, weights, rngs, hp, n_subset)
        return self

    def predict_confidences(self, X) -> np.ndarray:
        """Per-row fraction of trees voting pain; equal rows walk the trees once."""
        if not self.trees:
            raise ComputeError("forest is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ComputeError(
                f"expected {self.n_features} features per row, got shape {X.shape}"
            )
        trees = self.trees
        _, first, inverse = _group_rows(X)
        rows = X[first]
        sizes = [tree.feature.size for tree in trees]
        roots = np.cumsum([0] + sizes[:-1])
        # node ids below index the trees' concatenated arrays
        feature, threshold, left, right, counts = map(np.concatenate, zip(*trees))
        left, right = left + np.repeat(roots, sizes), right + np.repeat(roots, sizes)
        # walk every (tree, distinct row) pair at once, one level per step
        node = np.repeat(roots, len(rows))
        walking = np.arange(node.size)
        while walking.size:
            at = node[walking]
            inner = feature[at] >= 0
            walking, at = walking[inner], at[inner]
            go_left = rows[walking % len(rows), feature[at]] < threshold[at]
            node[walking] = np.where(go_left, left[at], right[at])
        # leaf majority votes, ties to pain
        pain = (counts[node, 1] >= counts[node, 0]).reshape(len(trees), -1).sum(axis=0)
        return (pain / len(trees))[inverse]
