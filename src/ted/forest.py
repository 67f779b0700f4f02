"""Random forest for binary pain/neutral frame classification.

Built from scratch so that training is fully deterministic for a given seed:
axis-aligned Gini splits over a random feature subset per node, bootstrap
sampling per tree, and per-tree majority votes aggregated into a
positive-class confidence. Rows with equal features and label always travel
together, so `fit` groups them once and each bootstrap becomes an integer
weight per group; split costs use the same integers and float expressions as
a per-row search, so the trees do not depend on the grouping.

All trees grow in lockstep. Each keeps its own depth-first stack and its own
generator, so it visits its nodes and draws its candidate features in the
order of a one-tree-at-a-time grower. In a step every unfinished tree pops
nodes, recording the leaves, until it reaches one to search; all those
splits are then searched with one segmented sort, in batches of at most
ENTRY_BUDGET (node, candidate, group) entries. A tree has at most one node
searched in a step, and each node's cuts keep their own order within a batch,
so neither the batching nor the budget changes a tree.

A tree draws its candidate features DRAW_BLOCK nodes at a time, with one
`permuted` call over a block of rows 0..n_features-1. That call makes the
same shuffle draws, row after row, as one `permutation` call per node, so
row k is the k-th node's permutation; rows past a tree's last node go unused.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ComputeError, ConfigError


class Tree(NamedTuple):
    """One fitted tree as parallel node arrays in pre-order (node 0 is the root).

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

# searched nodes per tree that one candidate-feature draw covers
DRAW_BLOCK = 64


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


def _split_batch(batch, codes, n_codes, values, labels, weights, min_leaf):
    """Best cut of each node in `batch`, searched for all nodes at once.

    An item is (tree, node, groups, rows, pain rows, depth, candidates). Yields
    (item, feature, threshold, left groups, right groups, left rows, left pain
    rows) for each node whose lowest weighted-Gini cut leaves at least
    `min_leaf` rows on each side. Ties keep the first candidate, then the
    lowest cut.
    """
    tree, _, groups, node_n, node_pos, _, candidates = zip(*batch)
    k = len(batch)
    sizes = np.array([g.size for g in groups])
    starts = np.cumsum(sizes) - sizes
    members = np.concatenate(groups)
    member_node = np.repeat(np.arange(k), sizes)
    candidates = np.array(candidates)
    # (rows, pain rows) of each member group in its tree's bootstrap
    w_rows = weights[np.array(tree)[member_node], members]
    w_pain = w_rows * labels[members]
    # entries in (candidate, node, group) order, then sorted by code within each
    # (candidate, node) segment, so each node's cuts keep (candidate, code) order
    seg = (np.arange(candidates.shape[1])[:, None] * k + member_node).reshape(-1)
    key = seg * n_codes + codes[candidates[member_node].T, members].reshape(-1)
    order = np.argsort(key, kind="stable")
    key, at = key[order], order % members.size  # at: the member of each sorted entry
    # cuts only between distinct consecutive codes of one segment
    cut = np.nonzero((key[1:] > key[:-1]) & (seg[1:] == seg[:-1]))[0]
    if not cut.size:
        return
    # (rows, pain rows) left of each cut: a running sum less its segment's start
    cum = np.cumsum(np.stack((w_rows, w_pain))[:, at], axis=1)
    start = np.searchsorted(seg, seg[cut])
    n_left, pos_left = cum[:, cut] - np.hstack(([[0], [0]], cum))[:, start]
    cut_node = seg[cut] % k
    n, pos = np.array(node_n)[cut_node], np.array(node_pos)[cut_node]
    cost = (_weighted_gini(n_left, pos_left) + _weighted_gini(n - n_left, pos - pos_left)) / n
    ranked = np.lexsort((cost, cut_node))
    by_node = cut_node[ranked]  # each node's first entry is its lowest cost
    best = cut[ranked[np.flatnonzero(np.concatenate(([True], by_node[1:] != by_node[:-1])))]]
    split = seg[best] % k
    feature = candidates[split, seg[best] // k]
    below, above = members[at[best]], members[at[best + 1]]
    threshold = (values[below, feature] + values[above, feature]) / 2.0
    # partition the groups of every node at once, left ones first (no value is
    # below -inf, so a node without a cut sends all right)
    node_feature = np.zeros(k, dtype=np.intp)
    node_threshold = np.full(k, -np.inf)
    node_feature[split], node_threshold[split] = feature, threshold
    go_left = values[members, node_feature[member_node]] < node_threshold[member_node]
    n_go, rows_left, pain_left = np.add.reduceat(
        np.column_stack((go_left, w_rows * go_left, w_pain * go_left)), starts
    )[split].T
    members = members[np.argsort(2 * member_node + ~go_left, kind="stable")]
    begin = starts[split]
    for i, f, thr, lo, mid, hi, rows, pain in zip(
        split.tolist(), feature.tolist(), threshold.tolist(), begin.tolist(),
        (begin + n_go).tolist(), (begin + sizes[split]).tolist(),
        rows_left.tolist(), pain_left.tolist(),
    ):
        if min_leaf <= rows <= node_n[i] - min_leaf:
            # copies: a slice would keep the whole batch's partition alive
            yield batch[i], f, thr, members[lo:mid].copy(), members[mid:hi].copy(), rows, pain


def _candidate_rows(rng, deck, n_subset):
    """The candidate features of each searched node of one tree, in order;
    `deck` is DRAW_BLOCK rows of 0..n_features-1, which `permuted` leaves as is."""
    while True:
        yield from rng.permuted(deck, axis=1)[:, :n_subset]


def _grow_forest(codes, values, labels, weights, rngs, hp, n_subset) -> list[Tree]:
    """Grow every tree depth first, in a recursive grower's pre-order (left
    before right), all trees in lockstep as the module docstring describes.
    """
    n_codes = int(codes.max(initial=0)) + 1
    max_depth = np.inf if hp.max_depth is None else hp.max_depth
    min_leaf = hp.min_samples_leaf
    # per tree: (feature, left, right, neutral, pain) of each node, and its threshold
    nodes = [(array("q"), array("d")) for _ in rngs]
    # per tree: (groups, rows, pain rows, depth, parent if a right child else -1)
    stacks = [
        [(np.nonzero(w)[0].astype(np.int32), int(w.sum()), int(w @ labels), 0, -1)]
        for w in weights
    ]
    deck = np.tile(np.arange(codes.shape[0]), (DRAW_BLOCK, 1))
    draws = [_candidate_rows(rng, deck, n_subset) for rng in rngs]
    trees: list[Tree] = [None] * len(rngs)
    live = range(len(rngs))
    while live:
        inner = []
        for t in live:
            stack, (fields, thresholds) = stacks[t], nodes[t]
            while stack:  # record leaves until a node to search
                members, n, pos, depth, parent = stack.pop()
                node = len(thresholds)
                fields.extend((-1, -1, -1, n - pos, pos))
                thresholds.append(0.0)
                if parent >= 0:
                    fields[5 * parent + 2] = node
                if not (pos == 0 or pos == n or n < 2 * min_leaf or depth >= max_depth):
                    inner.append((t, node, members, n, pos, depth, next(draws[t])))
                    break
        # entries[k]: the search entries of the first k nodes. Each batch is the
        # longest run of nodes within the budget, at least one
        entries = np.cumsum([0] + [item[2].size * item[6].size for item in inner])
        stop = 0
        while stop < len(inner):
            start = stop
            cut = np.searchsorted(entries, entries[start] + ENTRY_BUDGET, side="right") - 1
            stop = max(start + 1, int(cut))
            batch = inner[start:stop]
            for (t, node, _, n, pos, depth, _), f, thr, left, right, rows, pain in _split_batch(
                batch, codes, n_codes, values, labels, weights, min_leaf
            ):
                fields, thresholds = nodes[t]
                fields[5 * node], fields[5 * node + 1], thresholds[node] = f, node + 1, thr
                stacks[t].append((right, n - rows, pos - pain, depth + 1, node))
                stacks[t].append((left, rows, pain, depth + 1, -1))
        for t in live:
            if not stacks[t]:  # finished: its records become arrays now
                fields = np.array(nodes[t][0], dtype=int).reshape(-1, 5)
                feature, left, right = fields[:, :3].T
                trees[t] = Tree(feature, np.array(nodes[t][1]), left, right, fields[:, 3:])
                nodes[t] = None
        live = [t for t in live if stacks[t]]
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
