"""Random forest for binary pain/neutral frame classification.

Built from scratch so that training is fully deterministic for a given seed:
axis-aligned Gini splits over a random feature subset per node, bootstrap
sampling per tree, and per-tree majority votes aggregated into a
positive-class confidence. Rows with equal features and label always travel
together, so `fit` groups them once and each bootstrap becomes an integer
weight per group; split costs use the same integers and float expressions as
a per-row search, so the trees do not depend on the grouping.
"""

from __future__ import annotations

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


def _best_split(codes, rows, total):
    """Lowest weighted-Gini cut of a node: (candidate, group below, group above) or None.

    `codes` is (candidates, groups) rank codes, `rows` the (rows, pain rows) per
    group and `total` their sum. Ties keep the first candidate, then the lowest cut.
    """
    order = np.argsort(codes, axis=1, kind="stable")
    cs = np.sort(codes, axis=1)
    # cuts only between distinct consecutive values, in (candidate, value) order
    j, i = np.nonzero(cs[:, 1:] > cs[:, :-1])
    if not j.size:
        return None
    left = np.cumsum(rows[order], axis=1)[j, i]
    # (rows, pain rows) on the left of each cut, then on its right
    sides = np.concatenate((left, total - left))
    n_side, pos_side = sides[:, 0], sides[:, 1]
    p1 = pos_side / n_side
    gini = 1.0 - p1**2 - (1.0 - p1) ** 2
    weighted = n_side * gini
    cost = (weighted[: j.size] + weighted[j.size :]) / total[0]
    b = int(cost.argmin())
    return j[b], order[j[b], i[b]], order[j[b], i[b] + 1]


def _build_tree(codes, values, labels, weight, rng, hp, n_subset) -> Tree:
    """Grow depth first in a recursive grower's pre-order, left before right,
    calling `rng.permutation` at the same nodes, so a seed gives the same tree.
    """
    rows = np.column_stack((weight, weight * labels))  # (rows, pain rows) per group
    nodes = []  # [feature, threshold, left, right, neutral, pain]
    # (groups, (rows, pain rows), depth, parent, side 2 = left / 3 = right)
    stack = [(np.nonzero(weight)[0], rows.sum(axis=0), 0, -1, 2)]
    while stack:
        members, total, depth, parent, side = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][side] = node
        n, pos = total.tolist()
        nodes.append([-1, 0.0, -1, -1, n - pos, pos])
        if pos in (0, n) or n < 2 * hp.min_samples_leaf or (
            hp.max_depth is not None and depth >= hp.max_depth
        ):
            continue
        features = rng.permutation(codes.shape[0])[:n_subset]
        node_rows = rows[members]
        split = _best_split(codes[features[:, None], members], node_rows, total)
        if split is None:
            continue
        j, below, above = split
        f = int(features[j])
        thr = (values[members[below], f] + values[members[above], f]) / 2.0
        go_left = values[members, f] < thr
        total_left = node_rows[go_left].sum(axis=0)
        if not hp.min_samples_leaf <= total_left[0] <= n - hp.min_samples_leaf:
            continue
        nodes[node][:2] = f, thr
        stack.append((members[~go_left], total - total_left, depth + 1, node, 3))
        stack.append((members[go_left], total_left, depth + 1, node, 2))
    feature, threshold, left, right, neutral, pain = map(np.array, zip(*nodes))
    return Tree(feature, threshold, left, right, np.column_stack((neutral, pain)))


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
        # one group per distinct (rank codes, label) row
        table = np.column_stack([np.unique(col, return_inverse=True)[1] for col in X.T] + [y])
        _, first, row_group = np.unique(table, axis=0, return_index=True, return_inverse=True)
        row_group = row_group.reshape(-1)
        codes, values, labels = table[first, :-1].T.copy(), X[first], y[first]
        n = y.size
        by_class = [(np.nonzero(y == c)[0], k) for c, k in ((0, n // 2), (1, n - n // 2))]
        self.trees = []
        for seq in np.random.SeedSequence(self.seed).spawn(hp.n_trees):
            rng = np.random.default_rng(seq)
            if hp.stratified_bootstrap:  # half the rows from each class, neutral first
                boot = np.concatenate([i[rng.integers(0, i.size, k)] for i, k in by_class])
            else:
                boot = rng.integers(0, n, n)
            weight = np.bincount(row_group[boot], minlength=first.size)
            self.trees.append(_build_tree(codes, values, labels, weight, rng, hp, n_subset))
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
        rows, inverse = np.unique(X, axis=0, return_inverse=True)
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
        return (pain / len(trees))[inverse.reshape(-1)]
