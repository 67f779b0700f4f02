"""Random forest for binary pain/neutral frame classification.

Built from scratch so that training is fully deterministic for a given seed:
axis-aligned Gini splits over a random feature subset per node, bootstrap
sampling per tree, and per-tree majority votes aggregated into a
positive-class confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ComputeError


@dataclass
class TreeNode:
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    counts: Optional[tuple[int, int]] = None  # (neutral, pain) at a leaf

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None


def _gini_best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray):
    """Best (feature, threshold) by weighted Gini over candidate midpoints."""
    n = y.size
    best = (np.inf, None, None)
    for f in features:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        # splits only between distinct consecutive values
        distinct = np.nonzero(xs[1:] > xs[:-1])[0]
        if distinct.size == 0:
            continue
        pos_left = np.cumsum(ys)[distinct]
        n_left = distinct + 1
        n_right = n - n_left
        pos_right = int(ys.sum()) - pos_left
        p1l = pos_left / n_left
        p1r = pos_right / n_right
        gini_left = 1.0 - p1l**2 - (1.0 - p1l) ** 2
        gini_right = 1.0 - p1r**2 - (1.0 - p1r) ** 2
        cost = (n_left * gini_left + n_right * gini_right) / n
        i = int(np.argmin(cost))
        if cost[i] < best[0]:
            thr = (xs[distinct[i]] + xs[distinct[i] + 1]) / 2.0
            best = (float(cost[i]), int(f), thr)
    return best


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    depth: int,
    max_depth: Optional[int],
    min_samples_leaf: int,
    n_subset: int,
) -> TreeNode:
    counts = (int((y == 0).sum()), int((y == 1).sum()))
    if (
        counts[0] == 0
        or counts[1] == 0
        or (max_depth is not None and depth >= max_depth)
        or y.size < 2 * min_samples_leaf
    ):
        return TreeNode(counts=counts)
    features = rng.permutation(X.shape[1])[:n_subset]
    cost, feature, threshold = _gini_best_split(X, y, features)
    if feature is None:
        return TreeNode(counts=counts)
    mask = X[:, feature] < threshold
    if mask.sum() < min_samples_leaf or (~mask).sum() < min_samples_leaf:
        return TreeNode(counts=counts)
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow(X[mask], y[mask], rng, depth + 1, max_depth, min_samples_leaf, n_subset),
        right=_grow(X[~mask], y[~mask], rng, depth + 1, max_depth, min_samples_leaf, n_subset),
    )


def _tree_vote(node: TreeNode, row: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if row[node.feature] < node.threshold else node.right
    neutral, pain = node.counts
    # leaf majority; ties go to the positive (pain) class
    return 1 if pain >= neutral else 0


@dataclass
class ForestHyperparams:
    n_trees: int = 100
    max_depth: Optional[int] = None
    min_samples_leaf: int = 1
    stratified_bootstrap: bool = False


class RandomForest:
    """Bagged Gini decision trees with deterministic seeded training."""

    def __init__(self, hyperparams: Optional[ForestHyperparams] = None, seed: int = 0):
        self.hyperparams = hyperparams or ForestHyperparams()
        self.seed = seed
        self.trees: list[TreeNode] = []
        self.n_features = 0

    def fit(self, X, y) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ComputeError("X must be 2-d with one label per row")
        classes = np.unique(y)
        if classes.size < 2:
            raise ComputeError(
                "training data contains a single class; cannot fit a classifier"
            )
        hp = self.hyperparams
        self.n_features = X.shape[1]
        n_subset = max(1, int(round(np.sqrt(self.n_features))))
        n = y.size
        self.trees = []
        for seq in np.random.SeedSequence(self.seed).spawn(hp.n_trees):
            rng = np.random.default_rng(seq)
            if hp.stratified_bootstrap:
                idx0 = np.nonzero(y == 0)[0]
                idx1 = np.nonzero(y == 1)[0]
                half = n // 2
                boot = np.concatenate(
                    [
                        idx0[rng.integers(0, idx0.size, half)],
                        idx1[rng.integers(0, idx1.size, n - half)],
                    ]
                )
            else:
                boot = rng.integers(0, n, n)
            self.trees.append(
                _grow(
                    X[boot],
                    y[boot],
                    rng,
                    depth=0,
                    max_depth=hp.max_depth,
                    min_samples_leaf=hp.min_samples_leaf,
                    n_subset=n_subset,
                )
            )
        return self

    def predict_confidence(self, row) -> float:
        """Fraction of trees voting for the positive (pain) class."""
        if not self.trees:
            raise ComputeError("forest is not fitted")
        row = np.asarray(row, dtype=float)
        if row.size != self.n_features:
            raise ComputeError(
                f"expected {self.n_features} features, got {row.size}"
            )
        votes = sum(_tree_vote(tree, row) for tree in self.trees)
        return votes / len(self.trees)

    def predict_confidences(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.array([self.predict_confidence(row) for row in X])
