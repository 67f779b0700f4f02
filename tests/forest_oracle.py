"""Reference forest grower: one recursive node object per split.

This is the grower `ted.forest` used before trees became flat arrays. It
copies the bootstrap rows, argsorts every candidate feature at every node and
walks rows one at a time. `ted.forest` must grow exactly the same trees, and
`flatten` turns an oracle tree into the same pre-order arrays for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ted.forest import ForestHyperparams, Tree


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


def fit(X, y, hp: ForestHyperparams, seed: int) -> list[TreeNode]:
    """The old `RandomForest.fit` loop: one bootstrap and one tree per seed."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_subset = max(1, int(round(np.sqrt(X.shape[1]))))
    n = y.size
    trees = []
    for seq in np.random.SeedSequence(seed).spawn(hp.n_trees):
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
        trees.append(
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
    return trees


def predict_confidences(trees: list[TreeNode], X) -> np.ndarray:
    """Fraction of trees voting pain, one row and one tree at a time."""
    X = np.asarray(X, dtype=float)
    return np.array([sum(_tree_vote(t, row) for t in trees) / len(trees) for row in X])


def flatten(tree: TreeNode) -> dict[str, np.ndarray]:
    """Pre-order parallel arrays in the layout of `ted.forest.Tree`.

    An inner node's counts are the sum of its children's, as every bootstrap
    row reaching it goes to exactly one child.
    """
    out: dict[str, list] = {k: [] for k in Tree._fields}

    def visit(node: TreeNode) -> int:
        i = len(out["feature"])
        out["feature"].append(-1 if node.is_leaf else node.feature)
        out["threshold"].append(0.0 if node.is_leaf else node.threshold)
        out["left"].append(-1)
        out["right"].append(-1)
        out["counts"].append(node.counts)
        if not node.is_leaf:
            out["left"][i] = visit(node.left)
            out["right"][i] = visit(node.right)
            left, right = out["counts"][out["left"][i]], out["counts"][out["right"][i]]
            out["counts"][i] = (left[0] + right[0], left[1] + right[1])
        return i

    visit(tree)
    return {k: np.array(v) for k, v in out.items()}
