"""Reference forest grower: one node object per split, grown breadth first.

Each tree takes its nodes from a first-in, first-out queue and draws one
`permutation` of the features for every node it searches, so candidate draws
follow breadth-first order. It copies the bootstrap rows, argsorts every
candidate feature at every node and walks rows one at a time. `ted.forest`
must grow exactly the same trees, and `flatten` turns an oracle tree into the
same breadth-first arrays for comparison.
"""

from __future__ import annotations

from collections import deque
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
    max_depth: Optional[int],
    min_samples_leaf: int,
    n_subset: int,
) -> TreeNode:
    root = TreeNode()
    queue = deque([(root, X, y, 0)])
    while queue:
        node, X, y, depth = queue.popleft()
        counts = (int((y == 0).sum()), int((y == 1).sum()))
        if (
            counts[0] == 0
            or counts[1] == 0
            or (max_depth is not None and depth >= max_depth)
            or y.size < 2 * min_samples_leaf
        ):
            node.counts = counts
            continue
        features = rng.permutation(X.shape[1])[:n_subset]
        cost, feature, threshold = _gini_best_split(X, y, features)
        if feature is None:
            node.counts = counts
            continue
        mask = X[:, feature] < threshold
        if mask.sum() < min_samples_leaf or (~mask).sum() < min_samples_leaf:
            node.counts = counts
            continue
        node.feature, node.threshold = feature, threshold
        node.left, node.right = TreeNode(), TreeNode()
        queue.append((node.left, X[mask], y[mask], depth + 1))
        queue.append((node.right, X[~mask], y[~mask], depth + 1))
    return root


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
    """Breadth-first parallel arrays in the layout of `ted.forest.Tree`.

    An inner node's counts are the sum of its children's, as every bootstrap
    row reaching it goes to exactly one child.
    """
    nodes = [tree]
    for node in nodes:  # the list grows behind the loop: breadth-first order
        if not node.is_leaf:
            nodes += [node.left, node.right]
    index = {id(node): i for i, node in enumerate(nodes)}
    out: dict[str, list] = {
        "feature": [-1 if n.is_leaf else n.feature for n in nodes],
        "threshold": [0.0 if n.is_leaf else n.threshold for n in nodes],
        "left": [-1 if n.is_leaf else index[id(n.left)] for n in nodes],
        "right": [-1 if n.is_leaf else index[id(n.right)] for n in nodes],
        "counts": [n.counts for n in nodes],
    }
    for i in reversed(range(len(nodes))):  # children come after their parent
        if not nodes[i].is_leaf:
            left, right = out["counts"][out["left"][i]], out["counts"][out["right"][i]]
            out["counts"][i] = (left[0] + right[0], left[1] + right[1])
    return {k: np.array(v) for k, v in out.items()}
