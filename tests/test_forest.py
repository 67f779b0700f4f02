import numpy as np
import pytest

from ted.errors import ComputeError
from ted.forest import ForestHyperparams, RandomForest, TreeNode


def xor_like_data(n=200, seed=0):
    """Noisy but learnable two-feature data, positive iff x0 + x1 > 1."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 2))
    y = (X.sum(axis=1) + rng.normal(0, 0.05, n) > 1.0).astype(int)
    if y.min() == y.max():  # pragma: no cover - seed-dependent guard
        y[0] = 1 - y[0]
    return X, y


class TestFit:
    def test_single_class_rejected(self):
        with pytest.raises(ComputeError, match="single class"):
            RandomForest().fit(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ComputeError):
            RandomForest().fit(np.zeros((5, 2)), np.zeros(4, dtype=int))

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ComputeError, match="not fitted"):
            RandomForest().predict_confidence([0.0, 0.0])

    def test_feature_count_checked_at_predict(self):
        X, y = xor_like_data()
        forest = RandomForest(ForestHyperparams(n_trees=3)).fit(X, y)
        with pytest.raises(ComputeError, match="features"):
            forest.predict_confidence([0.5])

    def test_learns_separable_structure(self):
        X, y = xor_like_data()
        forest = RandomForest(ForestHyperparams(n_trees=25), seed=1).fit(X, y)
        predicted = (forest.predict_confidences(X) >= 0.5).astype(int)
        assert (predicted == y).mean() > 0.95

    def test_same_seed_is_deterministic(self):
        X, y = xor_like_data()
        a = RandomForest(ForestHyperparams(n_trees=10), seed=3).fit(X, y)
        b = RandomForest(ForestHyperparams(n_trees=10), seed=3).fit(X, y)
        assert a.trees == b.trees

    def test_different_seed_changes_trees(self):
        X, y = xor_like_data()
        a = RandomForest(ForestHyperparams(n_trees=10), seed=3).fit(X, y)
        b = RandomForest(ForestHyperparams(n_trees=10), seed=4).fit(X, y)
        assert a.trees != b.trees

    def test_max_depth_limits_tree(self):
        X, y = xor_like_data()
        forest = RandomForest(
            ForestHyperparams(n_trees=5, max_depth=1), seed=0
        ).fit(X, y)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert all(depth(t) <= 1 for t in forest.trees)

    def test_min_samples_leaf_respected(self):
        X, y = xor_like_data(n=60)
        forest = RandomForest(
            ForestHyperparams(n_trees=5, min_samples_leaf=10), seed=0
        ).fit(X, y)

        def leaves(node):
            if node.is_leaf:
                yield sum(node.counts)
            else:
                yield from leaves(node.left)
                yield from leaves(node.right)

        assert all(size >= 10 for t in forest.trees for size in leaves(t))

    def test_stratified_bootstrap_runs_deterministically(self):
        X, y = xor_like_data()
        hp = ForestHyperparams(n_trees=8, stratified_bootstrap=True)
        a = RandomForest(hp, seed=2).fit(X, y)
        b = RandomForest(hp, seed=2).fit(X, y)
        assert np.array_equal(a.predict_confidences(X), b.predict_confidences(X))


class TestVoting:
    def test_confidence_is_vote_fraction(self):
        X, y = xor_like_data()
        forest = RandomForest(ForestHyperparams(n_trees=7), seed=0).fit(X, y)
        conf = forest.predict_confidences(X[:20])
        assert all(0.0 <= c <= 1.0 for c in conf)
        # with 7 trees the confidence grid is k/7
        assert all(round(c * 7) == pytest.approx(c * 7) for c in conf)

    def test_single_tree_votes_binary(self):
        X, y = xor_like_data()
        forest = RandomForest(ForestHyperparams(n_trees=1), seed=0).fit(X, y)
        assert set(forest.predict_confidences(X[:30])) <= {0.0, 1.0}

    def test_leaf_tie_votes_pain(self):
        forest = RandomForest()
        forest.n_features = 1
        forest.trees = [TreeNode(counts=(3, 3))]
        assert forest.predict_confidence([0.0]) == 1.0

