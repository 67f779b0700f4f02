import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import forest_oracle
from ted import forest
from ted.errors import ComputeError
from ted.forest import ForestHyperparams, RandomForest, Tree, _group_rows


def xor_like_data(n=200, seed=0):
    """Noisy but learnable two-feature data, positive iff x0 + x1 > 1."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 2))
    y = (X.sum(axis=1) + rng.normal(0, 0.05, n) > 1.0).astype(int)
    if y.min() == y.max():  # pragma: no cover - seed-dependent guard
        y[0] = 1 - y[0]
    return X, y


def same_trees(a: Tree, b: Tree) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in Tree._fields)


def depths(tree: Tree) -> np.ndarray:
    """Depth per node; breadth-first order puts every parent before its children."""
    depth = np.zeros(tree.feature.size, dtype=int)
    for i in np.nonzero(tree.feature >= 0)[0]:
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return depth


def leaf(neutral, pain) -> Tree:
    return Tree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        counts=np.array([[neutral, pain]]),
    )


class TestFit:
    def test_single_class_rejected(self):
        with pytest.raises(ComputeError, match="single class"):
            RandomForest().fit(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ComputeError):
            RandomForest().fit(np.zeros((5, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        X, y = xor_like_data(n=20)
        X[3, 1] = bad
        with pytest.raises(ComputeError, match="non-finite"):
            RandomForest().fit(X, y)

    def test_labels_other_than_0_1_rejected(self):
        X, y = xor_like_data(n=20)
        with pytest.raises(ComputeError, match="labels"):
            RandomForest().fit(X, 2 * y)

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ComputeError, match="not fitted"):
            RandomForest().predict_confidences(np.zeros((0, 2)))

    def test_feature_count_checked_at_predict(self):
        X, y = xor_like_data()
        forest = RandomForest(ForestHyperparams(n_trees=3)).fit(X, y)
        with pytest.raises(ComputeError, match="features"):
            forest.predict_confidences([0.5])
        with pytest.raises(ComputeError, match="features"):
            forest.predict_confidences(X[:, :1])

    def test_learns_separable_structure(self):
        X, y = xor_like_data()
        forest = RandomForest(ForestHyperparams(n_trees=25), seed=1).fit(X, y)
        predicted = (forest.predict_confidences(X) >= 0.5).astype(int)
        assert (predicted == y).mean() > 0.95

    def test_same_seed_is_deterministic(self):
        X, y = xor_like_data()
        a = RandomForest(ForestHyperparams(n_trees=10), seed=3).fit(X, y)
        b = RandomForest(ForestHyperparams(n_trees=10), seed=3).fit(X, y)
        assert all(same_trees(s, t) for s, t in zip(a.trees, b.trees, strict=True))

    def test_different_seed_changes_trees(self):
        X, y = xor_like_data()
        a = RandomForest(ForestHyperparams(n_trees=10), seed=3).fit(X, y)
        b = RandomForest(ForestHyperparams(n_trees=10), seed=4).fit(X, y)
        assert not all(same_trees(s, t) for s, t in zip(a.trees, b.trees, strict=True))

    def test_max_depth_limits_tree(self):
        X, y = xor_like_data()
        forest = RandomForest(
            ForestHyperparams(n_trees=5, max_depth=1), seed=0
        ).fit(X, y)
        assert all(depths(t).max() <= 1 for t in forest.trees)
        assert any(t.feature[0] >= 0 for t in forest.trees)

    def test_min_samples_leaf_respected(self):
        X, y = xor_like_data(n=60)
        forest = RandomForest(
            ForestHyperparams(n_trees=5, min_samples_leaf=10), seed=0
        ).fit(X, y)
        for t in forest.trees:
            assert (t.counts[t.feature < 0].sum(axis=1) >= 10).all()

    def test_stratified_bootstrap_runs_deterministically(self):
        X, y = xor_like_data()
        hp = ForestHyperparams(n_trees=8, stratified_bootstrap=True)
        a = RandomForest(hp, seed=2).fit(X, y)
        b = RandomForest(hp, seed=2).fit(X, y)
        assert np.array_equal(a.predict_confidences(X), b.predict_confidences(X))
        # each class fills half of every bootstrap
        assert all(tuple(t.counts[0]) == (100, 100) for t in a.trees)

    def test_node_arrays_are_consistent(self):
        X, y = xor_like_data()
        for t in RandomForest(ForestHyperparams(n_trees=5), seed=0).fit(X, y).trees:
            inner = np.nonzero(t.feature >= 0)[0]
            leaves = t.feature < 0
            assert (t.left[leaves] == -1).all() and (t.right[leaves] == -1).all()
            # breadth first: the j-th inner node's children are 2j + 1 and 2j + 2
            assert (t.left[inner] == 2 * np.arange(inner.size) + 1).all()
            assert (t.right[inner] == t.left[inner] + 1).all()
            assert (t.counts[inner] == t.counts[t.left[inner]] + t.counts[t.right[inner]]).all()
            assert t.counts[0].sum() == y.size


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
        forest.trees = [leaf(3, 3)]
        assert forest.predict_confidences([[0.0]]).tolist() == [1.0]
        forest.trees = [leaf(3, 3), leaf(4, 3)]
        assert forest.predict_confidences([[0.0]]).tolist() == [0.5]

    def test_row_and_batch_agree(self):
        X, y = xor_like_data()
        forest = RandomForest(ForestHyperparams(n_trees=9), seed=5).fit(X, y)
        batch = forest.predict_confidences(X[:25])
        assert [forest.predict_confidences(X[i : i + 1])[0] for i in range(25)] == batch.tolist()
        assert forest.predict_confidences(X[:0]).shape == (0,)


def dataset(kind: str, seed: int, n: int = 120):
    """Training data with the ties and value layouts the grower must handle."""
    rng = np.random.default_rng(seed)
    if kind == "levels":  # integer AU levels 0-5
        X = rng.integers(0, 6, (n, 6)).astype(float)
    elif kind == "continuous":
        X = rng.uniform(0, 5, (n, 5))
    elif kind == "duplicates":  # repeated rows, some with both labels
        X = np.repeat(rng.integers(0, 3, (n // 6, 4)).astype(float), 6, axis=0)
    elif kind == "mixed":  # tied levels next to continuous values and a constant column
        X = np.column_stack(
            [rng.integers(0, 2, n), rng.uniform(0, 1, n).round(1), np.full(n, 2.0)]
        ).astype(float)
    else:  # neighbouring doubles, whose midpoint rounds onto one of them
        X = 1.0 + rng.integers(0, 4, (n, 2)) * np.finfo(float).eps
    score = X[:, 0] + (X[:, 1] if X.shape[1] > 1 else 0) + rng.normal(0, 0.5 * X.std(), n)
    y = (score > np.median(score)).astype(int)
    y[:2] = (0, 1)
    return X, y


HYPERPARAMS = [
    ForestHyperparams(n_trees=6),
    ForestHyperparams(n_trees=6, max_depth=2),
    ForestHyperparams(n_trees=6, min_samples_leaf=5),
    ForestHyperparams(n_trees=6, stratified_bootstrap=True),
    ForestHyperparams(n_trees=4, max_depth=4, min_samples_leaf=3, stratified_bootstrap=True),
]


def assert_matches_oracle(X, y, hp, seed):
    forest = RandomForest(hp, seed=seed).fit(X, y)
    oracle = forest_oracle.fit(X, y, hp, seed)
    assert len(forest.trees) == len(oracle)
    for tree, reference in zip(forest.trees, oracle):
        flat = forest_oracle.flatten(reference)
        for name in Tree._fields:
            assert np.array_equal(getattr(tree, name), flat[name]), name
    rng = np.random.default_rng(seed)
    probe = np.vstack([X, X[rng.integers(0, len(X), 30)] + rng.normal(0, 0.3, (30, X.shape[1]))])
    assert np.array_equal(
        forest.predict_confidences(probe), forest_oracle.predict_confidences(oracle, probe)
    )


class TestMatchesOracle:
    """The flat-array grower reproduces the recursive grower exactly."""

    @pytest.mark.parametrize("hp", HYPERPARAMS, ids=lambda hp: repr(hp))
    @pytest.mark.parametrize("kind", ["levels", "continuous", "duplicates", "mixed", "adjacent"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_same_trees_and_votes(self, kind, seed, hp):
        X, y = dataset(kind, seed)
        assert_matches_oracle(X, y, hp, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        cells=st.lists(st.integers(0, 3), min_size=16, max_size=60),
        labels=st.lists(st.integers(0, 1), min_size=8, max_size=30),
        seed=st.integers(0, 2**16),
        min_leaf=st.integers(1, 4),
    )
    def test_random_small_tables(self, cells, labels, seed, min_leaf):
        n = min(len(cells) // 2, len(labels))
        X = np.array(cells[: 2 * n], dtype=float).reshape(n, 2)
        y = np.array(labels[:n])
        y[:2] = (0, 1)
        hp = ForestHyperparams(n_trees=3, min_samples_leaf=min_leaf)
        assert_matches_oracle(X, y, hp, seed)


KINDS = ["levels", "continuous", "duplicates", "mixed", "adjacent"]


class TestLockstep:
    """Batching the split searches of all trees changes no tree."""

    @pytest.mark.parametrize("budget", [1, 500])
    @pytest.mark.parametrize("hp", HYPERPARAMS, ids=lambda hp: repr(hp))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_entry_budget_changes_no_tree(self, monkeypatch, kind, seed, hp, budget):
        # 1 searches every node alone; 500 holds two or more roots of these tables
        monkeypatch.setattr(forest, "ENTRY_BUDGET", budget)
        X, y = dataset(kind, seed)
        assert_matches_oracle(X, y, hp, seed)

    def test_small_budget_splits_the_root_step(self, monkeypatch):
        batches = []
        search = forest._split_batch

        def spy(members, sizes, *args):
            batches.append(sizes.size)
            return search(members, sizes, *args)

        monkeypatch.setattr(forest, "ENTRY_BUDGET", 500)
        monkeypatch.setattr(forest, "_split_batch", spy)
        X, y = dataset("levels", 0)
        hp = ForestHyperparams(n_trees=6)
        assert_matches_oracle(X, y, hp, 0)
        assert 1 < batches[0] < hp.n_trees

    def test_budget_cuts_a_level_inside_a_tree(self, monkeypatch):
        X, y = dataset("continuous", 0)

        def batches(budget):  # the tree of each searched node, batch by batch
            trees = []
            search = forest._split_batch

            def spy(members, sizes, tree, *args):
                trees.append(tree.tolist())
                return search(members, sizes, tree, *args)

            monkeypatch.setattr(forest, "ENTRY_BUDGET", budget)
            monkeypatch.setattr(forest, "_split_batch", spy)
            assert_matches_oracle(X, y, ForestHyperparams(n_trees=3), 0)
            monkeypatch.undo()
            return trees

        def ends(trees):  # the position in the node sequence where each batch ends
            return set(np.cumsum([len(t) for t in trees]).tolist())

        levels, cut = batches(1 << 30), batches(300)  # one batch per level, or several
        nodes = sum(levels, [])
        assert sum(cut, []) == nodes
        # a batch of several nodes ends inside a level, between two nodes of one tree
        inside = ends(cut) - ends(levels)
        assert any(nodes[p - 1] == nodes[p] for p in inside)
        assert any(len(trees) > 1 for trees in cut)

    def test_trees_finishing_at_very_different_steps(self):
        # x0 alone separates the classes: a tree that draws it at the root stops
        # after three nodes, while the others grow on noise
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 160)
        noise = [rng.integers(0, 4, (160, 3)), rng.uniform(0, 1, (160, 5))]
        X = np.column_stack([y + rng.uniform(0, 0.5, 160), *noise])
        hp = ForestHyperparams(
            n_trees=12, max_depth=9, min_samples_leaf=2, stratified_bootstrap=True
        )
        assert_matches_oracle(X, y, hp, 0)
        sizes = sorted(t.feature.size for t in RandomForest(hp, seed=0).fit(X, y).trees)
        assert sizes[0] == 3 and sizes[-1] >= 10 * sizes[0]

    def test_no_features(self):
        X, y = np.zeros((6, 0)), np.array([0, 1, 0, 1, 0, 1])
        assert_matches_oracle(X, y, ForestHyperparams(n_trees=3), 0)
        assert all(t.feature.tolist() == [-1] for t in RandomForest().fit(X, y).trees)

    # tracemalloc peak of the fit below with the per-tree grower that the
    # lockstep grower replaced (numpy 2.4, Python 3.11)
    PER_TREE_PEAK = 2_017_023

    def test_peak_memory_near_per_tree_grower(self):
        rng = np.random.default_rng(20260823)
        X = rng.uniform(0, 5, (2000, 6))
        y = (X[:, 0] + X[:, 1] + rng.normal(0, 1, 2000) > 5).astype(int)
        RandomForest(ForestHyperparams(n_trees=2)).fit(X[:50], y[:50])  # first-call imports
        tracemalloc.start()
        try:
            RandomForest(ForestHyperparams(n_trees=50), seed=0).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * self.PER_TREE_PEAK


class TestCandidateDraws:
    """One `permuted` call over a level's block of rows makes the draws of one
    `permutation` per node, node after node, as the breadth-first oracle does."""

    @pytest.mark.parametrize("n_features", [0, 1, 2, 6, 9, 17])
    @pytest.mark.parametrize("seed", [0, 1, 7, 20260823])
    def test_block_rows_equal_successive_permutations(self, n_features, seed):
        levels, calls = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (levels, calls):  # the bootstrap draw that precedes them in `fit`
            rng.integers(0, 100, 100)
        # the grower's deck: rows of 0..n_features-1, one per searched node of a level
        deck = np.tile(np.arange(n_features), (200, 1))
        for k in (1, 2, 5, 64, 65, 200):  # searched nodes on successive levels
            rows = levels.permuted(deck[:k], axis=1)
            assert rows.dtype.kind == "i" and rows.shape == (k, n_features)
            for row in rows:
                assert np.array_equal(row, calls.permutation(n_features))
        # both generators are in the same state afterwards, and the deck is intact
        # for the next tree
        assert levels.integers(0, 2**62) == calls.integers(0, 2**62)
        assert np.array_equal(deck, np.tile(np.arange(n_features), (200, 1)))


def assert_groups_like_unique(table):
    codes, first, group = _group_rows(table)
    _, want_first, want_group = np.unique(table, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(first, want_first)
    assert np.array_equal(group, want_group.reshape(-1))
    for col, col_codes in zip(table.T, codes, strict=True):
        assert np.array_equal(col_codes, np.unique(col, return_inverse=True)[1].reshape(-1))


class TestGroupRows:
    """`_group_rows` numbers distinct rows exactly as np.unique(axis=0) does."""

    @settings(max_examples=80, deadline=None)
    @given(
        table=st.tuples(st.integers(1, 40), st.integers(1, 6)).flatmap(
            lambda shape: arrays(
                float,
                shape,
                elements=st.integers(0, 3).map(float)
                | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            )
        )
    )
    def test_matches_unique(self, table):
        assert_groups_like_unique(table)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_continuous_six_columns(self, seed):
        # 2000 ranks per column: a single mixed-radix key would need 2000**6 > 2**63
        rng = np.random.default_rng(seed)
        table = rng.uniform(0, 5, (2000, 6))
        table[rng.integers(0, 2000, 300)] = table[rng.integers(0, 2000, 300)]
        assert_groups_like_unique(table)

    def test_no_rows(self):
        codes, first, group = _group_rows(np.zeros((0, 3)))
        assert codes.shape == (3, 0) and first.size == 0 and group.size == 0
