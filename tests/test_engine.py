import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import strategies as st

from conftest import make_constant_sequence, make_frame, make_random_sequence
from naive import (
    naive_relative_change,
    naive_score_sequence,
    naive_static,
    naive_window_mean,
)
from ted import engine
from ted.engine import (
    DynamicsState,
    SequenceDynamics,
    SequenceScores,
    direction_sign,
    relative_change,
    score_dataset,
    score_sequence,
    static_score,
    write_scores_csv,
)
from ted.errors import ComputeError
from ted.model import (
    FEATURE_SETS,
    AuProfile,
    FrameFeatures,
    PAIN_PROFILE,
    SequenceRecord,
    TedConfig,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=2, max_size=30)


class TestStaticScore:
    def test_all_zero_pain_profile_is_six(self):
        assert static_score([0.0] * 6, PAIN_PROFILE) == 6.0

    def test_single_maximal_au(self):
        levels = [5.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert static_score(levels, PAIN_PROFILE) == pytest.approx(
            5.0 + math.exp(5.0), abs=1e-12
        )

    def test_length_mismatch_raises(self):
        with pytest.raises(ComputeError):
            static_score([0.0, 0.0], PAIN_PROFILE)

    @pytest.mark.parametrize("bad", [-0.1, 5.1, float("nan")])
    def test_out_of_range_level_raises(self, bad):
        with pytest.raises(ComputeError):
            static_score([bad] + [0.0] * 5, PAIN_PROFILE)

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=12))
    def test_matches_direct_summation(self, levels):
        profile = AuProfile("t", tuple(range(1, len(levels) + 1)))
        assert static_score(levels, profile) == pytest.approx(
            naive_static(levels), rel=1e-12
        )

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=12))
    def test_at_least_profile_size(self, levels):
        profile = AuProfile("t", tuple(range(1, len(levels) + 1)))
        assert static_score(levels, profile) >= len(profile)


class TestRelativeChange:
    def test_hand_fixture(self):
        # var([0, 2]) cancels: change is entirely in the second component
        assert relative_change([0.0, 0.0], [0.0, 2.0]) == 1.0

    def test_both_constant_guards_to_zero(self):
        assert relative_change([3.0, 3.0, 3.0], [7.0, 7.0, 7.0]) == 0.0

    def test_identical_vectors_zero(self):
        assert relative_change([1.0, 4.0, 2.0], [1.0, 4.0, 2.0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ComputeError):
            relative_change([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_scalar_vectors_rejected(self):
        with pytest.raises(ComputeError):
            relative_change([1.0], [2.0])

    def test_2d_input_rejected(self):
        with pytest.raises(ComputeError):
            relative_change([[1.0, 2.0]], [[3.0, 4.0]])

    @given(vectors, vectors)
    @example(a=[699050.9771707852] * 3, b=[0.0, 0.0])
    def test_matches_naive_oracle(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        got = relative_change(a, b)
        if len(set(a)) == len(set(b)) == 1:
            # both constant: the guard gives exactly 0, while the oracle's mean of
            # [c, c, c] can round off c and leave a ratio of two rounding errors
            assert got == 0.0
            return
        want = naive_relative_change(a, b)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(vectors, vectors)
    def test_symmetric(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        assert relative_change(a, b) == relative_change(b, a)

    @given(
        st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=2, max_size=30),
        st.integers(min_value=-10**6, max_value=10**6),
    )
    def test_uniform_shift_is_zero_change(self, a, c):
        # integer inputs keep the element-wise differences exact in float
        a = [float(v) for v in a]
        shifted = [v + c for v in a]
        assert relative_change(a, shifted) == 0.0

    @given(vectors, vectors)
    def test_nonnegative(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        assert relative_change(a, b) >= 0.0


class TestNumpyEquivalents:
    """The engine's own forms of numpy reductions give numpy's bits."""

    @pytest.mark.parametrize("shape", [(1, 2), (5, 3), (300, 6), (41, 136), (7, 1000)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_row_var_is_numpy_var(self, shape, layout):
        rng = np.random.default_rng(shape[0] * shape[1])
        mat = rng.normal(size=(shape[0], 2 * shape[1])) * 10.0 ** rng.integers(-8, 8)
        mat = mat[:, ::2] if layout == "strided" else mat[:, : shape[1]].copy(order=layout)
        mat[-1] = 0.1 * 3  # a constant row reads exactly 0
        want = mat.var(axis=1, ddof=1)
        want[-1] = 0.0
        got = engine._row_var(mat)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size, window", [(1, 1), (9, 1), (9, 4), (299, 10), (299, 299)])
    def test_window_sums_are_sliding_window_sums(self, size, window):
        products = np.random.default_rng(size).normal(size=size) * 1e-3
        want = sliding_window_view(products, window).sum(axis=1)
        assert engine._window_sums(products, window).tobytes() == want.tobytes()


class TestDirectionSign:
    def test_zero_sum_is_positive(self):
        assert direction_sign([1.0, -1.0], [-1.0, 1.0]) == 1

    def test_negative_displacement(self):
        assert direction_sign([5.0, 5.0], [1.0, 2.0]) == -1

    @given(vectors, vectors)
    def test_matches_sign_of_sum(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        want = 1 if sum(y - x for x, y in zip(a, b)) >= 0 else -1
        assert direction_sign(a, b) == want

    @given(vectors, vectors)
    def test_antisymmetric_off_boundary(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        if sum(y - x for x, y in zip(a, b)) != 0:
            assert direction_sign(a, b) == -direction_sign(b, a)


class TestDynamicsState:
    def test_warm_up_then_window_fixture(self):
        state = DynamicsState(window=3)
        assert state.push_product("L", 1.0) == 1.0
        assert state.push_product("L", -0.5) == 0.25
        assert state.push_product("L", 0.0) == pytest.approx(1.0 / 6.0)
        # fourth push evicts the first value
        assert state.push_product("L", 0.5) == 0.0

    def test_streams_are_independent(self):
        state = DynamicsState(window=2)
        state.push_product("L", 4.0)
        assert state.push_product("Ho", 2.0) == 2.0

    def test_window_below_one_rejected(self):
        with pytest.raises(ComputeError):
            DynamicsState(window=0)

    def test_non_finite_product_rejected(self):
        state = DynamicsState(window=3)
        with pytest.raises(ComputeError):
            state.push_product("L", float("nan"))

    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=20),
    )
    def test_streaming_equals_recomputation(self, products, window):
        state = DynamicsState(window=window)
        streamed = [state.push_product("I", p) for p in products]
        assert streamed == naive_window_mean(products, window)


def _naive_forward_means(products, window):
    out = [0.0]
    for i in range(len(products)):
        chunk = products[i : i + window]
        out.append(sum(chunk) / len(chunk))
    return out


class TestScoreSequence:
    def test_constant_sequence_scores_static_only(self):
        seq = make_constant_sequence(20)
        scored = score_sequence(seq, TedConfig(window=5))
        assert len(scored) == 20
        for sf in scored:
            assert sf.ted_score == 6.0
            assert sf.static_score == 6.0

    def test_first_frame_equals_static(self, rng):
        seq = make_random_sequence(30, seed=3)
        scored = score_sequence(seq, TedConfig(window=4))
        assert scored[0].ted_score == scored[0].static_score
        assert all(scored[0].dynamics[fs] == 0.0 for fs in scored[0].dynamics)

    def test_single_frame_sequence(self):
        seq = make_random_sequence(1, seed=9)
        scored = score_sequence(seq, TedConfig(window=10))
        assert len(scored) == 1
        assert scored[0].ted_score == scored[0].static_score

    def test_zero_dynamics_stream_collapses_to_static(self):
        # constant AU levels make M_I exactly 0, so the six-way product
        # vanishes and every score falls back to the static term
        rng = np.random.default_rng(5)
        aus = {au: 1.5 for au in PAIN_PROFILE.au_ids}
        frames = [make_frame(i + 1, rng, au_levels=aus) for i in range(25)]
        seq = SequenceRecord("S1", "01", frames)
        scored = score_sequence(seq, TedConfig(window=5))
        for sf in scored:
            assert sf.ted_score == sf.static_score

    @pytest.mark.parametrize("window", [1, 3, 10, 50])
    def test_matches_naive_pipeline(self, window):
        cfg = TedConfig(window=window)
        for seed in range(5):
            seq = make_random_sequence(40, seed=seed)
            scored = score_sequence(seq, cfg)
            expected = naive_score_sequence(seq, cfg)
            for sf, want in zip(scored, expected):
                assert sf.ted_score == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_feature_subset_matches_naive(self):
        cfg = TedConfig(window=7, feature_sets=frozenset({"L", "I"}))
        seq = make_random_sequence(35, seed=11)
        scored = score_sequence(seq, cfg)
        expected = naive_score_sequence(seq, cfg)
        for sf, want in zip(scored, expected):
            assert sf.ted_score == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert sf.dynamics["Ho"] == 0.0  # disabled stream reports no dynamics

    def test_forward_orientation(self):
        cfg = TedConfig(window=6, window_orientation="forward")
        seq = make_random_sequence(30, seed=13)
        dyn = SequenceDynamics(seq, cfg)
        dynamics = dyn.scores(6).dynamics
        for fs in dyn.enabled:
            means = dynamics[:, FEATURE_SETS.index(fs)]
            want = _naive_forward_means(list(dyn.products[fs]), 6)
            assert np.allclose(means, want, rtol=1e-12, atol=1e-12)

    @given(st.integers(1, 60), st.integers(1, 80), st.integers(0, 2**16))
    @example(n_frames=1, window=1, seed=0)
    @example(n_frames=2, window=1, seed=1)
    @example(n_frames=30, window=31, seed=2)  # windows longer than the sequence
    @example(n_frames=40, window=80, seed=3)
    @example(n_frames=60, window=59, seed=4)
    @settings(deadline=None)
    def test_forward_means_match_naive(self, n_frames, window, seed):
        seq = make_random_sequence(n_frames, seed=seed)
        dyn = SequenceDynamics(seq, TedConfig(window_orientation="forward"))
        s = dyn.scores(window)
        assert (s.dynamics[0] == 0.0).all()  # frame 1 is the reference frame
        assert s.ted[0] == s.static[0]
        for fs in dyn.enabled:
            want = _naive_forward_means(dyn.products[fs].tolist(), window)
            assert np.allclose(s.dynamics[:, FEATURE_SETS.index(fs)], want,
                               rtol=1e-12, atol=1e-12)

    def test_window_larger_than_sequence(self):
        cfg = TedConfig(window=500)
        seq = make_random_sequence(12, seed=17)
        scored = score_sequence(seq, cfg)
        expected = naive_score_sequence(seq, cfg)
        for sf, want in zip(scored, expected):
            assert sf.ted_score == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_failed_tracking_carries_last_valid_features(self):
        rng = np.random.default_rng(23)
        frames = [make_frame(i + 1, rng) for i in range(10)]
        # tracker garbage in geometry only; AU levels (used by the static
        # term, which always reads the frame's own coding) stay valid
        same_aus = {au: frames[4].au_level(au) for au in PAIN_PROFILE.au_ids}
        garbage = make_frame(
            6, np.random.default_rng(99), au_levels=same_aus, tracking_ok=False
        )
        broken = frames[:5] + [garbage] + frames[6:]
        seq = SequenceRecord("S1", "01", broken)

        # reference: frame 6 replaced by frame 5's features
        clone = FrameFeatures(
            frame_index=6,
            landmarks=frames[4].landmarks,
            head_translation=frames[4].head_translation,
            head_rotation=frames[4].head_rotation,
            gaze_left=frames[4].gaze_left,
            gaze_right=frames[4].gaze_right,
            au_intensities=frames[4].au_intensities,
        )
        ref = SequenceRecord("S1", "01", frames[:5] + [clone] + frames[6:])

        cfg = TedConfig(window=3)
        got = score_sequence(seq, cfg)
        want = score_sequence(ref, cfg)
        assert [sf.ted_score for sf in got] == [sf.ted_score for sf in want]
        assert got[5].tracking_ok is False

    def test_empty_sequence_raises(self):
        with pytest.raises(ComputeError):
            score_sequence(SequenceRecord("S1", "01", []), TedConfig())

    @pytest.mark.parametrize("level", [-0.1, 5.5, float("nan")])
    def test_au_level_outside_scale_raises(self, level):
        seq = make_random_sequence(4, seed=3)
        seq.frames.au_levels[2, 1] = level
        with pytest.raises(ComputeError, match=r"^AU level outside \[0, 5\] at frame 3$"):
            score_sequence(seq, TedConfig())


class TestScoreDataset:
    def test_one_error_names_every_failing_sequence(self):
        bad_frame = FrameFeatures(
            frame_index=1,
            landmarks=(),
            head_translation=(0.0, 0.0, 0.0),
            head_rotation=(0.0, 0.0, 0.0),
            gaze_left=(0.0, 0.0, 0.0),
            gaze_right=(0.0, 0.0, 0.0),
            au_intensities={au: 0.0 for au in PAIN_PROFILE.au_ids},
        )
        records = [
            SequenceRecord("S3", "01", [bad_frame, bad_frame]),
            make_random_sequence(10, seed=1, subject="S1"),
            SequenceRecord("S2", "01", [bad_frame, bad_frame]),
        ]
        with pytest.raises(ComputeError) as info:
            score_dataset(records, TedConfig(window=2))
        reason = "feature set L has 0 component(s); relative change needs at least 2"
        assert str(info.value) == f"sequence S2/01: {reason}; sequence S3/01: {reason}"


class TestScoresCsv:
    def test_rewrite_is_byte_identical(self, tmp_path):
        records = [make_random_sequence(10, seed=2)]
        results = score_dataset(records, TedConfig(window=3))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores_csv(results, a)
        write_scores_csv(results, b)
        assert a.read_bytes() == b.read_bytes()

    def test_matches_csv_writer_reference(self, tmp_path):
        """One format per row writes what csv.writer wrote cell by cell."""
        specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, -2.5e-17]
        rows = len(specials)

        def scores(shift):
            values = np.roll(specials, shift)
            return SequenceScores(
                frame_index=np.arange(1, rows + 1) * 10**shift,
                static=values,
                dynamics=np.stack([np.roll(values, k) for k in range(6)], axis=1),
                ted=-values,
                tracking_ok=np.arange(rows) % 3 != 0,
            )

        ids = ["a,b", 'q"t', " lead", "trail ", "100%", "%d", "x\ny", "plain", ""]
        results = {(s, q): scores(i % rows) for i, (s, q) in enumerate(zip(ids, ids[::-1]))}
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_scores_csv(results, got)
        with open(want, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject", "sequence", "frame", "S", "M_L", "M_Ho", "M_Hr",
                             "M_Gl", "M_Gr", "M_I", "ted_score", "tracking_ok"])
            for key in sorted(results):
                s = results[key]
                for frame, static, dynamics, ted, ok in zip(
                    s.frame_index.tolist(), s.static.tolist(), s.dynamics.tolist(),
                    s.ted.tolist(), s.tracking_ok.tolist(),
                ):
                    values = [static, *dynamics, ted]
                    writer.writerow([*key, frame, *(format(x, ".17g") for x in values), int(ok)])
        assert got.read_bytes() == want.read_bytes()
        assert b'"a,b"' in got.read_bytes() and b'"q""t"' in got.read_bytes()
