import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import make_frame, make_random_sequence
from naive import naive_pearson, naive_quartiles
from ted.analytics import (
    AblationReport,
    DEFAULT_WINDOW_SWEEP,
    SubjectCorrelation,
    WindowResult,
    evaluate_dataset,
    evaluate_subject,
    pcc_p_value,
    pearson,
    summarize,
    window_ablation,
)
from ted.engine import score_dataset
from ted.errors import ComputeError
from ted.model import SequenceLabels, SequenceRecord, TedConfig

series = st.lists(
    st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=50
)


@pytest.fixture(scope="module")
def scipy_stats():
    """scipy's distributions, an oracle for p-values; scipy is a test dependency only."""
    return pytest.importorskip("scipy.stats")


def paired(a, b):
    if len(a) != len(b):
        b = (b * len(a))[: len(a)]
    return a, b


class TestPearson:
    def test_hand_fixture(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == 1.0
        assert pearson([1, 2, 3], [30, 20, 10]) == -1.0

    def test_constant_series_rejected(self):
        with pytest.raises(ComputeError, match="constant"):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_series_rejected(self, bad, position, side):
        series = [1.0, 2.0, 4.0]
        series[position] = bad
        x, y = (series, [1.0, 2.0, 3.0]) if side == "x" else ([1.0, 2.0, 3.0], series)
        with pytest.raises(ComputeError, match="non-finite"):
            pearson(x, y)

    def test_too_short_rejected(self):
        with pytest.raises(ComputeError, match="at least 3"):
            pearson([1, 2], [1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ComputeError, match="mismatch"):
            pearson([1, 2, 3], [1, 2])

    @pytest.mark.parametrize(
        "x, y, want",
        [
            ([0.0, 0.0, 1.0], [0.0, 0.0, 6.99e-160], 1.0),  # sums of squares are subnormal
            ([1e200, -1e200, 3e200], [1.0, 2.0, 3.0], 0.5),  # sums of squares overflow
            ([0.0, 0.0, 1e-320], [1.0, 2.0, 3.0], 3**0.5 / 2),  # the inputs are subnormal
        ],
    )
    def test_extreme_magnitudes(self, x, y, want):
        assert pearson(x, y) == pytest.approx(want, rel=1e-12)

    @given(series, series)
    @example([0.0, 0.0, 3.88e-15], [0.0, 0.0, 6.05e-147])  # pearson 1.0, the oracle 0.99568
    def test_matches_naive_oracle(self, x, y):
        x, y = paired(x, y)
        try:
            got = pearson(x, y)
            want = naive_pearson(x, y)
        except (ComputeError, ZeroDivisionError):
            # degenerate (near-constant) series: correlation undefined
            return
        # the oracle takes the square root of the product of the sums of squares, which
        # loses digits where that product is subnormal
        mx, my = sum(x) / len(x), sum(y) / len(y)
        assume(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y) >= sys.float_info.min)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(series, series)
    def test_symmetric_and_bounded(self, x, y):
        x, y = paired(x, y)
        try:
            got = pearson(x, y)
        except ComputeError:
            return
        assert -1.0 <= got <= 1.0
        assert got == pearson(y, x)

    @given(series, series)
    @example([0.0, 1.17e-14, 1.17e-14], [0.0, 0.0, 1.0])  # one centring pass gave 0.49992
    @example([0.0, 0.0, 1.0], [0.0, 0.0, 6.99e-160])  # a subnormal sum of squares gave 0.999998
    @example([1e200, -1e200, 3e200], [1.0, 2.0, 3.0])  # an overflowing one gave 0.0
    def test_invariant_under_positive_affine_map(self, x, y):
        x, y = paired(x, y)
        try:
            got = pearson(x, y)
        except ComputeError:
            return
        mapped = [3.0 * v + 7.0 for v in x]
        try:
            remapped = pearson(mapped, y)
        except ComputeError:
            # a spread far below the offset's precision collapses to constant
            return
        assert remapped == pytest.approx(got, rel=1e-9, abs=1e-9)


class TestPccPValue:
    def test_zero_correlation(self):
        assert pcc_p_value(0.0, 50) == 1.0

    def test_perfect_correlation(self):
        assert pcc_p_value(1.0, 50) == 0.0
        assert pcc_p_value(-1.0, 50) == 0.0

    def test_strong_correlation_is_significant(self):
        assert pcc_p_value(0.75, 100) < 0.005

    def test_rejects_small_n(self):
        with pytest.raises(ComputeError):
            pcc_p_value(0.5, 2)

    def test_rejects_out_of_range_r(self):
        with pytest.raises(ComputeError):
            pcc_p_value(1.5, 10)

    @given(
        st.floats(min_value=-0.999, max_value=0.999),
        st.integers(min_value=3, max_value=500),
    )
    def test_matches_t_distribution_tail(self, scipy_stats, r, n):
        df = n - 2
        t = abs(r) * math.sqrt(df / (1.0 - r * r))
        want = 2.0 * scipy_stats.t.sf(t, df)
        assert pcc_p_value(r, n) == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_monotone_in_strength(self):
        values = [pcc_p_value(r, 30) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values, reverse=True)

    # p = I_{1-r^2}((n-2)/2, 1/2), computed once with mpmath 1.3 at mp.dps = 50 as
    # betainc(mpf(n - 2) / 2, mpf(1) / 2, 0, 1 - mpf(r) ** 2, regularized=True), where
    # mpf(r) is the float literal's exact value, and rounded to the nearest float
    @pytest.mark.parametrize(
        "r, n, want",
        [
            (1e-8, 2400, 0.9999996093216237),  # 1 - x rounded away gave 0.99999942
            (1e-3, 25, 0.9962148477640254),
            (0.5, 3, 0.6666666666666666),
            (-0.999999999999, 3, 9.003063578293236e-07),
            (-0.9, 4, 0.09999999999999998),
            (0.999999999999, 10, 4.3746128827384104e-48),
            (0.3, 50, 0.03428618003292997),
            (-0.45, 120, 2.5160714595472443e-07),
            (0.03, 3232, 0.08814883393832779),
            (0.01, 60000, 0.014305472940677293),
            (0.02, 60000, 9.614570298850502e-07),
            (0.9, 400, 1.3158170182538829e-145),
            (0.5, 2000, 5.4723149281146405e-127),
        ],
    )
    def test_matches_high_precision_reference(self, r, n, want):
        assert pcc_p_value(r, n) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_unconverged_fraction_is_compute_error(self, monkeypatch):
        monkeypatch.setattr("ted.analytics._BETA_FRACTION_PAIRS", 2)
        with pytest.raises(ComputeError, match="did not converge"):
            pcc_p_value(0.03, 3232)

    def test_monotone_in_sample_size(self):
        values = [pcc_p_value(0.4, n) for n in (5, 10, 50, 200)]
        assert values == sorted(values, reverse=True)


class TestEvaluate:
    def test_subject_correlation_fields(self):
        sc = evaluate_subject("S1", [1, 2, 3, 4], [1, 3, 2, 4])
        assert sc.pcc == pytest.approx(0.8)
        assert sc.n_frames == 4
        assert 0.0 < sc.p_value <= 1.0

    def test_dataset_excludes_failed_tracking_frames(self):
        pspi = [0.0, 1.0, 16.0, 3.0, 0.0, 2.0]
        rec = SequenceRecord("S1", "01", [make_frame(i + 1) for i in range(6)], pspi=pspi)
        rec.frames.tracking_ok[2] = False
        result = evaluate_dataset([rec], TedConfig(window=2))
        assert result[0].n_frames == 5

    def test_missing_pspi_rejected(self):
        rec = make_random_sequence(10)
        with pytest.raises(ComputeError, match="PSPI"):
            evaluate_dataset([rec], TedConfig(window=2))

    @pytest.mark.parametrize("n_labels", [8, 12])
    def test_pspi_length_mismatch_rejected(self, n_labels):
        rec = make_random_sequence(10)
        rec.pspi = np.full(n_labels, 1.0)
        with pytest.raises(ComputeError, match=f"{n_labels} PSPI labels for 10 frames"):
            evaluate_dataset([rec], TedConfig(window=2))


    def test_undefined_subject_left_out_with_finding(self):
        records = _labeled_records()
        records[1].pspi = np.full_like(records[1].pspi, 2.0)
        findings = []
        result = evaluate_dataset(records, TedConfig(window=2), findings)
        assert [c.subject_id for c in result] == ["S0", "S2"]
        assert result == evaluate_dataset(records[::2], TedConfig(window=2))
        assert findings == [
            "subject S1: correlation undefined for a constant series; left out",
            "mean PCC covers 2 of 3 subjects",
        ]

    def test_too_few_frames_is_undefined(self):
        records = _labeled_records()
        records[0].frames.tracking_ok[2:] = False
        findings = []
        assert len(evaluate_dataset(records, TedConfig(window=2), findings)) == 2
        assert findings[0] == "subject S0: need at least 3 points, got 2; left out"


def _labeled_records(n_subjects=3, n_frames=30):
    records = []
    rng = np.random.default_rng(0)
    for s in range(n_subjects):
        rec = make_random_sequence(n_frames, seed=s, subject=f"S{s}")
        rec.pspi = rng.uniform(0, 16, n_frames)
        rec.labels = SequenceLabels(vas=s * 2, opi=s)
        rec.gender = "female" if s % 2 == 0 else "male"
        records.append(rec)
    return records


class TestWindowAblation:
    def test_matches_single_window_evaluation(self):
        records = _labeled_records()
        cfg = TedConfig(window=5)
        report = window_ablation(records, cfg, windows=(5, 12))
        direct = evaluate_dataset(records, cfg)
        by_window = {w.window: w for w in report.windows}
        assert [s.pcc for s in by_window[5].subjects] == [s.pcc for s in direct]

    def test_windows_deduplicated_and_sorted(self):
        records = _labeled_records()
        report = window_ablation(records, TedConfig(), windows=(12, 5, 5))
        assert [w.window for w in report.windows] == [5, 12]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ComputeError):
            window_ablation(_labeled_records(), TedConfig(), windows=())

    def test_best_window_tie_prefers_smaller(self):
        def wr(window, mean):
            sc = SubjectCorrelation("S1", mean, 0.5, 10)
            return WindowResult(window, (sc,), mean, mean, mean, mean)

        report = AblationReport(windows=(wr(3, 0.7), wr(10, 0.9), wr(20, 0.9)))
        assert report.best_window == 10

    def test_report_serialization(self):
        records = _labeled_records()
        report = window_ablation(records, TedConfig(), windows=(3, 5))
        payload = report.to_dict()
        assert payload["best_window"] in (3, 5)
        assert [w["window"] for w in payload["windows"]] == [3, 5]
        assert set(payload["windows"][0]["subjects"][0]) == {
            "subject_id", "pcc", "p_value", "n_frames"
        }
        assert "best window" in report.to_text()

    def test_default_sweep_is_ascending(self):
        assert list(DEFAULT_WINDOW_SWEEP) == sorted(set(DEFAULT_WINDOW_SWEEP))


class TestSummarize:
    def _report(self, transform="log", scale="VAS"):
        records = _labeled_records()
        results = score_dataset(records, TedConfig(window=5))
        series = {key: scores.ted for key, scores in results.items()}
        return records, series, summarize(records, series, scale, transform)

    def test_group_stats_against_brute_force(self):
        records, series, report = self._report()
        for group in report.groups:
            keys = [
                r.key
                for r in records
                if r.labels.vas == group.label and r.gender == group.gender
            ]
            values = [math.log(v) for k in keys for v in series[k]]
            q1, med, q3 = naive_quartiles(values)
            assert group.count == len(values)
            assert group.min == min(values)
            assert group.max == max(values)
            assert group.q1 == pytest.approx(q1, rel=1e-12)
            assert group.median == pytest.approx(med, rel=1e-12)
            assert group.q3 == pytest.approx(q3, rel=1e-12)
            assert group.mean == pytest.approx(sum(values) / len(values), rel=1e-12)

    def test_raw_transform_skips_log(self):
        records, series, report = self._report(transform="none")
        total = sum(g.count for g in report.groups)
        assert total == sum(len(v) for v in series.values())
        assert all(g.min >= 6.0 * 0.0 for g in report.groups)

    def test_opi_scale_grouping(self):
        _, _, report = self._report(scale="OPI")
        assert {g.label for g in report.groups} == {0, 1, 2}

    def test_missing_label_rejected(self):
        records = _labeled_records()
        records[0].labels = None
        results = score_dataset(records, TedConfig(window=5))
        series = {k: v.ted for k, v in results.items()}
        with pytest.raises(ComputeError, match="label"):
            summarize(records, series)

    def test_unknown_scale_or_transform_rejected(self):
        records, series, _ = self._report()
        with pytest.raises(ComputeError):
            summarize(records, series, scale="SEN")
        with pytest.raises(ComputeError):
            summarize(records, series, transform="sqrt")

    def test_log_transform_rejects_non_positive_scores(self):
        rec = _labeled_records(n_subjects=1, n_frames=2)[0]
        series = {rec.key: [5.0, -1.0]}
        with pytest.raises(ComputeError, match="non-positive"):
            summarize([rec], series, transform="log")

    def test_singleton_group_has_zero_std(self):
        rec = _labeled_records(n_subjects=1, n_frames=1)[0]
        series = {rec.key: [7.0]}
        report = summarize([rec], series, transform="none")
        assert report.groups[0].std == 0.0

    def test_plot_data_csv(self, tmp_path):
        _, _, report = self._report()
        path = tmp_path / "plot.csv"
        report.write_plot_data(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("scale,label,gender")
        assert len(lines) == len(report.groups) + 1
