
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive import naive_f1
from ted.analytics import pearson
from ted.errors import ComputeError, ParseError
from ted.forest import ForestHyperparams
from ted.interpret import (
    AgreementResult,
    AgreementThresholds,
    DisagreementFlag,
    Prediction,
    Predictions,
    SCENARIOS,
    agreement_analysis,
    build_frame_table,
    f1_pain,
    join_labels,
    loso_validate,
    read_predictions_csv,
    scenario_partition,
    write_predictions_csv,
)
from ted.model import PAIN_PROFILE
from ted.synthetic import make_separable_dataset


@pytest.fixture(scope="module")
def separable():
    return make_separable_dataset(n_subjects=4, n_sequences=1, n_frames=60, seed=7)


class TestFrameTable:
    def test_rows_follow_profile_order_and_threshold(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        assert table.X.shape == (240, len(PAIN_PROFILE))
        assert set(table.y) == {0, 1}
        # label is pain exactly when PSPI exceeds the threshold
        by_key = {rec.key: rec for rec in separable}
        for key, label in zip(table.keys, table.y):
            rec = by_key[(key[0], key[1])]
            pspi = rec.pspi[key[2] - 1]
            assert label == (1 if pspi > 0.0 else 0)

    def test_threshold_shifts_labels(self, separable):
        strict = build_frame_table(separable, PAIN_PROFILE, pspi_threshold=6.0)
        default = build_frame_table(separable, PAIN_PROFILE)
        assert strict.y.sum() < default.y.sum()

    def test_missing_pspi_rejected(self, separable):
        broken = [
            type(rec)(rec.subject_id, rec.sequence_id, rec.frames)
            for rec in separable
        ]
        with pytest.raises(ComputeError, match="PSPI"):
            build_frame_table(broken, PAIN_PROFILE)

    def test_empty_input_rejected(self):
        with pytest.raises(ComputeError):
            build_frame_table([], PAIN_PROFILE)

    def test_repeated_frame_rejected(self, separable):
        """A repeated frame would key two rows alike; no feature file can hold one."""
        rec = separable[0]
        frames = rec.frames.frame_index.copy()
        frames[7] = 5
        repeated = dataclasses.replace(rec.frames, frame_index=frames)
        with pytest.raises(ComputeError) as info:
            build_frame_table(
                [dataclasses.replace(rec, frames=repeated), *separable[1:]], PAIN_PROFILE
            )
        assert str(info.value) == "sequence P001/01 repeats frame 5"


class TestF1:
    def test_perfect_and_degenerate(self):
        ones = np.ones(4, dtype=int)
        zeros = np.zeros(4, dtype=int)
        assert f1_pain(ones, ones) == 1.0
        assert f1_pain(zeros, zeros) == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60
        )
    )
    def test_matches_confusion_matrix_oracle(self, pairs):
        labels = np.array([p[0] for p in pairs])
        predicted = np.array([p[1] for p in pairs])
        assert f1_pain(labels, predicted) == naive_f1(labels, predicted)


class TestScenarios:
    def test_mapping_fixtures(self):
        assert Prediction(("S", "1", 1), 0.9, True).scenario == "TP"
        assert Prediction(("S", "1", 1), 0.2, True).scenario == "type2"
        assert Prediction(("S", "1", 1), 0.9, False).scenario == "type1"
        assert Prediction(("S", "1", 1), 0.2, False).scenario == "TN"
        # the 0.5 decision boundary itself predicts pain
        assert Prediction(("S", "1", 1), 0.5, True).scenario == "TP"

    def test_unlabeled_prediction_rejected(self):
        with pytest.raises(ComputeError):
            Prediction(("S", "1", 1), 0.9).scenario

    def test_unlabeled_prediction_names_its_frame(self):
        with pytest.raises(ComputeError) as exc:
            Prediction(("P1", "01", 3), 0.9).scenario
        assert str(exc.value) == "prediction P1/01 frame 3 has no ground truth"

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.booleans()), min_size=0, max_size=80
        )
    )
    def test_partition_is_exhaustive_and_disjoint(self, raw):
        preds = [
            Prediction(("S", "1", i + 1), conf, label)
            for i, (conf, label) in enumerate(raw)
        ]
        buckets = scenario_partition(preds)
        assert set(buckets) == set(SCENARIOS)
        assert sum(len(v) for v in buckets.values()) == len(preds)
        seen = [p.key for v in buckets.values() for p in v]
        assert len(seen) == len(set(seen))


class TestLoso:
    def test_separable_dataset_classifies_well(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        result = loso_validate(table, ForestHyperparams(n_trees=30), seed=7)
        assert set(result.per_subject_f1) == {r.subject_id for r in separable}
        assert result.mean_f1 >= 0.95
        assert len(result.predictions.keys) == len(table.keys)
        assert result.predictions.keys == sorted(result.predictions.keys)
        # each prediction names its frame-table row and carries that row's label
        assert [table.keys[row] for row in result.rows] == result.predictions.keys
        assert np.array_equal(result.predictions.label_pain, table.y[result.rows] == 1)
        assert result.predictions.confidence.shape == result.rows.shape

    def test_predictions_in_key_order_when_frames_do_not_ascend(self, separable):
        rec = separable[1]
        perm = np.r_[0:10, 11, 10, 12:len(rec.frames)]  # frames 11 and 12 swap rows
        frames = dataclasses.replace(
            rec.frames,
            frame_index=rec.frames.frame_index[perm],
            tracking_ok=rec.frames.tracking_ok[perm],
            geometry=rec.frames.geometry[perm],
            au_levels=rec.frames.au_levels[perm],
        )
        swapped = dataclasses.replace(rec, frames=frames, pspi=rec.pspi[perm])
        table = build_frame_table([separable[0], swapped, *separable[2:]], PAIN_PROFILE)
        assert table.keys[60 + 10][2] == 12  # the table keeps file order
        result = loso_validate(table, ForestHyperparams(n_trees=5), seed=1)
        assert result.predictions.keys == sorted(table.keys)
        assert [table.keys[row] for row in result.rows] == result.predictions.keys
        assert result.rows[70:72].tolist() == [71, 70]

    def test_single_subject_rejected(self, separable):
        table = build_frame_table(separable[:1], PAIN_PROFILE)
        with pytest.raises(ComputeError, match="2 subjects"):
            loso_validate(table)

    def test_single_class_training_fold_skipped(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        subjects = sorted({key[0] for key in table.keys})
        # pain only in the first subject: its fold trains on neutral frames alone
        table.y[[key[0] != subjects[0] for key in table.keys]] = 0
        result = loso_validate(table, ForestHyperparams(n_trees=5), seed=1)
        assert sorted(result.per_subject_f1) == subjects[1:]
        assert result.findings == [
            f"subject {subjects[0]}: training set has a single class; fold skipped",
            f"mean F1 covers {len(subjects) - 1} of {len(subjects)} folds",
        ]
        assert {key[0] for key in result.predictions.keys} == set(subjects[1:])
        assert not np.isnan(result.predictions.confidence).any()

    def test_deterministic_for_seed(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        a = loso_validate(table, ForestHyperparams(n_trees=10), seed=1)
        b = loso_validate(table, ForestHyperparams(n_trees=10), seed=1)
        assert a.per_subject_f1 == b.per_subject_f1
        assert a.predictions.keys == b.predictions.keys
        assert np.array_equal(a.predictions.confidence, b.predictions.confidence)
        assert np.array_equal(a.predictions.label_pain, b.predictions.label_pain)
        assert np.array_equal(a.rows, b.rows)


def planted_predictions():
    """Four agreeing frames plus one of each disagreement kind."""
    preds = [
        Prediction(("S1", "01", 1), 0.95, True),   # high score, high confidence
        Prediction(("S1", "01", 2), 0.05, False),  # low score, low confidence
        Prediction(("S1", "01", 3), 0.6, True),
        Prediction(("S1", "01", 4), 0.4, False),
        Prediction(("S1", "01", 5), 0.05, True),   # high score, low confidence
        Prediction(("S1", "01", 6), 0.95, False),  # low score, high confidence
    ]
    ted = {
        ("S1", "01", 1): 150.0,
        ("S1", "01", 2): 7.0,
        ("S1", "01", 3): 60.0,
        ("S1", "01", 4): 40.0,
        ("S1", "01", 5): 180.0,
        ("S1", "01", 6): 6.5,
    }
    return preds, ted


def per_frame_agreement(predictions, ted_by_key, thresholds):
    """The per-frame agreement loop that `agreement_analysis` replaced: the oracle."""
    buckets = {s: [p for p in predictions if p.scenario == s] for s in SCENARIOS}
    correlations, findings = {}, []
    for scenario in SCENARIOS:
        preds = buckets[scenario]
        if not preds:
            findings.append(f"scenario {scenario} is empty; omitted")
            continue
        ted = [ted_by_key[p.key] for p in preds]
        conf = [p.confidence_pain for p in preds]
        try:
            correlations[scenario] = pearson(ted, conf)
        except ComputeError as exc:
            findings.append(f"scenario {scenario}: {exc}")
    flags = []
    for pred in sorted(predictions, key=lambda p: p.key):
        ted = ted_by_key[pred.key]
        reason = None
        if ted >= thresholds.ted_high and pred.confidence_pain <= thresholds.conf_low:
            reason = "high score, low confidence"
        elif ted <= thresholds.ted_low and pred.confidence_pain >= thresholds.conf_high:
            reason = "low score, high confidence"
        if reason is not None:
            flags.append(
                DisagreementFlag(*pred.key, ted, pred.confidence_pain, pred.scenario, reason)
            )
    return AgreementResult(
        scenario_counts={s: len(buckets[s]) for s in SCENARIOS},
        scenario_correlation=correlations,
        flags=flags,
        findings=findings,
    )


# scores on and around the default thresholds, so that ties and constant series occur
_ted = st.one_of(st.floats(0, 300), st.sampled_from([0.0, 10.0, 100.0, 250.0]))
_conf = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))


class TestAgreementMatchesPerFrameOracle:
    @given(
        rows=st.lists(
            st.tuples(
                # unique keys drawn in any order: frame numbers need not ascend
                st.tuples(
                    st.sampled_from(["S1", "S2", "S10"]),
                    st.sampled_from(["01", "02"]),
                    st.integers(1, 400),
                ),
                _conf,
                st.booleans(),
                _ted,
            ),
            max_size=80,
            unique_by=lambda row: row[0],
        ),
        thresholds=st.builds(
            AgreementThresholds, ted_high=_ted, conf_low=_conf, ted_low=_ted, conf_high=_conf
        ),
    )
    def test_columns_equal_the_per_frame_loop(self, rows, thresholds):
        keys = [row[0] for row in rows]
        predictions = Predictions(
            keys,
            np.array([row[1] for row in rows], dtype=float),
            np.array([row[2] for row in rows], dtype=bool),
        )
        ted = np.array([row[3] for row in rows], dtype=float)
        result = agreement_analysis(predictions, ted, thresholds)
        expected = per_frame_agreement(
            [Prediction(key, conf, label) for key, conf, label, _ in rows],
            {key: score for key, _, _, score in rows},
            thresholds,
        )
        assert result == expected
        assert [flag.key for flag in result.flags] == sorted(flag.key for flag in result.flags)


class TestAgreement:
    def test_flags_exactly_the_planted_disagreements(self):
        preds, ted = planted_predictions()
        result = agreement_analysis(preds, ted)
        assert [f.key[2] for f in result.flags] == [5, 6]
        assert result.scenario_counts == {"TP": 2, "TN": 2, "type1": 1, "type2": 1}
        assert result.flags[0].reason == "high score, low confidence"
        assert result.flags[1].reason == "low score, high confidence"
        assert result.flags[0].scenario == "type2"
        assert result.flags[1].scenario == "type1"

    def test_custom_thresholds(self):
        preds, ted = planted_predictions()
        thresholds = AgreementThresholds(ted_high=1000.0, conf_low=0.01,
                                         ted_low=0.0, conf_high=1.1)
        assert agreement_analysis(preds, ted, thresholds).flags == []

    def test_empty_scenarios_become_findings(self):
        preds, ted = planted_predictions()
        subset = preds[:2]
        result = agreement_analysis(subset, ted)
        assert result.scenario_counts == {"TP": 1, "TN": 1, "type1": 0, "type2": 0}
        assert any("type1" in f for f in result.findings)
        assert any("type2" in f for f in result.findings)

    def test_degenerate_correlation_becomes_finding(self):
        preds = [Prediction(("S1", "01", i), 0.9, True) for i in range(1, 5)]
        ted = {p.key: 100.0 + p.key[2] for p in preds}
        result = agreement_analysis(preds, ted)
        assert "TP" not in result.scenario_correlation
        assert any("TP" in f for f in result.findings)

    def test_missing_score_rejected(self):
        preds, ted = planted_predictions()
        del ted[("S1", "01", 3)]
        with pytest.raises(ComputeError, match="no expressiveness score"):
            agreement_analysis(preds, ted)

    def test_missing_score_names_its_frame(self):
        preds, ted = planted_predictions()
        del ted[("S1", "01", 3)]
        with pytest.raises(ComputeError) as exc:
            agreement_analysis(preds, ted)
        assert str(exc.value) == "prediction S1/01 frame 3 has no expressiveness score"


class TestJoinLabels:
    def test_ground_truth_comes_from_the_table(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        n = len(table.keys)
        joined, rows = join_labels(table, Predictions(table.keys, np.full(n, 0.7)), "p.csv")
        assert joined.keys == table.keys
        assert rows.tolist() == list(range(n))
        assert np.array_equal(joined.label_pain, table.y == 1)
        assert np.all(joined.confidence == 0.7)

    def test_external_order_is_kept(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        keys = table.keys[::-1]
        conf = np.linspace(0, 1, len(keys))
        joined, rows = join_labels(table, Predictions(keys, conf), "p.csv")
        assert joined.keys == keys
        assert np.array_equal(joined.confidence, conf)
        assert rows.tolist() == list(range(len(keys)))[::-1]
        assert np.array_equal(joined.label_pain, table.y[::-1] == 1)

    def test_unknown_frame_rejected(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        external = Predictions([table.keys[0], ("ZZ", "99", 1)], np.array([0.7, 0.7]))
        with pytest.raises(ComputeError) as info:
            join_labels(table, external, "p.csv")
        assert str(info.value) == "p.csv: external prediction ZZ/99 frame 1 not in dataset"


class TestPredictionsCsv:
    def test_round_trip(self, tmp_path):
        planted, _ = planted_predictions()
        keys = [p.key for p in planted] + [('S "2", left', "01", 1)]  # a key that needs quotes
        conf = np.array([p.confidence_pain for p in planted] + [1 / 3])
        path = tmp_path / "p.csv"
        write_predictions_csv(Predictions(keys, conf, np.ones(len(keys), dtype=bool)), path)
        loaded = read_predictions_csv(path)
        assert loaded.keys == keys
        assert np.array_equal(loaded.confidence, conf)
        # labels do not travel through the CSV
        assert loaded.label_pain is None
        lines = path.read_bytes().split(b"\r\n")
        assert lines[1] == b"S1,01,1,0.94999999999999996,pain"
        assert lines[-2] == b'"S ""2"", left",01,1,0.33333333333333331,neutral'

    def test_bad_confidence_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "subject,sequence,frame,confidence_pain\nS1,01,1,1.5\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="outside"):
            read_predictions_csv(path)

    # an empty line is a row of no cells, as in a feature file
    @pytest.mark.parametrize(
        "rows, line",
        [("S1,01,1,0.5\n\nS1,01,2,1.5\n", 3), ("\nS1,01,1,0.5\n\nS1,01,1,0.6\n", 2),
         ("S1,01,1,0.5\n\n", 3)],
        ids=["between-rows", "after-header", "after-last-row"],
    )
    def test_empty_line_is_refused(self, tmp_path, rows, line):
        path = tmp_path / "p.csv"
        path.write_text("subject,sequence,frame,confidence_pain\n" + rows, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_predictions_csv(path)
        assert str(info.value) == f"{path}: line {line} has 0 cells, the header has 4"

    @pytest.mark.parametrize("frame", ["9223372036854775808", "-9223372036854775809"])
    def test_frame_past_int64_is_refused(self, tmp_path, frame):
        path = tmp_path / "p.csv"
        path.write_text(
            f"subject,sequence,frame,confidence_pain\nS1,01,1,0.5\nS1,01,{frame},0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as info:
            read_predictions_csv(path)
        assert str(info.value) == (
            f"{path}: line 3, column 'frame': '{frame}' is outside the 64-bit integer range"
        )

    def test_open_quote_rejected(self, tmp_path):
        """A quote left open would read every later row into one trailing cell."""
        path = tmp_path / "p.csv"
        path.write_text(
            'subject,sequence,frame,confidence_pain\nS1,01,1,0.5,"\nS1,01,2,0.5\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as info:
            read_predictions_csv(path)
        assert str(info.value) == f"{path}: line 2: unexpected end of data"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("subject,sequence,frame\nS1,01,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="missing column 'confidence_pain'$"):
            read_predictions_csv(path)
