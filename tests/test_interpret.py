
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive import naive_f1
from ted.errors import ComputeError, ParseError
from ted.forest import ForestHyperparams
from ted.interpret import (
    AgreementThresholds,
    Prediction,
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
        assert len(result.predictions) == len(table.keys)
        assert result.predictions == sorted(result.predictions, key=lambda p: p.key)

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
        assert {p.key[0] for p in result.predictions} == set(subjects[1:])

    def test_deterministic_for_seed(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        a = loso_validate(table, ForestHyperparams(n_trees=10), seed=1)
        b = loso_validate(table, ForestHyperparams(n_trees=10), seed=1)
        assert a.per_subject_f1 == b.per_subject_f1
        assert a.predictions == b.predictions


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


class TestJoinLabels:
    def test_ground_truth_comes_from_the_table(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        joined = join_labels(table, [Prediction(key, 0.7) for key in table.keys])
        assert [p.key for p in joined] == table.keys
        assert [p.label_pain for p in joined] == [bool(label) for label in table.y]
        assert all(p.confidence_pain == 0.7 for p in joined)

    def test_unknown_frame_rejected(self, separable):
        table = build_frame_table(separable, PAIN_PROFILE)
        with pytest.raises(ComputeError, match="not in dataset"):
            join_labels(table, [Prediction(("ZZ", "99", 1), 0.7)])


class TestPredictionsCsv:
    def test_round_trip(self, tmp_path):
        preds, _ = planted_predictions()
        path = tmp_path / "p.csv"
        write_predictions_csv(preds, path)
        loaded = read_predictions_csv(path)
        assert [p.key for p in loaded] == [p.key for p in preds]
        assert [p.confidence_pain for p in loaded] == [
            p.confidence_pain for p in preds
        ]
        # labels do not travel through the CSV
        assert all(p.label_pain is None for p in loaded)

    def test_bad_confidence_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "subject,sequence,frame,confidence_pain\nS1,01,1,1.5\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="outside"):
            read_predictions_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("S1,01,1,0.5\n\nS1,01,2,1.5\n", "confidence outside [0, 1] on line 4"),
            ("\nS1,01,1,0.5\n\nS1,01,1,0.6\n", "line 5 repeats frame ('S1', '01', 1) of line 3"),
        ],
    )
    def test_line_numbers_count_blank_lines(self, tmp_path, rows, message):
        path = tmp_path / "p.csv"
        path.write_text("subject,sequence,frame,confidence_pain\n" + rows, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_predictions_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("subject,sequence,frame\nS1,01,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="columns"):
            read_predictions_csv(path)
