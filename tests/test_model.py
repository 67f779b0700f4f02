import dataclasses

import numpy as np
import pytest

from conftest import make_frame, make_random_sequence
from ted.errors import ComputeError, ConfigError
from ted.model import (
    AuProfile,
    BUILTIN_PROFILES,
    DatasetManifest,
    FEATURE_SETS,
    FrameColumns,
    HAPPY_PROFILE,
    ManifestEntry,
    PAIN_PREDICTED_PROFILE,
    PAIN_PROFILE,
    SequenceLabels,
    SequenceRecord,
    TedConfig,
    overall_profile,
    validate_sequence,
)


class TestAuProfile:
    def test_builtin_pain_profile(self):
        assert PAIN_PROFILE.au_ids == (4, 6, 9, 10, 25, 43)
        assert len(PAIN_PROFILE) == 6

    def test_predicted_profile_drops_eye_closure(self):
        assert 43 not in PAIN_PREDICTED_PROFILE.au_ids
        assert set(PAIN_PREDICTED_PROFILE.au_ids) == set(PAIN_PROFILE.au_ids) - {43}

    def test_happy_profile(self):
        assert HAPPY_PROFILE.au_ids == (6, 7, 12, 25, 26)

    def test_ids_are_sorted_on_construction(self):
        assert AuProfile("t", (25, 4, 9)).au_ids == (4, 9, 25)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            AuProfile("t", ())

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            AuProfile("t", (4, 4, 6))

    @pytest.mark.parametrize("au_ids, au", [((70, 71), 70), ((0, 4), 0), ((4, 65), 65)])
    def test_rejects_au_outside_facs_range(self, au_ids, au):
        with pytest.raises(ConfigError) as info:
            AuProfile("custom", au_ids)
        assert str(info.value) == f"profile 'custom' has AU {au} outside FACS range 1..64"

    def test_builtin_registry(self):
        assert set(BUILTIN_PROFILES) == {"pain", "pain_predicted", "happy"}

    def test_overall_profile_unions_all_aus(self):
        records = [make_random_sequence(3, seed=1), make_random_sequence(3, seed=2)]
        profile = overall_profile(records)
        assert profile.name == "overall"
        assert set(profile.au_ids) == set(PAIN_PROFILE.au_ids)

    def test_overall_profile_rejects_au_free_input(self):
        record = SequenceRecord("S1", "01", [make_frame(1, au_levels={})])
        assert record.frames.au_ids == ()
        with pytest.raises(ConfigError):
            overall_profile([record])


class TestFrameFeatures:
    def test_au_level_defaults_to_inactive(self):
        frame = make_frame(1, au_levels={4: 2.5})
        assert frame.au_level(4) == 2.5
        assert frame.au_level(12) == 0.0


class TestFrameColumns:
    def test_adapter_returns_the_original_frames(self):
        frames = [make_frame(1), make_frame(2, tracking_ok=False), make_frame(3)]
        cols = SequenceRecord("S1", "01", frames).frames
        assert isinstance(cols, FrameColumns)
        assert len(cols) == 3
        assert [cols[i] for i in range(3)] == frames
        assert cols[-1] == frames[-1]
        assert list(cols) == frames
        assert cols[1].tracking_ok is False
        with pytest.raises(IndexError):
            cols[3]

    def test_au_missing_from_some_frames_comes_back_as_zero(self):
        frames = [make_frame(1, au_levels={4: 2.0, 6: 1.0}), make_frame(2, au_levels={4: 3.0})]
        cols = FrameColumns.from_frames(frames)
        assert cols.au_ids == (4, 6)
        assert cols.au_levels.tolist() == [[2.0, 1.0], [3.0, 0.0]]
        assert cols[1].au_intensities == {4: 3.0, 6: 0.0}
        assert cols[0] == frames[0]

    def test_ragged_landmarks_raise(self):
        frames = [make_frame(1, n_landmarks=4), make_frame(2, n_landmarks=5)]
        with pytest.raises(ComputeError, match="constant-length"):
            SequenceRecord("S1", "01", frames)

    def test_empty_frame_list(self):
        cols = SequenceRecord("S1", "01", []).frames
        assert len(cols) == 0
        assert cols.geometry.shape == (0, 12)

    def test_stream_layout(self):
        frame = make_frame(1, au_levels={4: 2.0, 25: 1.5})
        object.__setattr__(frame, "landmarks", ((1.0, 2.0), (3.0, 4.0)))
        cols = FrameColumns.from_frames([frame])
        assert cols.stream("L").tolist() == [[1.0, 3.0, 2.0, 4.0]]
        assert cols.stream("Ho").tolist() == [list(frame.head_translation)]
        assert cols.stream("I", (25, 9, 4)).tolist() == [[1.5, 0.0, 2.0]]
        with pytest.raises(ComputeError, match="unknown feature set"):
            cols.stream("Z")

    def test_geometry_streams_are_views(self):
        cols = make_random_sequence(5).frames
        assert cols.geometry.shape == (5, 2 * 4 + 12)
        widths = [cols.stream(fs).shape[1] for fs in FEATURE_SETS[:5]]
        assert widths == [8, 3, 3, 3, 3]
        for fs in FEATURE_SETS[:5]:
            assert np.shares_memory(cols.stream(fs), cols.geometry), fs
        assert np.array_equal(
            np.concatenate([cols.stream(fs) for fs in FEATURE_SETS[:5]], axis=1), cols.geometry
        )

    def test_rejects_au_outside_facs_range(self):
        cols = FrameColumns.from_frames([make_frame(1)])
        with pytest.raises(ConfigError, match="FACS"):
            dataclasses.replace(cols, au_ids=(4, 70))


class TestSequenceRecord:
    def test_pspi_list_becomes_a_float64_array(self):
        rec = SequenceRecord("S1", "01", [make_frame(1), make_frame(2)], pspi=[0, 3])
        assert rec.pspi.dtype == np.float64
        assert rec.pspi.tolist() == [0.0, 3.0]
        assert rec.pspi_array() is rec.pspi


class TestTedConfig:
    def test_defaults(self):
        cfg = TedConfig()
        assert cfg.window == 10
        assert cfg.window_orientation == "trailing"
        assert cfg.profile is PAIN_PROFILE
        assert cfg.feature_sets == frozenset(FEATURE_SETS)

    def test_rejects_window_below_one(self):
        with pytest.raises(ConfigError):
            TedConfig(window=0)

    def test_rejects_unknown_orientation(self):
        with pytest.raises(ConfigError):
            TedConfig(window_orientation="centered")

    def test_rejects_empty_feature_sets(self):
        with pytest.raises(ConfigError):
            TedConfig(feature_sets=frozenset())

    def test_rejects_unknown_feature_sets(self):
        with pytest.raises(ConfigError):
            TedConfig(feature_sets=frozenset({"L", "Z"}))

    def test_i_stream_needs_two_action_units(self):
        one = AuProfile("one", (4,))
        with pytest.raises(ConfigError) as info:
            TedConfig(profile=one)
        assert str(info.value) == "feature set I needs at least 2 action units; profile 'one' has 1"
        assert TedConfig(profile=one, feature_sets=frozenset({"L"})).profile is one
        assert len(TedConfig(profile=AuProfile("two", (4, 6))).profile) == 2

    def test_fields_are_what_scoring_reads(self):
        assert [f.name for f in dataclasses.fields(TedConfig)] == [
            "window", "window_orientation", "profile", "feature_sets"
        ]


class TestSequenceLabels:
    def test_scale_bounds(self):
        SequenceLabels(vas=10, sen=0, aff=10, opi=5)
        for kwargs in ({"vas": 11}, {"sen": -1}, {"aff": 11}, {"opi": 6}):
            with pytest.raises(ConfigError):
                SequenceLabels(**kwargs)

    def test_get_is_case_insensitive(self):
        labels = SequenceLabels(vas=7, opi=2)
        assert labels.get("VAS") == 7
        assert labels.get("opi") == 2
        assert labels.get("sen") is None


class TestDatasetManifest:
    def test_rejects_duplicate_keys(self):
        entry = ManifestEntry("S1", "01", "f.csv")
        with pytest.raises(ConfigError):
            DatasetManifest([entry, entry])


class TestValidateSequence:
    def test_clean_sequence_has_no_findings(self):
        assert validate_sequence(make_random_sequence(10)) == []

    def test_empty_sequence(self):
        findings = validate_sequence(SequenceRecord("S1", "01", []))
        assert findings == ["frames: sequence has no frames"]

    def test_non_increasing_frame_index(self):
        frames = [make_frame(1), make_frame(3), make_frame(2)]
        findings = validate_sequence(SequenceRecord("S1", "01", frames))
        assert "frame_index (frame 2): not strictly increasing after 3" in findings

    def test_non_finite_feature_flagged_only_when_tracking_ok(self):
        seq = SequenceRecord("S1", "01", [make_frame(1), make_frame(2)])
        seq.frames.stream("Ho")[1, 0] = float("nan")
        findings = validate_sequence(seq)
        assert "features (frame 2): non-finite value" in findings

        seq.frames.tracking_ok[1] = False
        assert validate_sequence(seq) == []

    def test_frame_findings_come_in_frame_order(self):
        seq = SequenceRecord("S1", "01", [make_frame(i) for i in (1, 3, 2, 4)])
        seq.frames.stream("L")[1, 0] = float("inf")
        seq.frames.au_levels[3, 0] = float("nan")
        findings = validate_sequence(seq)
        assert findings == [
            "features (frame 3): non-finite value",
            "frame_index (frame 2): not strictly increasing after 3",
            "features (frame 4): non-finite value",
        ]

    def test_leading_failed_tracking_frames_reported(self):
        seq = make_random_sequence(5)
        seq.frames.tracking_ok[[0, 1, 3]] = False
        assert [str(f) for f in validate_sequence(seq)] == [
            "tracking: leading 2 frame(s) failed tracking; dynamics use their tracker output"
        ]
        seq.frames.tracking_ok[:] = False
        assert "leading 5 frame(s)" in str(validate_sequence(seq)[0])
        seq.frames.tracking_ok[[0, 1]] = True
        assert validate_sequence(seq) == []

    def test_finding_str_mentions_frame(self):
        seq = SequenceRecord("S1", "01", [make_frame(1), make_frame(1)])
        assert "frame 1" in str(validate_sequence(seq)[0])
