"""Frame-level facial temporal-expressiveness scoring and analysis."""

from .errors import ComputeError, ConfigError, ManifestError, ParseError, SchemaError, TedError
from .model import (
    FEATURE_SETS,
    AuProfile,
    BUILTIN_PROFILES,
    DatasetManifest,
    Finding,
    FrameColumns,
    FrameFeatures,
    HAPPY_PROFILE,
    ManifestEntry,
    PAIN_PREDICTED_PROFILE,
    PAIN_PROFILE,
    ScoredFrame,
    SequenceLabels,
    SequenceRecord,
    TedConfig,
    overall_profile,
    validate_sequence,
)
from .engine import (
    DynamicsState,
    direction_sign,
    relative_change,
    score_dataset,
    score_sequence,
    static_score,
)
from .analytics import (
    AblationReport,
    SubjectCorrelation,
    SummaryReport,
    evaluate_dataset,
    evaluate_subject,
    pcc_p_value,
    pearson,
    summarize,
    window_ablation,
)

__version__ = "0.1.0"
