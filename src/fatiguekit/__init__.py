"""Driver fatigue inference from driving and physiology traces.

The package is organized as a pipeline of small, separately usable stages:

- signals: columnar traces, parsing, validation, windowing
- features: per-window numeric descriptors of driver state
- qualify: numbers to labelled facts via threshold bands
- kstore: immutable fact base with a class taxonomy and snapshots
- rules: rule-pack parsing, forward chaining, per-source fatigue verdicts
- pipeline: the whole chain plus fusion and alerting
- scenario: deterministic synthetic traces for the two driving regimes
"""

from .errors import (
    AmbiguityError,
    ArgumentError,
    DecodeError,
    DuplicateRuleNameError,
    EmptyInputError,
    FatigueKitError,
    InsufficientDataError,
    MissingChannelError,
    MonotonicityError,
    OrderingError,
    RangeError,
    RuleSyntaxError,
    ScenarioSpecError,
    SchemeError,
    UnboundFeatureError,
    UnknownClassError,
)
from .features import (
    FEATURE_NAMES,
    ApEnParams,
    FeatureParams,
    FeatureVector,
    ReactionTimes,
    approximate_entropy,
    count_upcrossings,
    extract_features,
    eye_features,
    gaze_features,
    head_features,
    kinematics_features,
    merge_features,
    mouth_features,
    physiology_features,
    reaction_times,
    swa_features,
    yaw_features,
)
from .kstore import (
    ENGINE_VERSION,
    FactBase,
    KnowledgeSnapshot,
    Taxonomy,
    assert_fact,
    assert_value,
    default_taxonomy,
    entails,
    get_value,
    load_snapshot,
    query_class,
    save_snapshot,
)
from .pipeline import (
    AlertPolicy,
    FatigueReport,
    PipelineConfig,
    WindowRecord,
    decide,
    default_config_text,
    load_config,
    run,
)
from .qualify import (
    FEATURE_FAMILIES,
    Band,
    QualificationScheme,
    QualifiedFact,
    default_scheme,
    individual_name,
    load_scheme,
    qualify,
)
from .rules import (
    SOURCE_ALIASES,
    FatigueLevel,
    FiredRule,
    FusionWeights,
    Rule,
    RulePack,
    fuse,
    infer,
    load_stock_pack,
    parse_rules,
    read_fatigue,
)
from .scenario import (
    REGIMES,
    ScenarioSpec,
    Segment,
    generate_scenario,
    parse_scenario_spec,
    simple_spec,
)
from .signals import (
    CHANNELS,
    DriverProfile,
    ObstacleEvent,
    Sex,
    SignalFrame,
    Trace,
    Window,
    make_windows,
    parse_trace,
    serialize_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError", "ArgumentError", "DecodeError", "DuplicateRuleNameError",
    "EmptyInputError", "FatigueKitError", "InsufficientDataError",
    "MissingChannelError", "MonotonicityError", "OrderingError", "RangeError",
    "RuleSyntaxError", "ScenarioSpecError", "SchemeError", "UnboundFeatureError",
    "UnknownClassError",
    "FEATURE_NAMES", "ApEnParams", "FeatureParams", "FeatureVector",
    "ReactionTimes", "approximate_entropy", "count_upcrossings",
    "extract_features", "eye_features", "gaze_features", "head_features",
    "kinematics_features", "merge_features", "mouth_features",
    "physiology_features", "reaction_times", "swa_features", "yaw_features",
    "ENGINE_VERSION", "FactBase", "KnowledgeSnapshot", "Taxonomy",
    "assert_fact", "assert_value", "default_taxonomy", "entails", "get_value",
    "load_snapshot", "query_class", "save_snapshot",
    "AlertPolicy", "FatigueReport", "PipelineConfig", "WindowRecord",
    "decide", "default_config_text", "load_config", "run",
    "FEATURE_FAMILIES", "Band", "QualificationScheme", "QualifiedFact",
    "default_scheme", "individual_name", "load_scheme", "qualify",
    "SOURCE_ALIASES", "FatigueLevel", "FiredRule", "FusionWeights", "Rule",
    "RulePack", "fuse", "infer", "load_stock_pack", "parse_rules",
    "read_fatigue",
    "REGIMES", "ScenarioSpec", "Segment", "generate_scenario",
    "parse_scenario_spec", "simple_spec",
    "CHANNELS", "DriverProfile", "ObstacleEvent", "Sex", "SignalFrame",
    "Trace", "Window", "make_windows", "parse_trace", "serialize_trace",
]
