"""anonsim: simulate and verify anonymous message-passing protocols.

The model package distinguishes process indices from process identity: an
anonymous protocol observes message payloads and oracle output but never who
sent what.  On top of the model sit executable failure-detector oracles, a
deterministic simulator with exhaustive small-instance exploration, three
consensus protocols, detector-to-detector transformations, and checkers for
every property the harness certifies.
"""

from .model import (
    ABSENT,
    AnonymityVerdict,
    DetectorHistory,
    Environment,
    FailurePattern,
    Permutation,
    ReceiveLog,
    SystemConfig,
    anonymous_receive,
    correct_set,
    is_anonymous,
    permute_history,
    permute_pattern,
)
from .detectors import (
    CRASH_COUNT,
    EVENTUAL_CRASH_COUNT,
    EVENTUALLY_PERFECT,
    LEADER,
    PERFECT,
    SELF_TRUST,
    DetectorSpec,
    LiveOracle,
    OracleProfile,
    OracleRuntime,
    sample_history,
)
from .simulator import (
    ScenarioConfig,
    ScenarioError,
    Trace,
    default_horizon,
    explore,
    run,
    run_schedule,
)

__all__ = [
    "ABSENT",
    "AnonymityVerdict",
    "CRASH_COUNT",
    "DetectorHistory",
    "DetectorSpec",
    "EVENTUAL_CRASH_COUNT",
    "EVENTUALLY_PERFECT",
    "Environment",
    "FailurePattern",
    "LEADER",
    "LiveOracle",
    "OracleProfile",
    "OracleRuntime",
    "PERFECT",
    "Permutation",
    "ReceiveLog",
    "SELF_TRUST",
    "ScenarioConfig",
    "ScenarioError",
    "SystemConfig",
    "Trace",
    "anonymous_receive",
    "correct_set",
    "default_horizon",
    "explore",
    "is_anonymous",
    "permute_history",
    "permute_pattern",
    "run",
    "run_schedule",
    "sample_history",
]
