"""agentfork: runtime library and simulator for complexity-triggered
child-agent spawning with sliced memory transfer and coherent merging."""

from .coherence import (
    ApplyError,
    ConflictPair,
    Diff,
    DiffError,
    Hunk,
    MergeOutcome,
    ResolutionTier,
    StochasticMergeBackend,
    apply_diff,
    auto_merge,
    line_disjoint,
    merge_diff_sets,
    semantic_merge,
)
from .config import ConfigError, SimulatorConfig
from .memory import (
    DefaultEmbedder,
    MemoryItem,
    MemorySlice,
    MemoryStore,
    MemoryTier,
    RelevanceWeights,
    compute_relevance,
    count_tokens,
    default_embed,
    extract_keywords,
    slice_memory,
    snapshot_store,
)
from .policy import (
    CalibrationState,
    ComplexityMetrics,
    RuntimeState,
    SpawnAction,
    SpawnDecision,
    SpawnPolicyConfig,
    Specialization,
    decide_spawn,
    dominant_specialization,
    normalize_metric,
    spawn_score,
    update_calibration,
)
from .protocol import (
    Action,
    ActionKind,
    ChildMetrics,
    ChildStatus,
    ExecutionContext,
    PackageDecodeError,
    ParentState,
    ReplayConfig,
    ResultPayload,
    ResumePackage,
    SpawnPackage,
    TaskSpec,
    build_spawn_package,
    decode_package,
    encode_package,
    read_checkpoint,
    replay_resume,
    summarize_trace,
    validate_resume,
    write_checkpoint,
)
from .runtime import (
    AgentId,
    ChildScheduler,
    NodeStatus,
    RuntimeConfig,
    ScriptedBackend,
    ServiceBackend,
    SpawnTree,
    VirtualClock,
    handle_child_failure,
    run_parent_loop,
)
from .skills import (
    Provenance,
    Skill,
    SkillLibrary,
    promote_skills,
    select_inherited_skills,
    skill_relevance,
    specialize,
)
from .harness import (
    GenerateParams,
    RunReport,
    WorkloadSpec,
    emit_report,
    generate_synthetic,
    load_workload,
    parse_machine_report,
    run_simulation,
    save_workload,
)

__version__ = "0.1.0"
