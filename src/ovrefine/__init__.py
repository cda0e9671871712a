"""Post-hoc refinement of open-vocabulary 3D detection results.

The library scores each detected object against common-sense constraints
(confidence, size fit, scene fit), maximizes a small weighted rule system
in Lukasiewicz logic to pick keep / remove / reclassify, and arbitrates
contested classes with a debate among the top-scored candidates. Training-
side class balancing and proposal-scoring schemes ship as pure components.
"""

from .balancers import (
    DbcState,
    ProposalSet,
    PseudoLabel2D,
    SbcState,
    assign_foreground_labels,
    baol_compress,
    baol_loss,
    dbc_accumulate,
    dbc_update,
    reflect_filter,
    sbc_loop,
    sbc_step,
    scale_loss,
)
from .commonsense import (
    KnowledgeBase,
    LlmClient,
    MissingSizePriorError,
    ProviderError,
    RemoteKnowledgeProvider,
    SceneContext,
    SizeConstraintConfig,
    SizePrior,
    StaticKnowledgeProvider,
    constraint_vector,
    default_knowledge_base,
    load_knowledge_base,
    scene_constraint,
    size_constraint,
    size_fit,
)
from .geometry import Box7DoF, ScoredBox, iou3d, soft_nms
from .pipeline import (
    ApReport,
    DebateOutcome,
    Detection,
    RefinementConfig,
    RefinementLog,
    SceneRecord,
    debate,
    eval_ap25,
    generate_synthetic_scenes,
    load_scenes,
    refine_scene,
    refine_scenes,
    save_scenes,
)
from .psl import (
    And,
    Const,
    ConstraintVector,
    Decision,
    Not,
    Or,
    RuleSet,
    SelectionPolicy,
    SolverOutput,
    Var,
    brute_force_solve,
    build_decision_rules,
    decide,
    eval_expr,
    implies,
    parse_rules,
    solve,
    solve_decisions,
)

__version__ = "0.1.0"
