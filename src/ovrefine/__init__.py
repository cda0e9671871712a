"""Post-hoc refinement of open-vocabulary 3D detection results.

The library scores each detected object against common-sense constraints
(confidence, size fit, scene fit), maximizes a small weighted rule system
in Lukasiewicz logic to pick keep / remove / reclassify, and arbitrates
contested classes with a debate among the top-scored candidates. Training-
side class balancing and proposal-scoring schemes ship as pure components.

Each public name is imported from its module on first use (PEP 562), so
``import ovrefine`` loads no submodule, and a command loads only the
layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the module that defines it
_MODULES = {
    "balancers": (
        "DbcState",
        "ProposalSet",
        "PseudoLabel2D",
        "SbcState",
        "assign_foreground_labels",
        "baol_compress",
        "baol_loss",
        "dbc_accumulate",
        "dbc_update",
        "reflect_filter",
        "sbc_loop",
        "sbc_step",
        "scale_loss",
    ),
    "commonsense": (
        "KnowledgeBase",
        "LlmClient",
        "MissingSizePriorError",
        "ProviderError",
        "RemoteKnowledgeProvider",
        "SceneContext",
        "SizeConstraintConfig",
        "SizePrior",
        "StaticKnowledgeProvider",
        "constraint_vector",
        "default_knowledge_base",
        "load_knowledge_base",
        "scene_constraint",
        "size_constraint",
        "size_fit",
    ),
    "geometry": ("Box7DoF", "ScoredBox", "iou3d", "soft_nms"),
    "pipeline": (
        "ApReport",
        "DebateOutcome",
        "Detection",
        "RefinementConfig",
        "RefinementLog",
        "SceneRecord",
        "debate",
        "eval_ap25",
        "generate_synthetic_scenes",
        "load_scenes",
        "refine_scene",
        "refine_scenes",
        "save_scenes",
    ),
    "psl": (
        "And",
        "Const",
        "ConstraintVector",
        "Decision",
        "Not",
        "Or",
        "RuleSet",
        "SelectionPolicy",
        "SolverOutput",
        "Var",
        "brute_force_solve",
        "build_decision_rules",
        "decide",
        "eval_expr",
        "implies",
        "solve",
        "solve_decisions",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:
        # a submodule not yet imported, as in `import ovrefine; ovrefine.psl`
        return import_module(f".{name}", __name__)
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
