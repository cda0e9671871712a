"""What `import ovrefine` and each command load, and the package's lazy names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ovrefine

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package exports, by the module that defines it
EXPORTED = {
    "balancers": [
        "DbcState", "ProposalSet", "PseudoLabel2D", "SbcState", "assign_foreground_labels",
        "baol_compress", "baol_loss", "dbc_accumulate", "dbc_update", "reflect_filter",
        "sbc_loop", "sbc_step", "scale_loss",
    ],
    "commonsense": [
        "KnowledgeBase", "LlmClient", "MissingSizePriorError", "ProviderError",
        "RemoteKnowledgeProvider", "SceneContext", "SizeConstraintConfig", "SizePrior",
        "StaticKnowledgeProvider", "constraint_vector", "default_knowledge_base",
        "load_knowledge_base", "scene_constraint", "size_constraint", "size_fit",
    ],
    "geometry": ["Box7DoF", "ScoredBox", "iou3d", "soft_nms"],
    "pipeline": [
        "ApReport", "DebateOutcome", "Detection", "RefinementConfig", "RefinementLog",
        "SceneRecord", "debate", "eval_ap25", "generate_synthetic_scenes", "load_scenes",
        "refine_scene", "refine_scenes", "save_scenes",
    ],
    "psl": [
        "And", "Const", "ConstraintVector", "Decision", "Not", "Or", "RuleSet",
        "SelectionPolicy", "SolverOutput", "Var", "build_decision_rules", "decide",
        "eval_expr", "implies", "solve", "solve_decisions",
    ],
}
HOMES = [(module, name) for module, names in EXPORTED.items() for name in names]


class TestLazyNamespace:
    @pytest.mark.parametrize("module, name", HOMES, ids=[name for _, name in HOMES])
    def test_name_resolves_to_the_object_in_its_module(self, module, name):
        scope = {}
        exec(f"from ovrefine import {name}", scope)
        defined = getattr(importlib.import_module(f"ovrefine.{module}"), name)
        assert scope[name] is defined
        assert getattr(ovrefine, name) is defined

    def test_all_and_dir_list_every_name(self):
        names = {name for _, name in HOMES}
        assert sorted(ovrefine.__all__) == sorted(names)
        assert names <= set(dir(ovrefine))
        assert "__version__" in dir(ovrefine)

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            ovrefine.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from ovrefine import no_such_name", {})

    def test_provider_error_is_the_one_in_commonsense(self):
        assert ovrefine.ProviderError is ovrefine.commonsense.ProviderError


# runs a command in this interpreter, then writes the names of the loaded modules
LOADED_SCRIPT = """
import json, sys
modules_path, *argv = sys.argv[1:]
if argv:
    from ovrefine.cli import main
    code = main(argv)
else:
    import ovrefine
    code = 0
with open(modules_path, "w") as fh:
    json.dump(sorted(sys.modules), fh)
sys.exit(code)
"""


def loaded_by(tmp_path, *argv):
    """The modules a fresh interpreter has loaded once it has run ``argv``."""
    modules = tmp_path / "modules.json"
    env = dict(os.environ)
    env.pop("GLRD_LLM_ENDPOINT", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", LOADED_SCRIPT, str(modules), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(modules.read_text()))


REFINE_STACK = ("ovrefine.pipeline", "ovrefine.commonsense", "ovrefine.psl")


class TestWhatEachCommandLoads:
    def test_import_ovrefine_loads_no_submodule(self, tmp_path):
        loaded = loaded_by(tmp_path)
        assert "ovrefine" in loaded
        assert not {name for name in loaded if name.startswith("ovrefine.")}

    def test_submodules_resolve_after_a_bare_import(self):
        # as they did when the package imported each of them
        script = (
            "import importlib, ovrefine\n"
            f"for name in {sorted(EXPORTED)!r}:\n"
            "    assert getattr(ovrefine, name) is importlib.import_module('ovrefine.' + name)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("scenes", [0, 1], ids=["empty", "one-scene"])
    def test_baol_loads_no_refine_stack_and_no_process_machinery(self, tmp_path, scenes):
        scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
        path = tmp_path / "proposals.jsonl"
        path.write_text((json.dumps(scene) + "\n") * scenes)
        # four workers, but a file of at most one scene runs inline
        loaded = loaded_by(tmp_path, "baol", "--proposals", str(path), "--lambda-baol", "1",
                           "--workers", "4")
        assert "ovrefine.balancers" in loaded
        unwanted = [*REFINE_STACK, "concurrent.futures", "multiprocessing"]
        if not scenes:
            unwanted.append("numpy")  # no scene, no array
        assert not loaded & set(unwanted)

    def test_refine_loads_no_balancers(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        loaded = loaded_by(tmp_path, "refine", "--detections", str(empty),
                           "--out", str(tmp_path / "out.jsonl"), "--workers", "2")
        assert "ovrefine.pipeline" in loaded
        assert "ovrefine.balancers" not in loaded

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("scenes", [0, 32], ids=["empty", "one-chunk"])
    def test_refine_of_at_most_one_chunk_loads_no_process_machinery(
        self, tmp_path, scenes, workers
    ):
        from ovrefine.cli import _CHUNK_SCENES
        from ovrefine.pipeline import generate_synthetic_scenes, save_scenes

        assert scenes <= _CHUNK_SCENES
        _, detections = generate_synthetic_scenes(
            ovrefine.default_knowledge_base(), seed=7, n_scenes=scenes
        )
        path = tmp_path / "detections.jsonl"
        save_scenes(detections, path)
        loaded = loaded_by(tmp_path, "refine", "--detections", str(path),
                           "--out", str(tmp_path / "out.jsonl"), "--workers", workers)
        assert "ovrefine.pipeline" in loaded
        assert "multiprocessing" not in loaded

    def test_static_refine_at_one_worker_loads_no_threads_or_processes(self, tmp_path):
        from ovrefine.cli import _CHUNK_SCENES
        from ovrefine.pipeline import generate_synthetic_scenes, save_scenes

        # three chunks, which one worker refines in turn in the main process
        _, detections = generate_synthetic_scenes(
            ovrefine.default_knowledge_base(), seed=7, n_scenes=3 * _CHUNK_SCENES
        )
        path = tmp_path / "detections.jsonl"
        save_scenes(detections, path)
        loaded = loaded_by(tmp_path, "refine", "--detections", str(path),
                           "--out", str(tmp_path / "out.jsonl"), "--workers", "1")
        assert "ovrefine.pipeline" in loaded
        assert not loaded & {"concurrent.futures", "multiprocessing"}

    def test_eval_loads_no_balancers_and_no_concurrent_futures(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        loaded = loaded_by(tmp_path, "eval", "--detections", str(empty), "--gt", str(empty))
        assert "ovrefine.pipeline" in loaded
        # processes serves only the commands that start worker processes
        assert not loaded & {"ovrefine.balancers", "concurrent.futures", "ovrefine.processes"}


# solves with every solver entry point of ovrefine.psl, then checks what it loaded
PSL_SCRIPT = """
import sys
import ovrefine
from ovrefine import psl

rules = psl.build_decision_rules(psl.ConstraintVector(0.9, 0.5419, 1.0))
solution = psl.solve(rules)
(same,) = psl.solve_decisions([(0.9, 0.5419, 1.0)])
assert same == solution
assert psl.decide(solution, 0.01, 0.2) is psl.Decision.RECLASSIFY
assert "numpy" not in sys.modules
assert not hasattr(psl, "brute_force_solve")
assert not hasattr(ovrefine, "brute_force_solve")
"""


def test_psl_solves_without_numpy_and_ships_no_grid_scanner():
    # the grid oracle lives in the tests, in psl_reference
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PSL_SCRIPT], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# records the ovrefine modules, and numpy, loaded when baol asks for its worker processes
FORK_SCRIPT = """
import sys
from ovrefine import cli, processes

real = processes.process_pool

def recorded(workers):
    print(" ".join(sorted(
        name for name in sys.modules if name.startswith("ovrefine.") or name == "numpy"
    )))
    return real(workers)

processes.process_pool = recorded
sys.exit(cli.main(sys.argv[1:]))
"""


def test_baol_loads_its_layers_before_the_workers_fork(tmp_path):
    scene = {"boxes": [[0, 0, 0, 1, 1, 1, 0]], "class_scores": [[0.9]], "fg_scores": [0.9]}
    path = tmp_path / "proposals.jsonl"
    path.write_text((json.dumps(scene) + "\n") * 3)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", FORK_SCRIPT, "baol", "--proposals", str(path),
         "--lambda-baol", "1", "--workers", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    before_fork, *reports = result.stdout.splitlines()
    # the workers inherit all three, rather than import them again
    assert {"ovrefine.balancers", "ovrefine.geometry", "numpy"} <= set(before_fork.split())
    assert len(reports) == 3
