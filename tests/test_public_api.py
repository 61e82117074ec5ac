"""The package's public names, and the module bindings perfbench's tracer
wraps by name."""
import ast
import importlib
from pathlib import Path

import qfrelay

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The unfused step and the per-split evaluators: kept in their modules as the
# tests' references and for the tracer, but not exported.
UNEXPORTED = ("Posteriors", "induced_posteriors", "delta_matrix", "update_q", "lagrangian",
              "sum_rate_at", "unimodality_report")


def _traced() -> dict:
    """perfbench's TRACED table, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_public_names():
    assert len(qfrelay.__all__) == len(set(qfrelay.__all__)) == 32
    for name in qfrelay.__all__:
        assert hasattr(qfrelay, name), name
    for name in UNEXPORTED:
        assert name not in qfrelay.__all__ and not hasattr(qfrelay, name), name


def test_every_traced_name_is_bound_in_its_module():
    traced = _traced()
    assert sum(map(len, traced.values())) == 21
    for layer, names in traced.items():
        mod = importlib.import_module(f"qfrelay.{layer}")
        for name in names:
            obj = mod
            for part in name.split("."):
                assert hasattr(obj, part), f"qfrelay.{layer}.{name}"
                obj = getattr(obj, part)
            assert callable(obj), f"qfrelay.{layer}.{name}"
