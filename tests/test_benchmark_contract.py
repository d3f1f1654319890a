"""The names and parameters the benchmark tracer relies on.

perfbench/tracer.py wraps every function in its TRACED table and reads the
batch or the cache path from fixed argument positions. It is parsed here, not
imported, so that this check never runs the tracer's start-up code.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_table() -> dict[str, list[str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_resolves():
    table = _traced_table()
    assert "network" in table and "forward_batch" in table["network"]
    for module_name, names in table.items():
        module = importlib.import_module(f"speechdep.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"speechdep.{module_name}.{name}"


def test_counted_arguments_keep_their_positions():
    from speechdep import features, network

    # (function, position, name) as the tracer's COUNTERS read them
    for fn, index, name in (
        (network.forward_batch, 1, "xs"),
        (network.backward_batch, 2, "xs"),
        (features.read_feature_cache, 0, "path"),
        (features.write_feature_cache, 0, "path"),
    ):
        assert list(inspect.signature(fn).parameters)[index] == name, fn.__name__
