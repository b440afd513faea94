"""The developer tools' own logic, without running the CLI."""

import importlib.util
import math
import pathlib
import sys

TOOLS = pathlib.Path(__file__).parents[1] / "tools"


def _load_tool(name):
    sys.path.insert(0, str(TOOLS))  # same_bytes imports pairs
    try:
        spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(str(TOOLS))


SAME_BYTES = _load_tool("same_bytes")
PAIRS = _load_tool("pairs")


def test_side_directories_have_one_length():
    # the worker's peak RSS grows with its directory's path length
    dirs = PAIRS.side_dirs("/tmp/pairs-x")
    assert sorted(dirs) == ["change", "ref"]
    assert len(set(dirs.values())) == 2 and len({len(d) for d in dirs.values()}) == 1


class TestLargestChange:
    def test_rounding_change(self):
        a = {"pipelines": {"gibbs": {"trend": 0.25, "floored": 3}}}
        b = {"pipelines": {"gibbs": {"trend": 0.25 * (1 + 1e-12), "floored": 3}}}
        rel, path = SAME_BYTES.largest_change(a, b)
        assert path == "pipelines.gibbs.trend" and 0 < rel < 2e-12

    def test_same_numbers(self):
        a = {"x": [1.0, float("nan"), None], "y": "text"}
        assert SAME_BYTES.largest_change(a, a) == (0.0, "")

    def test_number_against_null(self):
        a = {"pipelines": {"probe": {"transit_k": None, "spread": 0.5}}}
        b = {"pipelines": {"probe": {"transit_k": 40, "spread": 0.5}}}
        assert SAME_BYTES.largest_change(a, b) == (math.inf, "pipelines.probe.transit_k")
        assert SAME_BYTES.largest_change(b, a) == (math.inf, "pipelines.probe.transit_k")
        assert SAME_BYTES.moved_pipelines(a, b) == ["pipelines.probe"]

    def test_key_on_one_side_only(self):
        a = {"pipelines": {"gibbs": {"trend": 0.25}}}
        b = {"pipelines": {"gibbs": {"trend": 0.25, "floored": 0}}, "extra": {"n": "x"}}
        assert SAME_BYTES.largest_change(a, b) == (math.inf, "extra")
        assert SAME_BYTES.largest_change(a["pipelines"], b["pipelines"]) == (
            math.inf, "gibbs.floored")
        assert SAME_BYTES.largest_change([1, 2], [1, 2, 3]) == (math.inf, "[2]")
        assert SAME_BYTES.moved_pipelines(a, b) == ["pipelines.gibbs"]
        assert SAME_BYTES.moved_pipelines(a, {"pipelines": {}}) == ["pipelines.gibbs"]
