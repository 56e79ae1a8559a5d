"""``tools/reach.py``'s statement listing and line trace on a small module (no
experiment runs)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"

SOURCE = '''\
X = 1


def f(a):
    """Docstring: compiles to no code."""
    if a > 0:
        b = (a
             + 1)
    else:
        b = 0
        raise ValueError(b)
    return b


class K:
    Y = 2

    @staticmethod
    def g(a):
        def inner():
            return a
        return inner
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_statements(tool):
    # module and class bodies are left out, and so are the docstring and raise
    got = [(name, first, list(lines)) for name, first, lines in
           tool.function_statements(SOURCE)]
    assert got == [("f", 6, [6]), ("f", 7, [7, 8]), ("f", 10, [10]), ("f", 12, [12]),
                   ("K.g", 20, [20]), ("K.g.inner", 21, [21]), ("K.g", 22, [22])]


def test_trace_lists_what_a_call_missed(tool, tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("small", path)
    small = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(small)
    hits = tool.traced(lambda: (small.f(2), small.K.g(1)), {str(path)})
    assert set(hits) == {str(path)}
    assert tool.unreached(SOURCE, hits[str(path)]) == [("f", 10), ("K.g.inner", 21)]


def test_wrapped_names_cover_nested_functions(tool):
    wrapped = {"run_nonlinear", "LinearPropagator.run"}
    assert tool._wrapped("LinearPropagator.run", wrapped)
    assert tool._wrapped("LinearPropagator.run.inputs", wrapped)
    assert tool._wrapped("run_nonlinear", wrapped)
    assert not tool._wrapped("LinearPropagator.step", wrapped)
    assert "LinearPropagator.step" in tool.tracer_names()
