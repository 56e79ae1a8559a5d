"""List the statements of ``src/bousscontrol`` that no run reaches.

Every run of ``tools/artifact_diff.runs()`` (each experiment kind on each
``demos/configs/*.cfg``, the two synthesis kinds with field dumps on one of
them, and each benchmark workload at level 0) goes through the CLI in this
process, under a ``sys.settrace`` line trace restricted to the package's
files.  Then, per module, every statement inside a function that no run
executed is printed with its line, the function's qualified name and the
statement's first line of text.  A function whose name ``bench/tracer.py``
wraps is flagged ``[tracer]``: the benchmark pins it, so no trace alone makes
it removable.  ``raise`` statements are skipped, since a run reaches none of
them by design; so are statements that compile to no code (docstrings,
``global``).  Only the standard library does the tracing.

Run:  python tools/reach.py [--work DIR]

The runs' artifacts go to DIR (default: a temporary directory, removed at the
end).  All runs under the trace take about 15 s on 2 cores.  The exit code
is 0; a run that exits otherwise than 0 is listed with its exit code (the
two synthesis kinds reject the linearized ``linear_control.cfg`` with 2).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import importlib.util
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bousscontrol"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(stmt: ast.stmt) -> range:
    """The lines whose code belongs to ``stmt`` itself: a compound
    statement's header (decorators included), all of a simple one."""
    body = getattr(stmt, "body", None)
    if not body:
        return range(stmt.lineno, stmt.end_lineno + 1)
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    return range(first, max(body[0].lineno, stmt.lineno + 1))


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    out = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def function_statements(source: str, filename: str = "<source>"):
    """(qualified function name, first line, lines) of every statement inside
    a function of ``source``, nested ones included; ``raise`` statements and
    those that compile to no code are left out."""
    code = _code_lines(compile(source, filename, "exec"))
    out = []

    def visit(node, name: str, in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and in_function and not isinstance(child, ast.Raise):
                lines = _lines(child)
                if code.intersection(lines):
                    out.append((name, child.lineno, lines))
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name,
                      in_function or isinstance(child, _FUNCTIONS))
            else:
                visit(child, name, in_function)

    visit(ast.parse(source, filename), "", False)
    return out


def unreached(source: str, hits: set[int], filename: str = "<source>"):
    """(qualified name, first line) of each ``function_statements`` entry
    none of whose lines is in ``hits``."""
    return [(name, first) for name, first, lines in function_statements(source, filename)
            if hits.isdisjoint(lines)]


def traced(fn, files: set[str]) -> dict[str, set[int]]:
    """Call ``fn()`` under a line trace of the code in ``files`` (paths as in
    ``co_filename``); the lines executed, per file."""
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(None)
    return hits


def tracer_names() -> set[str]:
    """The names ``bench/tracer.py`` wraps, as ``attr`` or ``Class.attr``."""
    wraps = _load("bench_tracer", ROOT / "bench" / "tracer.py").WRAPS
    return {attr if owner is None else f"{owner}.{attr}" for _, owner, attr, _ in wraps}


def _wrapped(qual: str, wrapped: set[str]) -> bool:
    """Whether ``qual`` or a function it is nested in is in ``wrapped``."""
    parts = qual.split(".")
    return any(".".join(parts[:i]) in wrapped for i in range(1, len(parts) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="directory for the runs' configs and artifacts "
                                       "(default: a temporary directory)")
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    modules = [importlib.import_module("bousscontrol" + ("" if p.stem == "__init__"
                                                          else f".{p.stem}"))
               for p in sorted(PACKAGE.glob("*.py"))]
    files = {m.__file__: Path(m.__file__).name for m in modules}
    from bousscontrol import cli

    runs = _load("artifact_diff", ROOT / "tools" / "artifact_diff.py").runs()
    with tempfile.TemporaryDirectory(prefix="reach_") as tmp:
        work = Path(args.work or tmp).resolve()
        (work / "configs").mkdir(parents=True, exist_ok=True)
        codes = {}

        def run_all():
            for name, kind, text in runs:
                cfg = work / "configs" / f"{name}.cfg"
                cfg.write_text(text)
                with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
                        contextlib.redirect_stderr(null):
                    codes[name] = cli.main([kind, "--config", str(cfg),
                                            "--out", str(work / name)])

        hits = traced(run_all, set(files))

    wrapped = tracer_names()
    nonzero = {name: code for name, code in codes.items() if code != 0}
    print(f"{len(codes)} runs traced; nonzero exit codes: {nonzero or 'none'}")
    print("statements inside functions that no run executes "
          "([tracer]: a name bench/tracer.py wraps; raise statements skipped)")
    total = count = 0
    for path, name in sorted(files.items(), key=lambda f: f[1]):
        source = Path(path).read_text()
        text = source.splitlines()
        stmts = function_statements(source, path)
        missed = unreached(source, hits.get(path, set()), path)
        total, count = total + len(stmts), count + len(missed)
        print(f"\n## {name}: {len(missed)} of {len(stmts)} unreached")
        for qual, line in missed:
            flag = " [tracer]" if _wrapped(qual, wrapped) else ""
            print(f"{line:5d}  {qual}{flag}: {text[line - 1].strip()}")
    print(f"\n{count} of {total} statements inside functions unreached")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
