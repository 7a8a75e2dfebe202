"""Which code in `src/semslam` the panel jobs run, traced line by line.

The script runs jobs of `tools/panel_digest.py` (simulate, then run, as
`digest` does) under a `sys.settrace` trace and prints each job's digest
line, then one line per `src/semslam` function that no job entered:

    not entered: cli.cmd_eval (cli.py:69)

and, for each function that some job entered, the statements none of them
ran, as line ranges of consecutive missed statements:

    missed: graph.optimize (graph.py): 408-410

A statement counts as run if any line it spans ran; a compound statement
(`if`, `for`, `try`, ...) whose header missed is reported alone, not with
its body. Docstrings hold no code and are never reported. The trace starts
before semslam is imported, so code that runs at import time counts: run
the script in a fresh process.

    python3 tools/reached.py --job loop-1
    python3 tools/reached.py --all

`--job NAME` (repeatable) traces the named jobs, `--all` the panel and then
every named job, and no option the panel, as in `panel_digest.py`. Only the
standard library is used.
"""

import argparse
import ast
import os
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.realpath(os.path.join(os.path.dirname(TOOLS), "src", "semslam"))


class Tracer:
    """The (file, first line) of every `src/semslam` code object entered
    and the (file, line) of every line run in one."""

    def __init__(self):
        self.entered, self.lines = set(), set()
        self._ours = {}  # co_filename -> its real path if in src/semslam, else None

    def __call__(self, frame, event, arg):
        code = frame.f_code
        path = self._ours.get(code.co_filename, False)
        if path is False:
            real = os.path.realpath(code.co_filename)
            path = self._ours[code.co_filename] = real if os.path.dirname(real) == SRC else None
        if path is None:
            return None
        self.entered.add((path, code.co_firstlineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((self._ours[frame.f_code.co_filename], frame.f_lineno))
        return self._line


def _is_docstring(stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def functions(path: str):
    """(first line, qualified name, body) of each function in the source
    file, nested ones and methods included, in source order. The first line
    is the first decorator's, as the code object's `co_firstlineno` is."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, prefix + child.name, child.body))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _span(stmt):
    """The lines a statement spans; a nested definition spans its header
    only, since its body is a function of its own."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return range(min([stmt.lineno] + [d.lineno for d in stmt.decorator_list]), stmt.lineno + 1)
    return range(stmt.lineno, stmt.end_lineno + 1)


def _blocks(stmt):
    """The statement lists nested in a compound statement."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return []
    blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
    return blocks + [h.body for h in getattr(stmt, "handlers", [])]


def missed_ranges(body, ran):
    """(first, last) line ranges of the statements in `body` that no line of
    `ran` falls in, consecutive misses merged, in source order."""
    ranges, run = [], None

    def walk(stmts):
        nonlocal run
        for stmt in stmts:
            if _is_docstring(stmt):
                continue
            span = _span(stmt)
            if not any(line in ran for line in span):
                run = (run[0] if run else span[0], span[-1])
                continue
            if run:
                ranges.append(run)
                run = None
            for block in _blocks(stmt):
                walk(block)

    walk(body)
    if run:
        ranges.append(run)
    return ranges


def report(tracer) -> list:
    """The `not entered:` lines, then the `missed:` lines, by module and line."""
    not_entered, missed = [], []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path, module = os.path.join(SRC, name), name[:-3]
        ran = {line for p, line in tracer.lines if p == path}
        for first, qualname, body in functions(path):
            where = f"{module}.{qualname}"
            if (path, first) not in tracer.entered:
                not_entered.append(f"not entered: {where} ({name}:{first})")
                continue
            ranges = missed_ranges(body, ran)
            if ranges:
                text = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)
                missed.append(f"missed: {where} ({name}): {text}")
    return not_entered + missed


def main(argv=None) -> int:
    tracer = Tracer()
    sys.settrace(tracer)
    try:
        # imported under the trace, so that semslam's import-time calls count
        sys.path.insert(0, TOOLS)
        import panel_digest

        jobs, named = panel_digest.panel(), panel_digest.named_jobs()
        p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        which = p.add_mutually_exclusive_group()
        which.add_argument("--job", action="append", choices=list(named), help="trace only this job (repeatable)")
        which.add_argument("--all", action="store_true", help="trace the panel, then every job outside it")
        args = p.parse_args(argv)
        for name in args.job or (named if args.all else jobs):
            with tempfile.TemporaryDirectory() as work:
                print(panel_digest.digest(name, named[name], work), flush=True)
    finally:
        sys.settrace(None)
    for line in report(tracer):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
