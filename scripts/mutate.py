#!/usr/bin/env python3
"""Mutation testing of one module: find the changes that no test notices.

A mutant changes one site of the module's syntax tree:

* a comparison operator: < and <=, > and >=, == and !=, `is` and
  `is not`, `in` and `not in` swap;
* a binary or augmented arithmetic operator: + and -, * and /, // and %,
  << and >>, & and | swap, ** and @ become *, ^ becomes |;
* a number: n becomes n + 1 (True and False are left alone);
* a `not`: dropped.

Annotations are skipped: under `from __future__ import annotations` they
are never evaluated, so a change there could not be noticed.

The script copies the repository (without .git and caches) into a
temporary directory, removed at the end, and only reads the original tree.
For each mutant it writes the mutated module there, as `ast.unparse` text,
and runs pytest on the given test files with the copy's src/ first on the
path and no bytecode cache. A mutant is killed when the tests fail or run
past the time limit, and survives when they pass. The unmutated module,
unparsed alike, must pass first. Sites are numbered in source order; the
default runs every site, and `--site K` (repeatable) runs only site K.

Run:  python scripts/mutate.py src/uqcm/optics.py tests/test_optics.py
Prints one line per mutant and the survivors at the end. Exits 0 when
every mutant ran, whatever survived, and 2 when the unmutated module fails
its tests. Every mutant runs the test files once, a few seconds each, so a
whole module of a few hundred sites takes minutes to tens of minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mod, ast.Mod: ast.FloorDiv, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Pow: ast.Mult, ast.MatMult: ast.Mult,
    ast.BitXor: ast.BitOr,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
    ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|", ast.Pow: "**",
    ast.MatMult: "@", ast.BitXor: "^",
}


def _annotation_nodes(tree: ast.AST) -> set:
    """ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def sites(tree: ast.AST) -> list:
    """(node, slot, description) of every mutable site, in source order.
    `slot` is the operator's index for a comparison and None otherwise."""
    skip = _annotation_nodes(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                found.append((node, i, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_SWAPS[type(op)]]}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            found.append((node, None, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[_SWAPS[type(node.op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, None, f"{node.value!r} -> {node.value + 1!r}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((node, None, "not dropped"))
    found.sort(key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))
    return found


class _DropNot(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutant_source(source: str, index: int) -> str:
    """The module text with site `index` of `sites` mutated."""
    tree = ast.parse(source)
    node, slot, _ = sites(tree)[index]
    if isinstance(node, ast.Compare):
        node.ops[slot] = _SWAPS[type(node.ops[slot])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = _SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        tree = _DropNot(node).visit(tree)
    return ast.unparse(tree)


def _run_tests(workdir: pathlib.Path, tests: list, timeout: float) -> tuple:
    """(passed, seconds) of one pytest run in the copy; a run past `timeout` fails."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return proc.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module path relative to the repository root, e.g. src/uqcm/optics.py")
    parser.add_argument("tests", nargs="+", help="test files or node ids to run against each mutant")
    parser.add_argument("--site", type=int, action="append", help="run this site; repeatable (default: every site)")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text(encoding="utf-8")
    found = [f"{args.module}:{node.lineno}:{node.col_offset}  {text}" for node, _, text in sites(ast.parse(source))]
    unknown = sorted(set(args.site or ()) - set(range(len(found))))
    if unknown:
        parser.error(f"{args.module} has sites 0 to {len(found) - 1}; no site {', '.join(map(str, unknown))}")
    chosen = sorted(set(args.site)) if args.site else range(len(found))

    with tempfile.TemporaryDirectory(prefix="mutate-") as workdir:
        copy = pathlib.Path(workdir) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")
        shutil.copytree(ROOT, copy, ignore=ignore)
        target = copy / args.module

        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        passed, seconds = _run_tests(copy, args.tests, None)
        if not passed:
            print(f"the unmutated {args.module} fails {' '.join(args.tests)}; nothing to mutate", file=sys.stderr)
            return 2
        limit = 10 * seconds + 10
        print(f"{args.module}: {len(found)} sites, running {len(chosen)}; baseline {seconds:.1f} s, limit {limit:.0f} s")

        survivors = []
        for k, index in enumerate(chosen, start=1):
            target.write_text(mutant_source(source, index), encoding="utf-8")
            passed, seconds = _run_tests(copy, args.tests, limit)
            verdict = "SURVIVED" if passed else "timeout" if seconds >= limit else "killed"
            print(f"{k:4d}/{len(chosen)}  site {index:3d}  {found[index]:<56} {verdict}", flush=True)
            if passed:
                survivors.append(f"site {index}  {found[index]}")

    print(f"killed {len(chosen) - len(survivors)} of {len(chosen)}")
    for survivor in survivors:
        print(f"survived: {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
