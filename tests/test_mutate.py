"""scripts/mutate.py: the sites it finds and the one change each mutant makes."""

import ast
import difflib
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTATE = runpy.run_path(str(ROOT / "scripts" / "mutate.py"))

SOURCE = '''
from __future__ import annotations


def f(x: int | None, y=2.5) -> list[int | str]:
    total: int | float = 0
    if not x < y and x in (1, 2):
        total += x * y - 3 // 2
    return [total is None, True, x @ y ** 2]
'''


def _changed_lines(index):
    before = ast.unparse(ast.parse(SOURCE)).splitlines()
    after = MUTATE["mutant_source"](SOURCE, index).splitlines()
    return [line for line in difflib.ndiff(before, after) if line[:1] in "+-"]


def test_sites_in_source_order_without_annotations_or_bools():
    found = [(node.lineno, text) for node, _, text in MUTATE["sites"](ast.parse(SOURCE))]
    assert found == [
        (5, "2.5 -> 3.5"),
        (6, "0 -> 1"),
        (7, "not dropped"),
        (7, "< -> <="),
        (7, "in -> not in"),
        (7, "1 -> 2"),
        (7, "2 -> 3"),
        (8, "+ -> -"),
        (8, "- -> +"),
        (8, "* -> /"),
        (8, "// -> %"),
        (8, "3 -> 4"),
        (8, "2 -> 3"),
        (9, "is -> is not"),
        (9, "@ -> *"),
        (9, "** -> *"),
        (9, "2 -> 3"),
    ]


@pytest.mark.parametrize(
    ("index", "line"),
    [
        (2, "    if x < y and x in (1, 2):"),
        (4, "    if not x < y and x not in (1, 2):"),
        (7, "        total -= x * y - 3 // 2"),
        (10, "        total += x * y - 3 % 2"),
        (13, "    return [total is not None, True, x @ y ** 2]"),
    ],
    ids=["not", "in", "augmented", "floordiv", "is"],
)
def test_each_mutant_changes_one_line(index, line):
    changed = _changed_lines(index)
    assert len(changed) == 2 and changed[1] == f"+ {line}"


def test_every_site_of_a_package_module_gives_a_distinct_module():
    source = (ROOT / "src" / "uqcm" / "streams.py").read_text(encoding="utf-8")
    original = ast.unparse(ast.parse(source))
    n_sites = len(MUTATE["sites"](ast.parse(source)))
    assert n_sites > 20
    for index in range(n_sites):
        mutant = MUTATE["mutant_source"](source, index)
        assert mutant != original
        ast.parse(mutant)



@pytest.mark.parametrize("site", [-1, 99999])
def test_site_outside_the_module_is_a_usage_error(site, capsys):
    source = (ROOT / "src" / "uqcm" / "streams.py").read_text(encoding="utf-8")
    last = len(MUTATE["sites"](ast.parse(source))) - 1
    with pytest.raises(SystemExit) as exit_info:
        MUTATE["main"](["src/uqcm/streams.py", "tests/test_streams.py", "--site", "0", "--site", str(site)])
    assert exit_info.value.code == 2
    assert f"src/uqcm/streams.py has sites 0 to {last}; no site {site}" in capsys.readouterr().err
