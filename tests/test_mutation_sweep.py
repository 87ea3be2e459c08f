"""The mutation sweep's mutator and runner (tests/mutation_sweep.py)."""

import os
import tempfile

import mutation_sweep

SOURCE = """\
def f(a, b, xs):
    if a < b <= 3 and a in xs:
        return 1
    while a > b >= 0 or a not in xs:
        a = a - 1
    for x in xs:
        if x is None or x is not a:
            b = b + 2
        elif x == a != b:
            b = -b
    return b
"""

# (line, operator) -> the lines (first, last) the mutant replaces, and
# their replacement.  A `def` body is no branch, so only the statements
# under `if`, `elif` and the loops can go.
EXPECTED = {
    (2, "< -> <="): (2, 2, "    if a <= b <= 3 and a in xs:"),
    (2, "<= -> <"): (2, 2, "    if a < b < 3 and a in xs:"),
    (2, "3 -> 4"): (2, 2, "    if a < b <= 4 and a in xs:"),
    (2, "3 -> 2"): (2, 2, "    if a < b <= 2 and a in xs:"),
    (2, "in -> not in"): (2, 2, "    if a < b <= 3 and a not in xs:"),
    (2, "and -> or"): (2, 2, "    if a < b <= 3 or a in xs:"),
    (3, "1 -> 2"): (3, 3, "        return 2"),
    (3, "1 -> 0"): (3, 3, "        return 0"),
    (3, "delete statement"): (3, 3, "        pass"),
    (4, "> -> >="): (4, 4, "    while a >= b >= 0 or a not in xs:"),
    (4, ">= -> >"): (4, 4, "    while a > b > 0 or a not in xs:"),
    (4, "0 -> 1"): (4, 4, "    while a > b >= 1 or a not in xs:"),
    (4, "0 -> -1"): (4, 4, "    while a > b >= -1 or a not in xs:"),
    (4, "not in -> in"): (4, 4, "    while a > b >= 0 or a in xs:"),
    (4, "or -> and"): (4, 4, "    while a > b >= 0 and a not in xs:"),
    (5, "1 -> 2"): (5, 5, "        a = a - 2"),
    (5, "1 -> 0"): (5, 5, "        a = a - 0"),
    (5, "delete statement"): (5, 5, "        pass"),
    (7, "is -> is not"): (7, 7, "        if x is not None or x is not a:"),
    (7, "is not -> is"): (7, 7, "        if x is None or x is a:"),
    (7, "or -> and"): (7, 7, "        if x is None and x is not a:"),
    (7, "delete statement"): (7, 10, "        pass"),
    (8, "2 -> 3"): (8, 8, "            b = b + 3"),
    (8, "2 -> 1"): (8, 8, "            b = b + 1"),
    (8, "delete statement"): (8, 8, "            pass"),
    (9, "== -> !="): (9, 9, "        elif x != a != b:"),
    (9, "!= -> =="): (9, 9, "        elif x == a == b:"),
    (9, "delete statement"): (9, 10, "        pass"),
    (10, "delete statement"): (10, 10, "            pass"),
}


def test_each_operator_yields_its_mutant():
    lines = SOURCE.splitlines()
    got = {}
    for m in mutation_sweep.mutants("f.py", SOURCE):
        assert (m.line, m.operator) not in got and m.scope == "f"
        got[m.line, m.operator] = mutation_sweep.apply(SOURCE, m.edits)
    assert set(got) == set(EXPECTED)
    for key, (first, last, text) in EXPECTED.items():
        want = lines[:first - 1] + [text] + lines[last:]
        assert got[key] == "\n".join(want) + "\n", key


def _files(root):
    """{path: bytes} of every file under `root`."""
    out = {}
    for d, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                out[os.path.join(d, name)] = fh.read()
    return out


def test_sweep_reports_survivors_and_leaves_the_tree_untouched(
        tmp_path, monkeypatch):
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "mod.py").write_text("def f(a):\n    return a > 0\n")
    (root / "tests" / "test_mod.py").write_text(
        "from mod import f\n\n\ndef test_f():\n    assert f(1) is True\n")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    before = _files(root)
    counts, kills, survivors, _ = mutation_sweep.sweep(
        str(root), ["src/mod.py"], [("tests/test_mod.py",)],
        copied=("src", "tests"))
    assert counts == {"src/mod.py": 3}
    assert kills == [1]  # 0 -> 1 makes f(1) False
    assert [(m.line, m.operator) for m in survivors] == [
        (2, "> -> >="), (2, "0 -> -1")]
    assert _files(root) == before
    assert not os.listdir(scratch)
