"""Smoke test of the mutation audit in `tests/mutate.py`: its mutant list on a
tiny fixture module, and a dry run on this repository."""

import shutil
import subprocess

import pytest

import mutate

FIXTURE = '''"""Never mutated: a < b, 1 & 2."""
from __future__ import annotations

LIMIT = 3


def clip(x: int | None, lo: int = 0) -> int:
    """Never mutated either: x < 0."""
    if x is None or x < lo:  # nor this comment: x >= 1
        return lo
    values = [x, LIMIT]
    return values[lo] & 7
'''


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.py"
    path.write_text(FIXTURE)
    return path


def test_mutant_list_is_seeded(tiny):
    every = mutate.mutants(tiny, "tiny")
    assert every == mutate.mutants(tiny, "tiny")
    assert [m.index for m in every] == list(range(len(every)))
    assert {m.op for m in every} == {"delete", "negate", "bound", "logic", "int", "index"}
    picked = mutate.sample(every, 6, seed=4)
    assert picked == mutate.sample(every, 6, seed=4) and len(set(picked)) == 6
    assert {m.id for m in picked} != {m.id for m in mutate.sample(every, 6, seed=5)}


def test_each_mutant_changes_one_code_line(tiny):
    source = FIXTURE.splitlines()
    for m in mutate.mutants(tiny, "tiny"):
        mutated = mutate.apply(FIXTURE, m).splitlines()
        assert len(mutated) == len(source)
        assert [i + 1 for i, (a, b) in enumerate(zip(source, mutated)) if a != b] == [m.line]
        assert m.line not in (1, 8)          # docstrings
        assert "int & None" not in m.after   # the annotation
        assert m.line != 9 or m.after.endswith("# nor this comment: x >= 1")


def test_dry_run_leaves_the_repository_unchanged(capsys):
    git = shutil.which("git")
    if git is None or subprocess.run([git, "-C", str(mutate.REPO), "rev-parse"],
                                     capture_output=True).returncode:
        pytest.skip("needs a git work tree")
    status = [git, "-C", str(mutate.REPO), "status", "--porcelain", "--ignored"]
    before = subprocess.run(status, capture_output=True, check=True).stdout
    assert mutate.main(["--dry-run", "--modules", "modem", "--per-module", "2"]) == 0
    assert subprocess.run(status, capture_output=True, check=True).stdout == before
    assert capsys.readouterr().out.count(" imports\n") == 2
