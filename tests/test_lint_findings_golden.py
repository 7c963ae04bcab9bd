"""Every lint finding on the fixture tree, pinned field for field.

The per-rule tests check rule ids and lines; this module pins the whole
output of ``lint_paths(..., units=True)`` — rule, file, line, column and
message of every finding and parse error — so a refactor of the lint
machinery cannot move a single character of what it reports.

Two shapes of run are pinned:

* each fixture under ``tests/lint_fixtures`` linted on its own (the
  per-file rules plus all three dataflow engines);
* one cross-file run over the whole fixture directory with
  ``exclude=[]``, where call-site checks see every other fixture.

The goldens in ``tests/goldens/lint_findings.json`` were generated at
commit a5fc839 (before the dataflow engines shared one driver) by::

    PYTHONPATH=src python tests/test_lint_findings_golden.py --write a5fc839

(the file's ``generated`` block repeats the label and command).
Regenerate only for a deliberate change of what a rule reports.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
GOLDENS = Path(__file__).resolve().parent / "goldens" / "lint_findings.json"


def fixture_files():
    return sorted(FIXTURES.rglob("*.py"))


def encode(report):
    """The pinned fields of a report, paths relative to the fixtures."""
    return [
        [
            f.rule_id,
            Path(f.path).relative_to(FIXTURES).as_posix(),
            f.line,
            f.col,
            f.message,
        ]
        for f in report.errors + report.findings
    ]


def lint_one(path):
    return encode(lint_paths([path], units=True))


def lint_tree():
    return encode(lint_paths([FIXTURES], units=True, exclude=[]))


def load_goldens():
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_every_fixture():
    names = [p.relative_to(FIXTURES).as_posix() for p in fixture_files()]
    assert sorted(load_goldens()["files"]) == names


@pytest.mark.parametrize(
    "name", [p.relative_to(FIXTURES).as_posix() for p in fixture_files()]
)
def test_single_fixture_findings_match_the_golden(name):
    assert lint_one(FIXTURES / name) == load_goldens()["files"][name]


def test_cross_file_run_matches_the_golden():
    assert lint_tree() == load_goldens()["tree"]


def write_goldens(commit):
    """Lint every fixture and the tree, pinning them under ``commit``."""
    GOLDENS.parent.mkdir(exist_ok=True)
    payload = {
        "generated": {
            "commit": commit,
            "command": (
                "PYTHONPATH=src python "
                f"tests/test_lint_findings_golden.py --write {commit}"
            ),
        },
        "files": {
            p.relative_to(FIXTURES).as_posix(): lint_one(p)
            for p in fixture_files()
        },
        "tree": lint_tree(),
    }
    GOLDENS.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: test_lint_findings_golden.py --write <commit>")
    write_goldens(sys.argv[2])
