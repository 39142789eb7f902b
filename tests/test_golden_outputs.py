"""CLI stdout bytes and exit codes pinned against committed digests.

`tests/golden_outputs.json` maps each argv (joined by spaces, run from
the repository root) to the sha256 of its stdout and its exit code. The
cases cover `validate` and `relations` on every model file, `compare` on
every ordered pair of topology specs for two models, and `search` for
every target at `--max-n` 3 and 4, all with `--json --no-timestamp`.

Regenerate the file only when an output is meant to move:

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from proxitop.cli import main
from proxitop.hyperspace import MISS_ONLY_KINDS, TOPOLOGY_KINDS
from proxitop.search import TARGET_NAMES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden_outputs.json"
FLAGS = ("--json", "--no-timestamp")
MODEL_FILES = ("models/alexandroff_ideal.yaml", "models/discrete_overlap.yaml", "models/line_gap.yaml")
COMPARE_FILES = ("models/alexandroff_ideal.yaml", "models/discrete_overlap.yaml")
SPECS = TOPOLOGY_KINDS + MISS_ONLY_KINDS


def cases() -> list[tuple[str, ...]]:
    out = []
    for path in MODEL_FILES:
        out.append(("validate", path, *FLAGS))
        out.append(("relations", path, *FLAGS))
    for path in COMPARE_FILES:
        for left in SPECS:
            for right in SPECS:
                out.append(("compare", path, "--left", left, "--right", right, *FLAGS))
    for target in TARGET_NAMES:
        for max_n in ("3", "4"):
            out.append(("search", "--target", target, "--max-n", max_n, *FLAGS))
    return out


def digest(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), "exit": code}


CASES = cases()


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(c) for c in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_bytes(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert digest(argv) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_outputs.py --write")
    import os

    os.chdir(ROOT)
    table = {" ".join(argv): digest(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
