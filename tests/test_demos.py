"""Each demo script runs to completion without writing to stderr, and
prints exactly the bytes pinned below (sha256 of its standard output;
every demo is deterministic)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_spaces_and_closures.py": "8738602b78a3f7e4d94bdd582104c454637811b0625a5047c47e23710182c626",
    "02_proximity_axioms.py": "1f33087a4446a83a63e6b7ce020f15df1599cfaaa2dc34e641259750c39eda55",
    "03_strongly_far.py": "a78641c6416d5f1fcea7d1e322490604881364b62b86f7fa31eb8c7e17f94c40",
    "04_hyperspace_topologies.py": "bd59469812f88f04f7a6087b7d920755afbe5cbfce592d302c011e2f1dddecf6",
    "05_model_search.py": "b034fa042536bbea42742d3993ae18368846c07f557a64d527bbf529e3cb2bd9",
}


def test_demos_present():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
