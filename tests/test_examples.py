"""Run every ``examples/*.py`` script end to end.

The examples are documentation that executes: each drives the public API
the way a user would, so a refactor that breaks one must fail here.
Each script runs in its own interpreter from the repository root, the
way the README tells users to run them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_every_example_is_covered():
    """The glob found the scripts (guards against a move hiding them)."""
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (
        f"{script.name} failed:\n{proc.stdout[-4000:]}\n"
        f"{proc.stderr[-2000:]}")
