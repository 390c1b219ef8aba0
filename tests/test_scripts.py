"""The scripts import this tree's package from a plain checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, expected",
    [
        (
            "oracle_agreement.py",
            ["--count", "5", "--sizes", "5", "--seed", "0"],
            "0 disagreements",
        ),
        ("regular_dag_census.py", ["--max-n", "3"], "orderable"),
    ],
)
def test_runs_without_pythonpath(script, args, expected, tmp_path):
    env = {k: val for k, val in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
