"""The scripts run from a plain checkout, and the harness keeps its coverage."""

import importlib.util
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


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--sizes", "8,x"], id="size-x"),
        pytest.param(["--sizes", ""], id="sizes-empty"),
        pytest.param(["--sizes", "10"], id="size-10"),
        pytest.param(["--probs", "0.3,abc"], id="prob-abc"),
        pytest.param(["--probs", "1.5"], id="prob-1.5"),
        pytest.param(["--probs", "-0.1"], id="prob-neg"),
        pytest.param(["--count", "-1"], id="count-neg"),
    ],
)
def test_oracle_agreement_rejects_bad_arguments(args):
    """A usage error on exit 2, with no traceback and no graph run."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "oracle_agreement.py"), *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: oracle_agreement.py")
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("oracle_agreement.py: error: argument")


def test_identity_coverage(tmp_path):
    """The equivalence harness keeps its corpus, command lines and fields."""
    spec = importlib.util.spec_from_file_location("identity", SCRIPTS / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    assert sum(1 for _ in identity.corpus()) == 39_881
    identity.write_inputs(tmp_path)
    assert len(identity.command_lines(tmp_path)) == 929
    assert identity.FIELDS == (
        "verdict",
        "regular",
        "admissible",
        "conjugate",
        "reduction",
        "dim2",
        "check",
        "dim",
        "json",
        "edgelist",
        "dot",
        "reachability",
        "strict_order",
        "intersection",
        "pair_search",
        "dimension",
    )
