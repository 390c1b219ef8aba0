"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench/smoke_test.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import random

import checks
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_every_workload_passes_its_checks_and_reports_every_metric():
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            outcome = run.run(name, seed=3, seconds=0.05, trace=trace, tiny=True)
            result = outcome["result"]
            assert result["correct"] and result["failed"] == 0, outcome["log"]
            assert result["attempted"] >= 1
            expected = {(m["name"], m["unit"]) for m in BENCHMARK[section]}
            got = {(k, m["unit"]) for k, m in result["metrics"].items()}
            assert got == expected


def test_inputs_depend_only_on_the_seed(tmp_path):
    pkg = run.import_package()
    for copy in ("a", "b"):
        (tmp_path / copy).mkdir()
        workloads.build("cobweb_cli", pkg, 5, tmp_path / copy, tiny=True)
    written = sorted((tmp_path / "a").iterdir())
    assert written
    for path in written:
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def _swap_first_two(chain):
    items = list(chain)
    items[0], items[1] = items[1], items[0]
    return items


def test_corrupted_realizers_are_classified_wrong(tmp_path):
    pkg = run.import_package()

    # A realizer returned by the library, for a random 2-dimensional order.
    order = checks.two_dim_order(random.Random(0), 6)
    op = workloads._decide_op(pkg, order, "decide")
    verdict = op.run(None)
    assert op.check(verdict) == checks.OK
    r = verdict.realizer
    bad = pkg.Realizer(r.first, pkg.Chain(_swap_first_two(r.second)), r.target)
    assert op.check(pkg.Orderable(bad)) == checks.WRONG
    short = pkg.Realizer(r.first, pkg.Chain(list(r.second)[1:]), r.target)
    assert op.check(pkg.Orderable(short)) == checks.WRONG

    # A realizer printed by the CLI, for a cobweb.
    shape = checks.CobwebShape("fib", 4)
    out = tmp_path / "realize.out"
    op = workloads._realize_op(pkg, shape, "seq", None, out)
    result = op.run(None)
    assert op.check(result) == checks.OK
    payload = json.loads(out.read_text())
    payload["chain_y"] = _swap_first_two(payload["chain_y"])
    out.write_text(json.dumps(payload))
    assert op.check(result) == checks.WRONG


def test_an_output_left_by_an_earlier_execution_is_not_checked_again(tmp_path):
    pkg = run.import_package()
    out = tmp_path / "realize.out"
    op = workloads._realize_op(pkg, checks.CobwebShape("fib", 4), "seq", None, out)
    assert run.execute(op, None, [])[1] == checks.OK
    silent = dataclasses.replace(op, run=lambda tr: (0, ""))
    assert run.execute(silent, None, [])[1] == checks.WRONG


def test_a_dimension_3_control_reported_orderable_is_wrong():
    pkg = run.import_package()
    order = checks.standard_example(random.Random(0), 0)
    op = workloads._decide_op(pkg, order, "decide S3")
    assert op.check(op.run(None)) == checks.OK
    g = pkg.Digraph(pkg.Vertex(i + 1, 0) for i in range(order.n))
    chain = pkg.Chain(g.vertices)
    assert op.check(pkg.Orderable(pkg.Realizer(chain, chain, g))) == checks.WRONG


def test_a_duration_is_scaled_by_the_calibrations_around_it():
    clock = run.Clock()
    clock.ends = [float(i) for i in range(20)]
    clock.calibrations = [1e-3] * 10 + [2e-3] * 10
    # Short work: the four calibrations on each side, all 1 ms.
    assert math.isclose(clock.scaled((0.5, 4.5, 5)), 0.5 * run.CALIBRATION_S / 1e-3)
    # 3 s of work ending at 12.5: the calibrations from 6.5 to 15.5, mostly 2 ms.
    assert math.isclose(clock.scaled((3.0, 12.5, 13)), 3.0 * run.CALIBRATION_S / 2e-3)
