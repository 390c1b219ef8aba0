"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload is a list of operations, run in passes.  An operation's
``run(None)`` is the timed call into the package; with a Tracer it makes
the same call inside a span and then replays, each in its own span, the
public calls that do the work, so per-layer times can be read off.
``check`` classifies a result with the code in checks.py and never asks
the package whether its own answer is right.  ``prepare`` runs untimed
before every execution, and ``annotate`` untimed after a traced one, to
record counts that describe the input rather than the package's work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks
from checks import INCONCLUSIVE, OK, WRONG, CobwebShape, IndexedOrder
from tracing import Tracer

WORKLOADS = ("cobweb_cli", "random_2dim", "oracle_sweep")

# cobweb_cli: (sequence spec, max level).  fib gives wide levels and dense
# arcs; const:1 is a tall path with sparse arcs but dense reachability.
# An operation's sample is the median of its passes (see run.measure), so a
# run must hold several passes: fib 12's six commands alone take 2.6 s per
# pass and fib 13's 7.6 s, so the ladder stops at fib 11.
LADDER = [("fib", 9), ("fib", 10), ("fib", 11), ("const:8", 40), ("const:24", 12), ("const:1", 300)]
LADDER_TINY = [("fib", 5), ("const:3", 4), ("const:1", 20)]
# realize on a path deeper than the interpreter's recursion limit; these
# raise RecursionError at the seed and are kept out of every timing.
DEPTH_PROBES = (1000, 1100, 1200)

# random_2dim: the dimension-3 controls make the search exhaustive, so
# their cost hardly depends on the seed.  S3+4 and S3+3 are the controls
# with a long search; twelve copies of S3+2, slower than any random order,
# hold the tail percentile (ten samples beyond it).  The random orders set
# the median.  Orders with 10 or more vertices have search costs up to
# seconds per graph, and mixing sizes puts the median between two clusters,
# so all random orders have the same size.  The median moves with the seed
# as the median of a sample does: the 40th and 60th percentiles of the
# per-order cost lie 2.3 times apart on 9 vertices and 1.6 times on 8, so
# 8 vertices and many orders keep it steady.
CONTROLS = {4: 1, 3: 1, 2: 12}
CONTROLS_TINY = {0: 1, 1: 1}
TWO_DIM_SIZE = 8
TWO_DIM_COUNT = 3300

# oracle_sweep: random regular DAGs sampled as in scripts/oracle_agreement.py,
# each arc probability equally often, on 7 vertices so that order_dimension
# checks every one.  At 8 and 9 vertices single graphs keep the oracle busy
# for 0.1 s to 10 s and the per-seed totals differ several-fold.  Twelve
# copies of S3 plus 2 isolated vertices, a dimension-3 poset with 2688
# linear extensions, are the slowest operations and set the tail.  The
# median moves with the seed, because the number of linear extensions near
# it does (100 to 133 over ten seeds at 600 DAGs), less so with 1200 DAGs.
SWEEP_SIZE = 7
SWEEP_PROBS = (0.15, 0.3, 0.5)
SWEEP_PER_PROB = 400
SWEEP_CONTROLS = 12


def _nothing(*_: Any) -> None:
    pass


@dataclass
class Op:
    name: str
    run: Callable[[Tracer | None], Any]
    check: Callable[[Any], str]
    prepare: Callable[[], None] = _nothing
    annotate: Callable[[Tracer], None] = _nothing


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)


def build(name: str, pkg, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    rng = random.Random(seed)
    if name == "cobweb_cli":
        return _cobweb_cli(pkg, rng, workdir, tiny)
    if name == "random_2dim":
        return _random_2dim(pkg, rng, tiny)
    if name == "oracle_sweep":
        return _oracle_sweep(pkg, rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- verdicts


def verdict_kind(pkg, verdict) -> str:
    if isinstance(verdict, pkg.Orderable):
        return "orderable"
    if isinstance(verdict, pkg.NotRegular):
        return "not_regular"
    # NoAdmissibleChain or NonTransitiveConjugate
    return "no" if verdict.exhaustive else "inconclusive"


def realizer_ok(realizer, order) -> bool:
    return checks.realizes(
        checks.chain_keys(realizer.first),
        checks.chain_keys(realizer.second),
        order.index,
        order.up,
    )


def traced_decide(pkg, tr: Tracer, g, parent: int | None = None):
    """decide_orderable in a span; verify and conjugate replayed as its children.

    The replays time ``verify_realizer`` and ``conjugate_chain`` on the
    returned realizer; their results are not used to judge correctness.
    """
    with tr.span("realizers.decide", parent) as sid:
        verdict = pkg.decide_orderable(g)
    tr.count(f"realizers.verdict_{verdict_kind(pkg, verdict)}")
    if isinstance(verdict, pkg.Orderable):
        with tr.span("realizers.verify", sid) as vid:
            pkg.verify_realizer(verdict.realizer)
        relation = tr.call("graphs.reachability", pkg.reachability, g, parent=vid)
        tr.count("graphs.reach_pairs", len(relation))
        tr.call("realizers.conjugate", pkg.conjugate_chain, verdict.realizer.first, g, parent=sid)
    return verdict


# -------------------------------------------------------------- cobweb_cli


def _cli(pkg, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exit_:  # argparse exits on arguments it rejects
            code = exit_.code
    return code, out.getvalue()


def _traced_build(pkg, tr: Tracer, shape: CobwebShape, parent: int):
    poset = tr.call(
        "cobweb.build",
        pkg.build_cobweb,
        pkg.parse_sequence_spec(shape.spec),
        shape.max_level,
        parent=parent,
    )
    tr.count("cobweb.arcs", len(poset.hasse.arcs))
    return poset.hasse


def _traced_parse(pkg, tr: Tracer, fmt: str, path: Path, parent: int):
    text = path.read_text()
    tr.count("serialization.bytes_in", len(text.encode()))
    parse = {
        "json": pkg.serialization.graph_from_json,
        "edgelist": pkg.serialization.graph_from_edgelist,
    }[fmt]
    return tr.call(f"serialization.parse_{fmt}", parse, text, parent=parent)


def _traced_emit(tr: Tracer, fmt: str, fn, arg, parent: int) -> None:
    text = tr.call(f"serialization.emit_{fmt}", fn, arg, parent=parent)
    tr.count("serialization.bytes_out", len(text.encode()))


def _gen_op(pkg, shape: CobwebShape, fmt: str, out: Path) -> Op:
    argv = ["gen", shape.spec, "--max-level", str(shape.max_level), "--format", fmt, "--output", str(out)]
    emit = {"json": pkg.serialization.graph_to_json, "edgelist": pkg.serialization.graph_to_edgelist}[fmt]
    parse = {"json": checks.parse_graph_json, "edgelist": checks.parse_graph_edgelist}[fmt]

    def run(tr):
        if tr is None:
            return _cli(pkg, argv)
        with tr.span("cli.gen") as sid:
            result = _cli(pkg, argv)
        _traced_emit(tr, fmt, emit, _traced_build(pkg, tr, shape, sid), sid)
        return result

    def check(result) -> str:
        code, _ = result
        return OK if code == 0 and shape.graph_matches(*parse(out.read_text())) else WRONG

    return Op(f"gen {fmt} {shape.name}", run, check, prepare=lambda: out.unlink(missing_ok=True))


def _check_op(pkg, shape: CobwebShape, fmt: str, path: Path) -> Op:
    argv = ["check", "--input", str(path)]

    def admissible(g):
        return pkg.is_admissible(pkg.Chain(pkg.topological_order(g)), g)

    def run(tr):
        if tr is None:
            return _cli(pkg, argv)
        with tr.span("cli.check") as sid:
            result = _cli(pkg, argv)
        g = _traced_parse(pkg, tr, fmt, path, sid)
        tr.call("graphs.acyclic", pkg.is_acyclic, g, parent=sid)
        tr.call("graphs.regular", pkg.is_regular, g, parent=sid)
        tr.call("graphs.admissible", admissible, g, parent=sid)
        return result

    def check(result) -> str:
        code, stdout = result
        lines = stdout.splitlines()
        passed = all(line.endswith(": PASS") for line in lines)
        named = {line.split(":")[0] for line in lines}
        return OK if code == 0 and passed and {"acyclic", "regular"} <= named else WRONG

    return Op(f"check {fmt} {shape.name}", run, check)


def _realize_op(pkg, shape: CobwebShape, source: str, path: Path | None, out: Path) -> Op:
    if source == "seq":
        argv = ["realize", "--seq", shape.spec, "--max-level", str(shape.max_level), "--output", str(out)]
    else:
        argv = ["realize", "--input", str(path), "--output", str(out)]

    def run(tr):
        if tr is None:
            return _cli(pkg, argv)
        with tr.span("cli.realize") as sid:
            result = _cli(pkg, argv)
        if source == "seq":
            g = _traced_build(pkg, tr, shape, sid)
        else:
            g = _traced_parse(pkg, tr, source, path, sid)
        tr.call("graphs.acyclic", pkg.is_acyclic, g, parent=sid)
        verdict = traced_decide(pkg, tr, g, sid)
        if isinstance(verdict, pkg.Orderable):
            _traced_emit(tr, "json", pkg.serialization.realizer_to_json, verdict.realizer, sid)
        return result

    def check(result) -> str:
        code, _ = result
        if code != 0:
            return WRONG
        payload = json.loads(out.read_text())
        first = checks.json_chain_keys(payload["chain_x"])
        second = checks.json_chain_keys(payload["chain_y"])
        return OK if checks.realizes(first, second, shape.index, shape.up) else WRONG

    return Op(f"realize {source} {shape.name}", run, check, prepare=lambda: out.unlink(missing_ok=True))


def _cobweb_cli(pkg, rng: random.Random, workdir: Path, tiny: bool) -> Workload:
    ops = []
    gen_out = workdir / "gen.out"
    realize_out = workdir / "realize.out"
    for spec, max_level in LADDER_TINY if tiny else LADDER:
        shape = CobwebShape(spec, max_level)
        files = {
            "json": workdir / f"{shape.name}.json",
            "edgelist": workdir / f"{shape.name}.edges",
        }
        shape.write_json(files["json"], rng)
        shape.write_edgelist(files["edgelist"], rng)
        ops += [_gen_op(pkg, shape, fmt, gen_out) for fmt in files]
        ops += [_check_op(pkg, shape, fmt, path) for fmt, path in files.items()]
        ops += [_realize_op(pkg, shape, fmt, path, realize_out) for fmt, path in files.items()]
    probes = [
        _realize_op(pkg, CobwebShape("const:1", level), "seq", None, workdir / "probe.out")
        for level in DEPTH_PROBES
    ]
    return Workload(ops, probes)


# ------------------------------------------------------------- random_2dim


def _digraph(pkg, order: IndexedOrder):
    vs = [pkg.Vertex(i + 1, 0) for i in range(order.n)]
    return pkg.Digraph([vs[i] for i in order.order], [(vs[i], vs[j]) for i, j in order.arcs])


def _decide_op(pkg, order: IndexedOrder, name: str) -> Op:
    g = _digraph(pkg, order)

    def run(tr):
        return pkg.decide_orderable(g) if tr is None else traced_decide(pkg, tr, g)

    def check(verdict) -> str:
        kind = verdict_kind(pkg, verdict)
        if kind == "inconclusive":
            return INCONCLUSIVE
        if order.expect_orderable:
            return OK if kind == "orderable" and realizer_ok(verdict.realizer, order) else WRONG
        return OK if kind == "no" else WRONG

    return Op(name, run, check)


def _interleave(controls: list[Op], others: list[Op]) -> list[Op]:
    """Spread the controls evenly through a pass.

    Run back to back, the controls would all land in the same second of
    each pass, and one slow stretch of the machine would move them all.
    """
    every = len(others) // len(controls)
    out = []
    for i, control in enumerate(controls):
        out.append(control)
        out += others[i * every : (i + 1) * every]
    return out + others[len(controls) * every :]


def _random_2dim(pkg, rng: random.Random, tiny: bool) -> Workload:
    controls = [
        _decide_op(pkg, checks.standard_example(rng, k), f"decide S3+{k}")
        for k, copies in (CONTROLS_TINY if tiny else CONTROLS).items()
        for _ in range(copies)
    ]
    n = 5 if tiny else TWO_DIM_SIZE
    orders = [
        _decide_op(pkg, checks.two_dim_order(rng, n), f"decide 2dim n={n}")
        for _ in range(8 if tiny else TWO_DIM_COUNT)
    ]
    return Workload(_interleave(controls, orders))


# ------------------------------------------------------------ oracle_sweep


def _sweep_op(pkg, order: IndexedOrder, name: str) -> Op:
    g = _digraph(pkg, order)
    with_dimension = order.n <= 7

    def run(tr):
        if tr is None:
            verdict = pkg.decide_orderable(g)
            poset = pkg.FinitePoset.from_digraph(g)
            truth = pkg.brute_force_dim_le_2(poset)
            dim = pkg.order_dimension(poset) if with_dimension else None
            return verdict, truth, dim
        verdict = traced_decide(pkg, tr, g)
        poset = tr.call("oracle.poset_build", pkg.FinitePoset.from_digraph, g)
        truth = tr.call("oracle.pair_search", pkg.brute_force_dim_le_2, poset)
        dim = tr.call("oracle.dimension", pkg.order_dimension, poset) if with_dimension else None
        return verdict, truth, dim

    @functools.cache
    def extensions() -> int:
        """Linear extensions of the input, as the package enumerates them."""
        poset = pkg.FinitePoset.from_digraph(g)
        return sum(1 for _ in pkg.enumerate_linear_extensions(poset))

    def annotate(tr):
        tr.count("oracle.extensions", extensions())

    def check(result) -> str:
        verdict, truth, dim = result
        kind = verdict_kind(pkg, verdict)
        if kind == "inconclusive":
            return INCONCLUSIVE
        if kind not in ("orderable", "no"):
            return WRONG
        yes = kind == "orderable"
        agree = bool(truth) == yes and (not with_dimension or (dim in (1, 2)) == yes)
        if not agree:
            return WRONG
        if yes and not realizer_ok(verdict.realizer, order):
            return WRONG
        if truth and not realizer_ok(truth.witness, order):
            return WRONG
        return OK

    return Op(name, run, check, annotate=annotate)


def _oracle_sweep(pkg, rng: random.Random, tiny: bool) -> Workload:
    n = 5 if tiny else SWEEP_SIZE
    controls = [
        _sweep_op(pkg, checks.standard_example(rng, 2), "sweep S3+2")
        for _ in range(1 if tiny else SWEEP_CONTROLS)
    ]
    dags = [
        _sweep_op(pkg, checks.random_regular_dag(rng, n, p), f"sweep n={n} p={p}")
        for _ in range(2 if tiny else SWEEP_PER_PROB)
        for p in SWEEP_PROBS
    ]
    return Workload(_interleave(controls, dags))
