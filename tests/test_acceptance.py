"""Acceptance suite: end-to-end checks with stated time tolerances.

Each test prints one `acceptance N (...): PASS/FAIL` line (visible with
pytest -s) and enforces its wall-clock budget.
"""

import random
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from cobwebs import (
    ExplicitSequence,
    FinitePoset,
    NoAdmissibleChain,
    Orderable,
    Relation,
    ascending_chain,
    brute_force_dim_le_2,
    build_cobweb,
    conjugate_chain,
    decide_orderable,
    descending_chain,
    intersect_chains,
    is_admissible,
    is_regular,
    order_dimension,
    reachability,
    strict_order_relation,
    transitive_reduction,
    verify_realizer,
)

from helpers import (
    all_triangular_dags,
    fib_cobweb,
    random_regular_dag,
    reference_verify,
    standard_3d_poset,
)

SEED = 20250819


@contextmanager
def report(number: int, label: str, limit_seconds: float | None = None):
    info = {"detail": ""}
    start = perf_counter()
    try:
        yield info
    except BaseException:
        print(f"acceptance {number} ({label}): FAIL")
        raise
    elapsed = perf_counter() - start
    detail = f"{info['detail']}, " if info["detail"] else ""
    if limit_seconds is not None and elapsed >= limit_seconds:
        print(
            f"acceptance {number} ({label}): FAIL "
            f"({detail}took {elapsed:.2f}s, limit {limit_seconds:.0f}s)"
        )
        raise AssertionError(
            f"{label} took {elapsed:.2f}s, over the {limit_seconds:.0f}s limit"
        )
    print(f"acceptance {number} ({label}): PASS ({detail}{elapsed:.2f}s)")


def test_1_golden_chains():
    expected_x = [
        (1, 0), (1, 1), (1, 2), (1, 3), (2, 3),
        (1, 4), (2, 4), (3, 4),
        (1, 5), (2, 5), (3, 5), (4, 5), (5, 5),
    ]
    expected_y = [
        (1, 0), (1, 1), (1, 2), (2, 3), (1, 3),
        (3, 4), (2, 4), (1, 4),
        (5, 5), (4, 5), (3, 5), (2, 5), (1, 5),
    ]
    with report(1, "golden chains at level 5", limit_seconds=1.0):
        p = fib_cobweb(5)
        got_x = [(u.position, u.level) for u in ascending_chain(p)]
        got_y = [(u.position, u.level) for u in descending_chain(p)]
        assert got_x == expected_x
        assert got_y == expected_y


def test_2_intersection_identity():
    with report(2, "chain intersection equals the order, levels 0..16",
                limit_seconds=10.0) as info:
        for level in range(17):
            p = fib_cobweb(level)
            got = intersect_chains(ascending_chain(p), descending_chain(p))
            strict = strict_order_relation(p)
            # the reflexive order, as one mask per vertex
            reflexive = [m | 1 << i for i, m in enumerate(strict._masks)]
            expected = Relation._from_masks(strict.vertices, reflexive, strict._index)
            assert got == expected, f"mismatch at level {level}"
        info["detail"] = f"17 levels, {len(got):,} pairs at level 16"


def test_3_random_sequences_regular_and_admissible():
    rng = random.Random(SEED)
    with report(3, "random cobwebs: regular Hasse, admissible chain") as info:
        failures = 0
        for _ in range(200):
            sizes = tuple(
                rng.randint(1, 5) for _ in range(rng.randint(1, 7))
            )
            p = build_cobweb(ExplicitSequence(sizes), len(sizes) - 1)
            ok = bool(is_regular(p.hasse))
            ok = ok and bool(is_admissible(ascending_chain(p), p.hasse))
            failures += not ok
        assert failures == 0
        info["detail"] = "200 sequences, 0 failures"


def test_4_decision_agrees_with_brute_force():
    with report(4, "orderability vs exhaustive pair search",
                limit_seconds=300.0) as info:
        def check_one(g) -> bool:
            verdict = decide_orderable(g)
            truth = brute_force_dim_le_2(FinitePoset.from_digraph(g))
            assert isinstance(verdict, Orderable) == bool(truth), (
                f"disagreement on {g.arcs!r}"
            )
            if isinstance(verdict, Orderable):
                assert verify_realizer(verdict.realizer)
                assert verify_realizer(verdict.realizer) == reference_verify(verdict.realizer)
                return True
            assert verdict.exhaustive
            return False

        exhaustive = orderable = 0
        for n in range(6):
            for g in all_triangular_dags(n):
                if not is_regular(g):
                    continue
                exhaustive += 1
                orderable += check_one(g)

        rng = random.Random(SEED)
        sampled = negative = 0
        for _ in range(500):
            g = random_regular_dag(rng, rng.choice((6, 7)))
            sampled += 1
            negative += not check_one(g)
        info["detail"] = (
            f"{exhaustive} small graphs ({orderable} orderable) + "
            f"{sampled} random ({negative} negative), 0 disagreements"
        )


def test_5_three_dimensional_control():
    with report(5, "dimension-3 poset rejected"):
        s3 = standard_3d_poset()
        assert not brute_force_dim_le_2(s3)
        assert order_dimension(s3) == 3
        verdict = decide_orderable(s3.strict_digraph())
        assert verdict == NoAdmissibleChain(exhaustive=True)


def test_6_partial_order_axioms_and_cover_closure():
    from cobwebs import ConstantSequence, FibonacciSequence

    instances = [
        build_cobweb(FibonacciSequence(), 10),   # 144 vertices
        build_cobweb(ConstantSequence(5), 39),   # 200 vertices
    ]
    with report(6, "order axioms and Hasse reachability") as info:
        for p in instances:
            vs = p.hasse.vertices
            n = len(vs)
            leq = np.zeros((n, n), dtype=bool)
            for i, x in enumerate(vs):
                for j, y in enumerate(vs):
                    leq[i, j] = p.leq(x, y)
            assert leq.diagonal().all(), "not reflexive"
            assert not (leq & leq.T & ~np.eye(n, dtype=bool)).any(), (
                "not antisymmetric"
            )
            implied = (leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0
            assert not (implied & ~leq).any(), "not transitive"
            assert reachability(p.hasse) == strict_order_relation(p)
        info["detail"] = "144 and 200 vertex posets"


def test_7_conjugate_matches_descending_chain():
    with report(7, "conjugate duality through level 7") as info:
        for level in range(8):
            p = fib_cobweb(level)
            chain = ascending_chain(p)
            mate = conjugate_chain(chain, p.hasse)
            assert intersect_chains(chain, mate) == intersect_chains(
                chain, descending_chain(p)
            ), f"mismatch at level {level}"
        info["detail"] = "8 levels"


def test_8_hasse_reachability_at_scale():
    # the paper's claim on the built cobwebs, through the order queries:
    # the Hasse digraph is regular and its reachability is the order
    with report(8, "Hasse reachability and regularity, fib levels 17..20",
                limit_seconds=10.0) as info:
        for level in range(17, 21):
            p = fib_cobweb(level)
            assert reachability(p.hasse) == strict_order_relation(p), level
            assert is_regular(p.hasse), level
            assert transitive_reduction(p.hasse) == p.hasse, level
        info["detail"] = f"4 levels, {len(p):,} vertices at level 20"
