#!/usr/bin/env python3
"""Random sweep comparing the orderability decider against the brute-force oracle.

Samples regular DAGs (random upper-triangular graphs reduced to their
covers), runs both deciders on each, and reports any disagreement.  The
oracle's own realizer must verify, and on graphs with at most
MAX_DIMENSION_SIZE (8) vertices order_dimension must agree as well.
Exit status 0 means full agreement.

    python3 scripts/oracle_agreement.py --count 500 --sizes 6,7 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

# this tree's package, whether or not some other copy is installed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cobwebs import (
    Digraph,
    FinitePoset,
    Orderable,
    Vertex,
    brute_force_dim_le_2,
    decide_orderable,
    order_dimension,
    transitive_reduction,
    verify_realizer,
)
from cobwebs.oracle import MAX_DIMENSION_SIZE


def random_regular_dag(rng: random.Random, n: int, prob: float) -> Digraph:
    vs = [Vertex(i, 0) for i in range(1, n + 1)]
    arcs = [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < prob
    ]
    return transitive_reduction(Digraph(vs, arcs))


def comma_list(kind, low, high, what):
    """An argparse type: comma-separated values of kind, each in [low, high]."""

    def parse(text: str) -> list:
        try:
            values = [kind(s) for s in text.split(",")]
        except ValueError:
            message = f"not a comma-separated list of {what}: {text!r}"
            raise argparse.ArgumentTypeError(message) from None
        for v in values:
            if not low <= v <= high:
                message = f"{what} must lie in [{low}, {high}]: {v}"
                raise argparse.ArgumentTypeError(message)
        return values

    return parse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument(
        "--sizes",
        type=comma_list(int, 0, 9, "vertex counts"),
        default="6,7",
        help="comma-separated vertex counts to sample from, at most 9",
    )
    parser.add_argument(
        "--probs",
        type=comma_list(float, 0, 1, "probabilities"),
        default="0.15,0.3,0.5",
        help="arc probabilities to sample from",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.count < 0:
        parser.error(f"argument --count: must not be negative: {args.count}")

    rng = random.Random(args.seed)
    orderable = disagreements = 0
    for k in range(args.count):
        g = random_regular_dag(rng, rng.choice(args.sizes), rng.choice(args.probs))
        verdict = decide_orderable(g)
        poset = FinitePoset.from_digraph(g)
        truth = brute_force_dim_le_2(poset)
        if truth and not verify_realizer(truth.witness):
            disagreements += 1
            print(f"[{k}] oracle realizer fails to verify: {g.arcs}")
        if len(g) <= MAX_DIMENSION_SIZE and (
            order_dimension(poset, 2) in (1, 2)
        ) != isinstance(verdict, Orderable):
            disagreements += 1
            print(f"[{k}] order_dimension disagrees with the decider: {g.arcs}")
        if isinstance(verdict, Orderable):
            orderable += 1
            if not (truth and verify_realizer(verdict.realizer)):
                disagreements += 1
                print(f"[{k}] decider says orderable, oracle disagrees: {g.arcs}")
        elif truth:
            disagreements += 1
            print(f"[{k}] oracle says orderable, decider disagrees: {g.arcs}")

    print(
        f"{args.count} graphs: {orderable} orderable, "
        f"{args.count - orderable} not, {disagreements} disagreements"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
