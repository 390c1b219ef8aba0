#!/usr/bin/env python3
"""Census of small DAGs: how many are regular, and how many orderable.

Enumerates every DAG whose arcs respect a fixed vertex order (one
representative set covering all isomorphism classes, with repeats) and
tabulates the orderability verdicts per vertex count.

    python3 scripts/regular_dag_census.py --max-n 5
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations
from pathlib import Path

# this tree's package, whether or not some other copy is installed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cobwebs import Digraph, Orderable, Vertex, decide_orderable, is_regular


def all_triangular_dags(n: int):
    vs = [Vertex(i, 0) for i in range(1, n + 1)]
    slots = list(combinations(range(n), 2))
    for bits in range(1 << len(slots)):
        yield Digraph(
            vs,
            [(vs[i], vs[j]) for k, (i, j) in enumerate(slots) if bits >> k & 1],
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()
    if args.max_n > 6:
        parser.error("the full enumeration beyond 6 vertices is impractical")

    print(f"{'n':>2} {'dags':>8} {'regular':>8} {'orderable':>10} {'rejected':>9}")
    for n in range(args.max_n + 1):
        total = regular = orderable = 0
        for g in all_triangular_dags(n):
            total += 1
            if not is_regular(g):
                continue
            regular += 1
            if isinstance(decide_orderable(g), Orderable):
                orderable += 1
        print(
            f"{n:>2} {total:>8} {regular:>8} {orderable:>10} "
            f"{regular - orderable:>9}"
        )


if __name__ == "__main__":
    main()
