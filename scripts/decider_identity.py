#!/usr/bin/env python3
"""Compare the library results of two source trees on a fixed corpus.

Runs this script once per tree in a subprocess, with that tree's
``src`` on PYTHONPATH and its own PYTHONHASHSEED, and reports every
input on which the two trees' results differ.  Exit status 0 means no
difference.

    python3 scripts/decider_identity.py OLD_TREE NEW_TREE

The corpus: every triangular DAG with at most 6 vertices; 3,000 seeded
regular DAGs with 7-14 vertices and 1,500 random 2-dimensional orders
(covers only) with 5-80 elements, each also with a disjoint S3
appended, both in shuffled vertex and arc order; and the fib cobwebs
up to level 12.  The inputs are generated by this script, not by either
tree.  For each input it compares the text of:

- ``decide_orderable`` through ``verdict_to_json`` (verdict, both
  chains, witness);
- ``is_regular``, and ``is_admissible`` on ``topological_order``;
- ``conjugate_chain`` of ``topological_order``: the chain, or the cycle
  of its ConjugateCycleError;
- the arcs of ``transitive_reduction``;
- the dimension <= 2 answer, ``decide_orderable(transitive_reduction(g))``;
- the ``check`` and ``dim`` views, ``_check_graph`` (regularity and
  admissibility, with witnesses) and ``_dimension_up_to_2``;
- ``graph_to_json``, ``graph_to_edgelist`` and ``graph_to_dot``.

Run with the same tree twice (``. .``) it checks that no result depends
on the hash seed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

SEED = 10
HASH_SEEDS = ("1", "2")  # one per tree
FIELDS = (
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
)

Key = tuple[int, int]  # (position, level)
Case = tuple[str, list[Key], list[tuple[Key, Key]]]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _label(i: int) -> Key:
    """Vertex i over four levels, so that level order is not index order."""
    return (i // 4 + 1, i % 4)


def _covers(below: list[int]) -> list[tuple[int, int]]:
    """The covering pairs of a transitive relation; below[i] = elements above i."""
    out = []
    for i, mask in enumerate(below):
        implied = 0
        for j in _bits(mask):
            implied |= below[j]
        out += [(i, j) for j in _bits(mask & ~implied)]
    return out


def _shuffled(rng: random.Random, name: str, n: int, arcs: list) -> Case:
    vs = [_label(i) for i in range(n)]
    arc_keys = [(_label(i), _label(j)) for i, j in arcs]
    rng.shuffle(vs)
    rng.shuffle(arc_keys)
    return name, vs, arc_keys


def corpus() -> Iterator[Case]:
    for n in range(7):
        vs = [(i + 1, 0) for i in range(n)]
        slots = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
        for code in range(1 << len(slots)):
            arcs = [arc for k, arc in enumerate(slots) if code >> k & 1]
            yield f"triangular_{n}_{code}", vs, arcs
    rng = random.Random(SEED)
    for k in range(3000):
        n = rng.randint(7, 14)
        prob = rng.choice((0.15, 0.3, 0.5))
        reach = [0] * n
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                if rng.random() < prob:
                    reach[i] |= reach[j] | 1 << j
        yield _shuffled(rng, f"regular_{k}", n, _covers(reach))
    for k in range(1500):
        n = rng.randint(5, 80)
        a, b = rng.sample(range(n), n), rng.sample(range(n), n)
        below = [
            sum(1 << v for v in range(n) if a[u] < a[v] and b[u] < b[v])
            for u in range(n)
        ]
        covers = _covers(below)
        yield _shuffled(rng, f"two_dim_{k}", n, covers)
        s3 = [(n + i, n + 3 + j) for i in range(3) for j in range(3) if i != j]
        yield _shuffled(rng, f"two_dim_{k}_s3", n + 6, covers + s3)
    fib = [1, 1, 1]  # level sizes of the fib cobweb
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    for level in range(13):
        levels = [[(j, s) for j in range(1, fib[s] + 1)] for s in range(level + 1)]
        vs = [v for row in levels for v in row]
        arcs = [(u, w) for lo, hi in zip(levels, levels[1:]) for u in lo for w in hi]
        yield f"fib_{level}", vs, arcs


def dump() -> None:
    """Print one line per input for the cobwebs package on sys.path."""
    import cobwebs
    from cobwebs import (
        Chain,
        ConjugateCycleError,
        Digraph,
        Vertex,
        conjugate_chain,
        decide_orderable,
        is_admissible,
        is_regular,
        topological_order,
        transitive_reduction,
    )
    from cobwebs.realizers import _check_graph, _dimension_up_to_2
    from cobwebs.serialization import (
        graph_to_dot,
        graph_to_edgelist,
        graph_to_json,
        verdict_to_json,
    )

    def conjugate(x: Chain, g: Digraph) -> str:
        try:
            return repr(conjugate_chain(x, g).order)
        except ConjugateCycleError as err:
            return f"cycle {err.cycle!r} {err}"

    print("cobwebs", Path(cobwebs.__file__).resolve().parent)
    out = sys.stdout
    for name, vs, arcs in corpus():
        g = Digraph(
            [Vertex(*v) for v in vs], [(Vertex(*t), Vertex(*h)) for t, h in arcs]
        )
        x = Chain(topological_order(g))
        reduced = transitive_reduction(g)
        verdict = decide_orderable(g)
        texts = (
            verdict_to_json(verdict),
            repr(is_regular(g)),
            repr(is_admissible(x, g)),
            conjugate(x, g),
            repr(reduced.arcs),
            verdict_to_json(decide_orderable(reduced)),
            repr(_check_graph(g)),
            repr(_dimension_up_to_2(g)),
            graph_to_json(g),
            graph_to_edgelist(g),
            graph_to_dot(g),
        )
        kind = type(verdict).__name__
        digests = [hashlib.blake2b(t.encode(), digest_size=8) for t in texts]
        out.write(f"{name} {kind} {' '.join(d.hexdigest() for d in digests)}\n")


def run(tree: Path, hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed)
    return subprocess.Popen(
        [sys.executable, __file__, "--dump"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument(
        "--dump",
        action="store_true",
        help="print this corpus's results for the cobwebs package on PYTHONPATH",
    )
    args = parser.parse_args()
    if args.dump:
        dump()
        return 0
    if len(args.trees) != 2:
        parser.error("expected OLD_TREE and NEW_TREE")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "cobwebs").is_dir():
            parser.error(f"{tree} has no src/cobwebs")

    # both trees run at once; the second pipe waits while the first is read
    procs = [run(tree, seed) for tree, seed in zip(trees, HASH_SEEDS)]
    outputs = [proc.communicate()[0].splitlines() for proc in procs]
    for tree, proc, lines in zip(trees, procs, outputs):
        expected = f"cobwebs {tree / 'src' / 'cobwebs'}"
        if proc.returncode or not lines or lines[0] != expected:
            print(f"{tree}: run failed (exit {proc.returncode})")
            return 2
    old, new = (lines[1:] for lines in outputs)
    if len(old) != len(new):
        print(f"{len(old)} inputs against {len(new)}")
        return 1

    kinds: Counter[str] = Counter()
    differences = 0
    for a, b in zip(old, new):
        name, kind, *old_digests = a.split()
        kinds[kind] += 1
        if a != b:
            differences += 1
            new_digests = b.split()[2:]
            differ = [f for f, x, y in zip(FIELDS, old_digests, new_digests) if x != y]
            print(f"DIFFERENT ({', '.join(differ) or 'name'}): {name}")
    histogram = ", ".join(f"{k}: {c}" for k, c in sorted(kinds.items()))
    print(f"{len(old)} inputs ({histogram}); {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
