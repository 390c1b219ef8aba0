"""Shared builders and independent oracles for the test suite.

The oracles here (BFS reachability, matrix-power closure, permutation
filtering) deliberately reuse nothing from the package internals they
check.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np

from cobwebs import (
    Digraph,
    FibonacciSequence,
    FinitePoset,
    Vertex,
    build_cobweb,
    transitive_reduction,
)


def v(position: int, level: int = 0) -> Vertex:
    return Vertex(position, level)


def row(n: int, level: int = 0) -> list[Vertex]:
    """n vertices on one level, positions 1..n."""
    return [Vertex(i, level) for i in range(1, n + 1)]


def graph_on(n: int, index_arcs: list[tuple[int, int]], level: int = 0) -> Digraph:
    """Digraph on row(n) with arcs given as 0-based index pairs."""
    vs = row(n, level)
    return Digraph(vs, [(vs[i], vs[j]) for i, j in index_arcs])


def fib_cobweb(max_level: int):
    return build_cobweb(FibonacciSequence(), max_level)


def bfs_pairs(g: Digraph) -> set[tuple[Vertex, Vertex]]:
    """Reachability via plain BFS from every vertex."""
    succ = {u: [] for u in g.vertices}
    for t, h in g.arcs:
        succ[t].append(h)
    pairs = set()
    for start in g.vertices:
        seen = set()
        queue = deque(succ[start])
        while queue:
            u = queue.popleft()
            if u in seen:
                continue
            seen.add(u)
            pairs.add((start, u))
            queue.extend(succ[u])
    return pairs


def matrix_closure_pairs(g: Digraph) -> set[tuple[Vertex, Vertex]]:
    """Reachability via boolean matrix powering."""
    n = len(g.vertices)
    adj = np.zeros((n, n), dtype=bool)
    for t, h in g.arcs:
        adj[g.index(t), g.index(h)] = True
    closure = adj.copy()
    for _ in range(max(n, 1)):
        closure = closure | (closure.astype(np.uint8) @ adj.astype(np.uint8) > 0)
    return {
        (g.vertices[i], g.vertices[j])
        for i in range(n)
        for j in range(n)
        if closure[i, j]
    }


def permutation_extensions(p: FinitePoset) -> list[tuple[Vertex, ...]]:
    """Linear extensions by filtering every permutation outright."""
    idx = {e: i for i, e in enumerate(p.elements)}
    strict = {(idx[a], idx[b]) for a, b in p.strict}
    out = []
    for perm in itertools.permutations(range(len(p.elements))):
        pos = {e: k for k, e in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in strict):
            out.append(tuple(p.elements[i] for i in perm))
    return out


def intersection_pairs(order_a, order_b) -> set[tuple[Vertex, Vertex]]:
    """Reflexive intersection of two vertex sequences, the slow way."""
    ra = {u: i for i, u in enumerate(order_a)}
    rb = {u: i for i, u in enumerate(order_b)}
    return {
        (u, w)
        for u in ra
        for w in ra
        if ra[u] <= ra[w] and rb[u] <= rb[w]
    }


def all_triangular_dags(n: int, level: int = 0):
    """Every DAG on n vertices with arcs respecting index order.

    Covers every isomorphism class of DAGs on n vertices, with repeats.
    """
    vs = row(n, level)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(slots)):
        arcs = [
            (vs[i], vs[j]) for k, (i, j) in enumerate(slots) if bits >> k & 1
        ]
        yield Digraph(vs, arcs)


def random_regular_dag(rng: random.Random, n: int) -> Digraph:
    """A random DAG reduced to its covers, so it is regular by construction."""
    vs = row(n)
    prob = rng.choice((0.15, 0.3, 0.5))
    arcs = [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < prob
    ]
    return transitive_reduction(Digraph(vs, arcs))


def standard_example(k: int) -> FinitePoset:
    """The standard example S_k of dimension k: a_i < b_j exactly when i != j."""
    a = row(k, 0)
    b = row(k, 1)
    pairs = frozenset(
        (a[i], b[j]) for i in range(k) for j in range(k) if i != j
    )
    return FinitePoset(tuple(a + b), pairs)


def standard_3d_poset() -> FinitePoset:
    """Smallest poset of order dimension 3."""
    return standard_example(3)


def s3_plus(k: int) -> FinitePoset:
    """S3 and k isolated elements: dimension 3 on 6 + k elements."""
    s3 = standard_3d_poset()
    return FinitePoset(s3.elements + tuple(row(k, 2)), s3.strict)


# JSON that json.loads rejects with RecursionError (nesting deeper than
# the recursion limit) and with ValueError (an integer of more than
# 4,300 digits) rather than with JSONDecodeError.
MALFORMED_JSON = {
    "deep": '{"vertices": ' + "[" * 100_000,
    "long_int": '{"vertices": [[1' + "0" * 5000 + ', 0]], "arcs": []}',
}
