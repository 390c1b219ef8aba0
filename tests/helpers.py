"""Shared builders and independent oracles for the test suite.

The oracles here (BFS reachability, matrix-power closure, permutation
filtering) deliberately reuse nothing from the package internals they
check.
"""

from __future__ import annotations

import itertools
import json
import random
from array import array
from collections import deque

import numpy as np

from cobwebs import (
    CheckResult,
    Digraph,
    FibonacciSequence,
    FinitePoset,
    Realizer,
    Vertex,
    VertexSetMismatchError,
    build_cobweb,
    transitive_reduction,
)
from cobwebs.serialization import FormatError


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


def bfs_index_pairs(g: Digraph) -> set[tuple[int, int]]:
    """Reachability via plain BFS from every vertex, as pairs of vertex indices."""
    index = {u: i for i, u in enumerate(g.vertices)}
    succ = [[] for _ in g.vertices]
    for t, h in g.arcs:
        succ[index[t]].append(index[h])
    pairs = set()
    for start in range(len(succ)):
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


def bfs_pairs(g: Digraph) -> set[tuple[Vertex, Vertex]]:
    """Reachability via plain BFS from every vertex."""
    vs = g.vertices
    return {(vs[i], vs[j]) for i, j in bfs_index_pairs(g)}


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


def reference_verify(r: Realizer) -> CheckResult:
    """The realizer equation on explicit sets of vertex index pairs, with BFS reachability."""
    g = r.target
    if r.first.vertex_set != frozenset(g.vertices):
        raise VertexSetMismatchError(
            "realizer chains do not cover the target's vertex set"
        )
    if r.first.vertex_set != r.second.vertex_set:
        raise VertexSetMismatchError("chains cover different vertex sets")
    index = {u: i for i, u in enumerate(g.vertices)}
    n = len(index)
    rank_a, rank_b = [0] * n, [0] * n
    for rank, chain in ((rank_a, r.first), (rank_b, r.second)):
        for k, u in enumerate(chain):
            rank[index[u]] = k
    got = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if rank_a[i] <= rank_a[j] and rank_b[i] <= rank_b[j]
    }
    expected = bfs_index_pairs(g) | {(i, i) for i in range(n)}
    diff = got.symmetric_difference(expected)
    if not diff:
        return CheckResult(True)
    i, j = min(diff)
    return CheckResult(False, (g.vertices[i], g.vertices[j]))


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


def reference_orientation(reach: list[int], above: list[int]) -> list[int] | None:
    """Golumbic's G-decomposition with one dict per implication class.

    The reference for ``_orient_incomparability``: classes taken in the
    same order (smallest remaining pair first), each closed by forcing,
    with a -> b forcing a -> c for every neighbour c of a not adjacent
    to b and c -> b for every neighbour c of b not adjacent to a.
    Returns the masks of P ∪ T (bit q of ``out[p]`` when q is reachable
    from p or p -> q), or None when a class holds its first pair reversed.
    """

    def bits(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    n = len(reach)
    full = (1 << n) - 1
    adj = [full & ~(reach[p] | above[p] | 1 << p) for p in range(n)]
    out = list(reach)
    p = 0
    while True:
        while p < n and not adj[p]:
            p += 1
        if p == n:
            return out
        q = bits(adj[p])[0]
        heads = {p: 1 << q}
        tails = {q: 1 << p}
        todo = [(p, q)]
        while todo:
            if heads.get(q, 0) >> p & 1:
                return None
            a, b = todo.pop()
            for c in bits(adj[a] & ~adj[b] & ~(1 << b) & ~heads.get(a, 0)):
                heads[a] = heads.get(a, 0) | 1 << c
                tails[c] = tails.get(c, 0) | 1 << a
                todo.append((a, c))
            for c in bits(adj[b] & ~adj[a] & ~(1 << a) & ~tails.get(b, 0)):
                heads[c] = heads.get(c, 0) | 1 << b
                tails[b] = tails.get(b, 0) | 1 << c
                todo.append((c, b))
        for a, mask in heads.items():
            adj[a] &= ~mask
            out[a] |= mask
        for b, mask in tails.items():
            adj[b] &= ~mask


def reference_extension_pair_masks(p: FinitePoset) -> tuple[list[int], int, int]:
    """Every extension's pair mask, target and incomp, with a bit generator.

    The reference for ``joined_extension_masks``, the oracle's halves
    read from a table of set bits: the same down-set levels, all the way
    down, walked with a generator over each mask's set bits.
    """

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    n = len(p)
    pred, succ = p._pred, p.strict._masks
    full = (1 << n) - 1
    larger = {full: [0]}  # the suffix masks of each down-set one larger
    for _ in range(n):
        level = {
            upper ^ 1 << i: []
            for upper in larger
            for i in bits(upper)
            if not succ[i] & upper
        }
        for placed, suffixes in level.items():
            rest = full ^ placed
            for i in bits(rest):
                if not pred[i] & rest:
                    tail = (rest ^ 1 << i) << (i * n)
                    suffixes += [tail | m for m in larger[placed | 1 << i]]
        larger = level
    pairs = (1 << n * n) - 1
    target = sum(above << (i * n) for i, above in enumerate(succ))
    transpose = sum(below << (i * n) for i, below in enumerate(pred))
    diagonal = sum(1 << (i * n + i) for i in range(n))
    return larger[0], target, pairs & ~diagonal & ~target & ~transpose


def joined_extension_masks(p: FinitePoset) -> tuple[list[int], int, int]:
    """Every extension mask, lexicographically, count bits stripped; target; incomp.

    Each prefix of the oracle's cached halves ORed with every suffix of
    its down-set: the list that ``reference_extension_pair_masks`` builds,
    which the oracle itself never builds.
    """
    (prefixes, suffixes, incomp), _ = p._extensions
    n = len(p)
    pairs = (1 << n * n) - 1
    masks = [(mask | m) & pairs for mask, placed in prefixes for m in suffixes[placed]]
    target = sum(above << (i * n) for i, above in enumerate(p.strict._masks))
    return masks, target, incomp


def reference_order_dimension(p: FinitePoset) -> int | None:
    """The dimension of p, or None above 3, from the list of every extension.

    The reference for ``oracle.order_dimension(p, 3)``, which joins the
    critical projections per down-set: here the critical pairs are read
    off ``p.strict``, every mask of ``reference_extension_pair_masks`` is
    projected onto them, and a third extension reverses what two others
    put forward exactly when the order stays acyclic with those reversed.
    """
    masks, _, _ = reference_extension_pair_masks(p)
    n = len(p)
    idx = {e: i for i, e in enumerate(p.elements)}
    order = {(idx[a], idx[b]) for a, b in p.strict}
    below = [{a for a, c in order if c == b} for b in range(n)]
    above = [{c for a, c in order if a == b} for b in range(n)]
    critical = sum(
        1 << (a * n + b)
        for a, b in itertools.permutations(range(n), 2)
        if (a, b) not in order and (b, a) not in order
        and below[a] <= below[b] and above[b] <= above[a]
    )
    forward = sorted({m & critical for m in masks})

    def acyclic(reversed_pairs: int) -> bool:
        arcs = order | {
            (b, a) for a, b in itertools.product(range(n), repeat=2)
            if reversed_pairs >> (a * n + b) & 1
        }
        left = set(range(n))
        while left:
            sources = {b for b in left if not any((a, b) in arcs for a in left)}
            if not sources:
                return False
            left -= sources
        return True

    if 0 in forward:
        return 1
    if any(x & y == 0 for x, y in itertools.combinations(forward, 2)):
        return 2
    pairs = itertools.combinations_with_replacement(forward, 2)
    return 3 if any(acyclic(x & y) for x, y in pairs) else None


def reference_realizing_pair(masks: list[int], incomp: int) -> tuple[int, int] | None:
    """The first extension mask, in order, whose partner is one: by set lookup.

    The reference for ``oracle._realizing_pair``, which joins prefixes to
    suffixes by their partner counts: every mask goes into a set, and
    each one's only possible partner ``m ^ incomp`` is looked up there.
    """
    present = set(masks)
    m = next((m for m in masks if m ^ incomp in present), None)
    return None if m is None else (m, m ^ incomp)


def two_dimensional_order(
    x: list[int], y: list[int], order: list[int], s3: bool = False
) -> Digraph:
    """The covers of the order i < j when x[i] < x[j] and y[i] < y[j].

    Vertex i is ``Vertex(i + 1, 0)``, listed in the sequence ``order``.
    With ``s3`` the standard example S3 follows on levels 1 and 2,
    disjoint from the rest.
    """
    n = len(x)
    up = [
        sum(1 << j for j in range(n) if x[i] < x[j] and y[i] < y[j]) for i in range(n)
    ]
    vs = row(n)
    arcs = []
    for i in range(n):
        implied = 0
        for j in range(n):
            if up[i] >> j & 1:
                implied |= up[j]
        arcs += [(vs[i], vs[j]) for j in range(n) if (up[i] & ~implied) >> j & 1]
    vertices = [vs[i] for i in order]
    if s3:
        a, b = row(3, 1), row(3, 2)
        vertices += a + b
        arcs += [(a[i], b[j]) for i in range(3) for j in range(3) if i != j]
    return Digraph(vertices, arcs)


def _reference_digraph(vs: tuple[Vertex, ...], arcs) -> Digraph:
    """Digraph's fields as its old ``_build`` set them, from lazily read index arcs.

    One set lookup and one add per arc; a loop raises when it is read,
    so a fault that a lazy ``arcs`` raises later is never reached.
    """
    index = {u: i for i, u in enumerate(vs)}
    if len(index) != len(vs):
        seen = set()
        for u in vs:
            if u in seen:
                raise ValueError(f"duplicate vertex {u}")
            seen.add(u)
    succ = [[] for _ in vs]
    seen_arcs = set()
    kept = []
    for arc in arcs:
        t, h = arc
        if t == h:
            raise ValueError(f"loop at {vs[t]}")
        if arc in seen_arcs:
            continue
        seen_arcs.add(arc)
        succ[t].append(h)
        kept.append(arc)
    g = Digraph.__new__(Digraph)
    g.vertices, g._index, g._succ = vs, index, succ
    g._tails = array("I", [t for t, _ in kept])
    return g


def reference_from_index_arcs(vertices, arcs) -> Digraph:
    """The old builder from a list of index arcs, with its per-arc set."""
    return _reference_digraph(tuple(vertices), arcs)


def reference_digraph(vertices, arcs) -> Digraph:
    """The public ``Digraph(vertices, arcs)`` with its old lazy resolution.

    Each arc is resolved as the build reads it, so an unknown endpoint
    and a loop raise in the order that they are listed.
    """
    vs = tuple(vertices)
    index = {u: i for i, u in enumerate(vs)}

    def resolved():
        for tail, head in arcs:
            t, h = index.get(tail), index.get(head)
            if t is None or h is None:
                unknown = tail if t is None else head
                raise ValueError(f"arc endpoint {unknown} is not a vertex")
            yield t, h

    return _reference_digraph(vs, resolved())


def _reference_key(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected a vertex as 'position,level', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as err:
        raise FormatError(f"invalid vertex {text!r}: {err}") from None


def _reference_vertex(key: tuple[int, int], text: str) -> Vertex:
    try:
        return Vertex(*key)
    except ValueError as err:
        raise FormatError(f"invalid vertex {text!r}: {err}") from None


def reference_graph_from_edgelist(text: str) -> Digraph:
    """The edge-list reader as it was: every line split at '#' and stripped.

    Tokens are cached only once stripped, and the arcs go through the
    old per-arc set of ``reference_from_index_arcs``.
    """
    index: dict[tuple[int, int], int] = {}
    seen_text: dict[str, int] = {}
    vertices: list[Vertex] = []
    arcs: list[tuple[int, int]] = []

    def register(token: str) -> int:
        key = _reference_key(token)
        i = index.get(key)
        if i is None:
            vertices.append(_reference_vertex(key, token))
            i = index[key] = len(index)
        seen_text[token] = i
        return i

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, arrow, rhs = line.partition("->")
        try:
            if arrow:
                lhs, rhs = lhs.strip(), rhs.strip()
                t = seen_text.get(lhs)
                if t is None:
                    t = register(lhs)
                h = seen_text.get(rhs)
                if h is None:
                    h = register(rhs)
                arcs.append((t, h))
            elif line not in seen_text:
                register(line)
        except FormatError as err:
            raise FormatError(f"line {lineno}: {err}") from None
    try:
        return reference_from_index_arcs(vertices, arcs)
    except ValueError as err:
        raise FormatError(str(err)) from None


def _reference_json_vertex(item) -> Vertex:
    if (
        not isinstance(item, list)
        or len(item) != 2
        or not all(type(x) is int for x in item)
    ):
        raise FormatError(f"expected a vertex as [position, level], got {item!r}")
    try:
        return Vertex(item[0], item[1])
    except ValueError as err:
        raise FormatError(str(err)) from None


def reference_graph_from_json(text: str) -> Digraph:
    """The JSON reader's order of checks, on ``reference_digraph``.

    Every vertex and arc is checked for shape first, then the vertex
    list for duplicates, then each arc, in order, for an unknown
    endpoint or a loop.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise FormatError(f"invalid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise FormatError("expected a JSON object with 'vertices' and 'arcs'")
    if "vertices" not in payload or "arcs" not in payload:
        raise FormatError("graph JSON needs both 'vertices' and 'arcs'")
    if not isinstance(payload["vertices"], list) or not isinstance(
        payload["arcs"], list
    ):
        raise FormatError("'vertices' and 'arcs' must be lists")
    vertices = [_reference_json_vertex(item) for item in payload["vertices"]]
    arcs = []
    for item in payload["arcs"]:
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError(f"expected an arc as [tail, head], got {item!r}")
        arcs.append((_reference_json_vertex(item[0]), _reference_json_vertex(item[1])))
    try:
        return reference_digraph(vertices, arcs)
    except ValueError as err:
        raise FormatError(str(err)) from None


def _level_key(u: Vertex) -> tuple[int, int]:
    return u.level, u.position


def _level_sorted_arcs(g: Digraph) -> list[tuple[Vertex, Vertex]]:
    return sorted(g.arcs, key=lambda arc: (_level_key(arc[0]), _level_key(arc[1])))


def reference_graph_to_json(g: Digraph) -> str:
    """The JSON writer as it was, one string per arc, from the public ``arcs``."""

    def item(u: Vertex) -> str:
        return f"[{u.position}, {u.level}]"

    def block(name: str, items: list[str]) -> str:
        if not items:
            return f'"{name}": []'
        return f'"{name}": [\n    ' + ",\n    ".join(items) + "\n  ]"

    vertices = block("vertices", [item(u) for u in g.vertices])
    arcs = block("arcs", [f"[{item(t)}, {item(h)}]" for t, h in g.arcs])
    return "{\n  " + vertices + ",\n  " + arcs + "\n}\n"


def reference_graph_to_edgelist(g: Digraph) -> str:
    """The edge-list writer as it was: arcs by level and position, then bare vertices."""
    lines = [f"{t} -> {h}" for t, h in _level_sorted_arcs(g)]
    touched = {u for arc in g.arcs for u in arc}
    lines += [str(u) for u in sorted(g.vertices, key=_level_key) if u not in touched]
    return "".join(line + "\n" for line in lines)


def reference_graph_to_dot(g: Digraph) -> str:
    """The DOT writer as it was: one rank row per level, then the arcs by level."""
    rows: dict[int, list[str]] = {}
    for u in sorted(g.vertices, key=_level_key):
        rows.setdefault(u.level, []).append(f'"{u}"')
    lines = ["digraph {", "  rankdir=BT;"]
    lines += [f"  {{ rank=same; {'; '.join(row)}; }}" for row in rows.values()]
    lines += [f'  "{t}" -> "{h}";' for t, h in _level_sorted_arcs(g)]
    return "\n".join(lines + ["}"]) + "\n"


REFERENCE_WRITERS = {
    "json": reference_graph_to_json,
    "edgelist": reference_graph_to_edgelist,
    "dot": reference_graph_to_dot,
}
