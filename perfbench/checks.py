"""Independent correctness checks and input generators for the benchmark.

Nothing here imports the cobwebs package.  Orders are kept as lists of
bitmasks over element indices: ``up[i]`` is the set of elements strictly
above element ``i``.  Vertices are keyed by their ``(position, level)``
labels, the same pairs the package prints in its JSON output.
"""

from __future__ import annotations

import json
import random

OK = "ok"
WRONG = "wrong"
ERROR = "error"
INCONCLUSIVE = "inconclusive"

Key = tuple[int, int]


# ---------------------------------------------------------------- checks


def after_masks(chain: list[int], n: int) -> list[int] | None:
    """For each element, the mask of elements later in ``chain``.

    None when ``chain`` is not a permutation of 0..n-1.
    """
    if len(chain) != n or sorted(chain) != list(range(n)):
        return None
    later = [0] * n
    acc = 0
    for i in reversed(chain):
        later[i] = acc
        acc |= 1 << i
    return later


def realizes(first: list[Key], second: list[Key], index: dict[Key, int], up: list[int]) -> bool:
    """Whether two chains of vertex keys intersect in exactly the order ``up``.

    Each chain must list every element once, and a pair must be ordered
    the same way by both chains exactly when it is related in ``up``.
    """
    n = len(up)
    try:
        a = after_masks([index[k] for k in first], n)
        b = after_masks([index[k] for k in second], n)
    except (KeyError, TypeError):
        return False
    if a is None or b is None:
        return False
    return all(a[i] & b[i] == up[i] for i in range(n))


def chain_keys(chain) -> list[Key]:
    """Vertex keys of a package Chain (or any iterable of Vertex)."""
    return [(v.position, v.level) for v in chain]


def json_chain_keys(items) -> list[Key]:
    """Vertex keys of a chain printed as JSON ``[[position, level], ...]``."""
    return [tuple(item) for item in items]


def closure(n: int, arcs: list[tuple[int, int]]) -> list[int]:
    """Strict reachability masks of a DAG whose arcs all go from lower to higher index."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for t, h in arcs:
        if not t < h:
            raise ValueError("arcs must go from lower to higher index")
        succ[t].append(h)
    up = [0] * n
    for i in reversed(range(n)):
        for j in succ[i]:
            up[i] |= up[j] | 1 << j
    return up


def covers(up: list[int]) -> list[tuple[int, int]]:
    """The Hasse diagram of an order: pairs i < j with nothing in between."""
    n = len(up)
    out = []
    for i in range(n):
        above = up[i]
        implied = 0
        for j in range(n):
            if above >> j & 1:
                implied |= up[j]
        out.extend((i, j) for j in range(n) if (above & ~implied) >> j & 1)
    return out


# ------------------------------------------------------------- generators


def fib_sizes(max_level: int) -> list[int]:
    """Level sizes 1, 1, 1, 2, 3, 5, ... for levels 0..max_level."""
    sizes = [1, 1, 1]
    while len(sizes) <= max_level:
        sizes.append(sizes[-1] + sizes[-2])
    return sizes[: max_level + 1]


class CobwebShape:
    """A cobweb poset described only by its level sizes.

    ``keys`` lists the vertices level by level, ``up`` is the known
    order (strictly lower level), and ``arcs`` the Hasse diagram.
    """

    def __init__(self, spec: str, max_level: int) -> None:
        if spec == "fib":
            sizes = fib_sizes(max_level)
        else:
            kind, _, value = spec.partition(":")
            if kind != "const":
                raise ValueError(f"unsupported shape {spec!r}")
            sizes = [int(value)] * (max_level + 1)
        self.spec = spec
        self.max_level = max_level
        self.name = f"{spec}@{max_level}"
        self.levels = [[(p, s) for p in range(1, size + 1)] for s, size in enumerate(sizes)]
        self.keys = [k for level in self.levels for k in level]
        self.index = {k: i for i, k in enumerate(self.keys)}
        above = 0
        level_up = []
        for level in reversed(self.levels):
            level_up.append(above)
            for k in level:
                above |= 1 << self.index[k]
        level_up.reverse()
        self.up = [level_up[s] for s, level in enumerate(self.levels) for _ in level]
        self.arcs = [
            (u, w)
            for s in range(max_level)
            for u in self.levels[s]
            for w in self.levels[s + 1]
        ]

    def write_json(self, path, rng: random.Random) -> None:
        """Write the Hasse diagram as graph JSON, vertices and arcs shuffled."""
        vertices = [list(k) for k in self.keys]
        arcs = [[list(t), list(h)] for t, h in self.arcs]
        rng.shuffle(vertices)
        rng.shuffle(arcs)
        path.write_text(json.dumps({"vertices": vertices, "arcs": arcs}))

    def write_edgelist(self, path, rng: random.Random) -> None:
        """Write the Hasse diagram as an edge list, lines shuffled."""
        lines = [f"{t[0]},{t[1]} -> {h[0]},{h[1]}" for t, h in self.arcs]
        rng.shuffle(lines)
        path.write_text("\n".join(lines) + "\n")

    def graph_matches(self, vertices: list[Key], arcs: list[tuple[Key, Key]]) -> bool:
        """Whether a parsed graph is exactly this cobweb's Hasse diagram."""
        return (
            len(vertices) == len(self.keys)
            and set(vertices) == set(self.keys)
            and len(arcs) == len(self.arcs)
            and set(arcs) == set(self.arcs)
        )


def parse_graph_json(text: str) -> tuple[list[Key], list[tuple[Key, Key]]]:
    payload = json.loads(text)
    vertices = [tuple(v) for v in payload["vertices"]]
    arcs = [(tuple(t), tuple(h)) for t, h in payload["arcs"]]
    return vertices, arcs


def parse_graph_edgelist(text: str) -> tuple[list[Key], list[tuple[Key, Key]]]:
    """Parse 'p,s -> p,s' lines; a cobweb has no isolated vertices to list alone."""

    def key(part: str) -> Key:
        p, s = part.strip().split(",")
        return int(p), int(s)

    arcs = []
    for line in text.splitlines():
        lhs, rhs = line.split("->")
        arcs.append((key(lhs), key(rhs)))
    vertices = list(dict.fromkeys(v for arc in arcs for v in arc))
    return vertices, arcs


class IndexedOrder:
    """A poset on labels 1..n (all on level 0) given as index arcs.

    ``order`` is the construction order of the vertices handed to the
    package, so the labels are independent of any realizer.
    """

    def __init__(self, up: list[int], order: list[int], expect_orderable: bool | None) -> None:
        self.n = len(up)
        self.up = up
        self.arcs = covers(up)
        self.order = order
        self.index = {(i + 1, 0): i for i in range(self.n)}
        self.expect_orderable = expect_orderable


def two_dim_order(rng: random.Random, n: int) -> IndexedOrder:
    """Intersection of two random permutations, with shuffled construction order."""
    x = list(range(n))
    y = list(range(n))
    rng.shuffle(x)
    rng.shuffle(y)
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if x[i] < x[j] and y[i] < y[j]:
                up[i] |= 1 << j
    order = list(range(n))
    rng.shuffle(order)
    return IndexedOrder(up, order, True)


def standard_example(rng: random.Random, isolated: int) -> IndexedOrder:
    """S3 (a_i < b_j for i != j, dimension 3) plus isolated elements."""
    n = 6 + isolated
    up = [0] * n
    for i in range(3):
        for j in range(3):
            if i != j:
                up[i] |= 1 << (3 + j)
    order = list(range(n))
    rng.shuffle(order)
    return IndexedOrder(up, order, False)


def random_regular_dag(rng: random.Random, n: int, prob: float) -> IndexedOrder:
    """Random upper-triangular DAG reduced to its covers, in index order.

    Same sampling as scripts/oracle_agreement.py; the answer is not known
    by construction, so ``expect_orderable`` is None.
    """
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
    return IndexedOrder(closure(n, arcs), list(range(n)), None)
