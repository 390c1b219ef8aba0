"""Layered posets built from a sequence of positive level sizes.

A level sequence assigns each level s a size a_s >= 1.  The poset on
levels 0..max_level has a_s elements on level s, and x < y exactly when
x sits on a strictly lower level than y.  Its Hasse diagram is the
complete bipartite digraph between each pair of consecutive levels.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, repeat

from .graphs import Digraph, Relation, Vertex, _vertices

__all__ = [
    "CobwebPoset",
    "ConstantSequence",
    "ExplicitSequence",
    "FibonacciSequence",
    "LevelOutOfRangeError",
    "LevelSequence",
    "NonPositiveSizeError",
    "SequenceError",
    "SequenceSpecError",
    "build_cobweb",
    "parse_sequence_spec",
    "strict_order_relation",
]


class SequenceError(ValueError):
    """A level sequence was queried outside its domain of validity."""


class NonPositiveSizeError(SequenceError):
    """A level size came out smaller than 1."""


class LevelOutOfRangeError(SequenceError):
    """A level index outside the sequence's domain was requested."""


class SequenceSpecError(ValueError):
    """A sequence spec string does not match any known form."""


class LevelSequence:
    """Positive level sizes a_0, a_1, ... queried one level at a time."""

    def size(self, level: int) -> int:
        raise NotImplementedError

    @staticmethod
    def _check_level(level: int) -> None:
        if level < 0:
            raise LevelOutOfRangeError(f"level must be >= 0, got {level}")


@dataclass(frozen=True)
class FibonacciSequence(LevelSequence):
    """Sizes 1, 1, 1, 2, 3, 5, ...

    The recurrence a_s = a_{s-1} + a_{s-2} starts at level 3; levels
    0 through 2 are single elements, so level s >= 1 holds the s-th
    Fibonacci number of elements.
    """

    def size(self, level: int) -> int:
        self._check_level(level)
        if level < 3:
            return 1
        a, b = 1, 1
        for _ in range(level - 2):
            a, b = b, a + b
        return b


@dataclass(frozen=True)
class ConstantSequence(LevelSequence):
    """Every level has the same size."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 1:
            raise NonPositiveSizeError(
                f"constant level size must be >= 1, got {self.value}"
            )

    def size(self, level: int) -> int:
        self._check_level(level)
        return self.value


@dataclass(frozen=True)
class ExplicitSequence(LevelSequence):
    """Finitely many level sizes given outright.

    Entries are validated when queried, so a malformed entry only
    surfaces if the offending level is actually used.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not self.sizes:
            raise SequenceError("explicit sequence needs at least one entry")

    def size(self, level: int) -> int:
        self._check_level(level)
        if level >= len(self.sizes):
            raise LevelOutOfRangeError(
                f"sequence defines levels 0..{len(self.sizes) - 1}, "
                f"level {level} requested"
            )
        value = self.sizes[level]
        if value < 1:
            raise NonPositiveSizeError(f"level {level} has size {value}")
        return value


def parse_sequence_spec(text: str) -> LevelSequence:
    """Parse a sequence spec: ``fib``, ``const:K``, or ``list:a,b,c``.

    Malformed specs raise SequenceSpecError.  Specs that parse but carry
    an invalid size (for example ``const:0``) raise a SequenceError
    subclass, immediately for constants and on first query for lists.
    """
    spec = text.strip()
    if spec == "fib":
        return FibonacciSequence()
    if spec.startswith("const:"):
        body = spec[len("const:"):]
        try:
            value = int(body)
        except ValueError:
            raise SequenceSpecError(f"expected const:K with integer K, got {text!r}") from None
        return ConstantSequence(value)
    if spec.startswith("list:"):
        body = spec[len("list:"):]
        try:
            values = tuple(int(part) for part in body.split(","))
        except ValueError:
            raise SequenceSpecError(
                f"expected list:a,b,c with integer entries, got {text!r}"
            ) from None
        return ExplicitSequence(values)
    raise SequenceSpecError(f"unrecognized sequence spec {text!r}")


class CobwebPoset:
    """Poset of levels 0..max_level under the strictly-lower-level order.

    ``levels[s]`` holds the vertices of level s in ascending position
    order, and ``hasse`` is the cover digraph: every vertex of one level
    points to every vertex of the next.  The builder hands ``hasse`` its
    successor lists (``Digraph._from_succ``), built in C from the levels'
    index blocks: the tails of one level share one successor list, and
    the arc order is canonical, so no tails array is kept and the arcs
    cost no bytes of their own.  The vertices are made in one bulk call
    and sliced into levels, and ``hasse`` builds its vertex index on
    first lookup.  A poset of more than ``sys.maxsize`` vertices, which
    no index reaches, raises MemoryError at the first level past it.
    """

    __slots__ = ("sequence", "max_level", "levels", "hasse")
    __getstate__ = Digraph.__getstate__

    def __init__(self, sequence: LevelSequence, max_level: int) -> None:
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        starts = [0]
        for s in range(max_level + 1):  # no size is asked for past the index limit
            starts.append(starts[-1] + sequence.size(s))
            if starts[-1] > sys.maxsize:
                raise MemoryError(f"more than {sys.maxsize} vertices up to level {s}")
        spans = [range(1, b - a + 1) for a, b in zip(starts, starts[1:])]
        rows = chain.from_iterable(map(repeat, range(max_level + 1), map(len, spans)))
        vertices = _vertices(list(zip(chain.from_iterable(spans), rows)))
        levels = tuple(tuple(vertices[a:b]) for a, b in zip(starts, starts[1:]))
        # the index blocks of the levels are disjoint, so the arcs are
        # loop-free; every tail of a level shares the next block as its heads
        blocks = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
        succ = [heads for level, heads in zip(blocks, blocks[1:] + [[]]) for _ in level]
        self.sequence = sequence
        self.max_level = max_level
        self.levels = levels
        self.hasse = Digraph._from_succ(vertices, succ, None)

    def leq(self, x: Vertex, y: Vertex) -> bool:
        """The order relation: x on a strictly lower level, or x == y.

        Both arguments are expected to be vertices of this poset; the
        relation is evaluated from the labels alone.
        """
        return x.level < y.level or x == y

    def __len__(self) -> int:
        return len(self.hasse.vertices)

    def __repr__(self) -> str:
        return (
            f"CobwebPoset(levels 0..{self.max_level}, "
            f"{len(self)} vertices)"
        )


def build_cobweb(sequence: LevelSequence, max_level: int) -> CobwebPoset:
    """Construct the cobweb poset of ``sequence`` up to ``max_level`` inclusive."""
    return CobwebPoset(sequence, max_level)


def strict_order_relation(p: CobwebPoset) -> Relation:
    """All strictly related pairs of p: every cross-level pair, one mask per level."""
    g, start, masks = p.hasse, 0, []
    for level in p.levels:
        start += len(level)
        masks += [(1 << len(g)) - (1 << start)] * len(level)
    return Relation._from_masks(g.vertices, masks, g._index)
