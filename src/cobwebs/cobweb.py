"""Layered posets built from a sequence of positive level sizes.

A level sequence assigns each level s a size a_s >= 1.  The poset on
levels 0..max_level has a_s elements on level s, and x < y exactly when
x sits on a strictly lower level than y.  Its Hasse diagram is the
complete bipartite digraph between each pair of consecutive levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from .graphs import Digraph, Relation, Vertex

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
    points to every vertex of the next.
    """

    __slots__ = ("sequence", "max_level", "levels", "hasse")

    def __init__(self, sequence: LevelSequence, max_level: int) -> None:
        if max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {max_level}")
        levels = tuple(
            tuple(Vertex(j, s) for j in range(1, sequence.size(s) + 1))
            for s in range(max_level + 1)
        )
        vertices = [v for level in levels for v in level]
        starts = [0]
        for level in levels:
            starts.append(starts[-1] + len(level))
        # every vertex of one level to every vertex of the next, streamed;
        # the arc tuples share the int objects of these index blocks
        blocks = [tuple(range(a, b)) for a, b in zip(starts, starts[1:])]
        arcs = chain.from_iterable(map(product, blocks, blocks[1:]))
        self.sequence = sequence
        self.max_level = max_level
        self.levels = levels
        self.hasse = Digraph._from_index_arcs(vertices, arcs)

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
    """All strictly related pairs of p, i.e. every cross-level pair."""
    vs = p.hasse.vertices
    pairs = frozenset((x, y) for x in vs for y in vs if x.level < y.level)
    return Relation(vs, pairs)
