"""Command line interface.

Subcommands: gen (build a cobweb Hasse diagram), check (acyclicity,
regularity, and whether an admissible chain exists), realize (decide
orderability and print a two-chain realizer), dim (order dimension: up
to 2 through the decider, 3 by brute force), export (format
conversion).

Exit codes: 0 success, 1 check failed, 2 malformed input, an
unreadable or unwritable file, a cyclic graph or an input too large
for the memory that the process may use, 3 invalid sequence
values, and for realize: 4 not regular, 5 no admissible chain.  Any
other exception is an internal error: its traceback goes to stderr and
the exit code is 6.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from pathlib import Path
from typing import Iterable

from .cobweb import SequenceError, SequenceSpecError, build_cobweb, parse_sequence_spec
from .graphs import CyclicInputError, Digraph
from .oracle import (
    MAX_DIMENSION_SIZE,
    FinitePoset,
    TooLargeError,
    _check_size,
    order_dimension,
)
from .realizers import (
    NotRegular,
    Orderable,
    _check_graph,
    _dimension_up_to_2,
    decide_orderable,
)
from .serialization import (
    _BLOCKS,
    GRAPH_FORMATS,
    FormatError,
    format_vertex,
    graph_from_text,
    realizer_to_json,
    verdict_to_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_SEQUENCE = 3
EXIT_NOT_REGULAR = 4
EXIT_NO_ADMISSIBLE = 5
EXIT_INTERNAL_ERROR = 6


class _CliError(Exception):
    """Internal: a message that main() prints before exiting with code 2."""


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of standard input for '-', whatever the locale."""
    try:
        if path != "-":
            return Path(path).read_text(encoding="utf-8")
        buffer = getattr(sys.stdin, "buffer", None)  # a replaced stdin may have none
        return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(f"cannot read {path}: {err}")


def _write_text(blocks: Iterable[str], path: str | None) -> None:
    """Write the blocks of a text one after another, to stdout for None or '-'.

    A file is written as UTF-8.  No more than a block and the stream's
    buffer are held at a time.
    """
    if path is None or path == "-":
        sys.stdout.writelines(blocks)
        sys.stdout.flush()  # a failure here comes before any report on stderr
        return
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(blocks)
    except OSError as err:
        raise _CliError(f"cannot write {path}: {err}")


def _load_graph(args: argparse.Namespace) -> Digraph:
    """The cobweb that --seq (gen: SEQSPEC) names, else the --input graph."""
    if args.seq is None:
        return graph_from_text(_read_text("-" if args.input is None else args.input))
    if args.max_level is None:
        raise _CliError("--max-level is required with --seq")
    sequence = parse_sequence_spec(args.seq)
    try:
        return build_cobweb(sequence, args.max_level).hasse
    except SequenceError:
        raise
    except ValueError as err:  # a negative max level
        raise _CliError(str(err))


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        regular, admissible = _check_graph(g)
    except CyclicInputError:
        print("acyclic: FAIL")
        raise
    print("acyclic: PASS")
    if regular:
        print("regular: PASS")
    else:
        t, h = regular.witness
        print(f"regular: FAIL (redundant arc {format_vertex(t)} -> {format_vertex(h)})")
    if admissible:
        print("admissible: PASS")
    else:
        triple = " ; ".join(format_vertex(v) for v in admissible.witness)
        print(f"admissible: FAIL (forbidden triple {triple})")
    return EXIT_OK if regular.ok and admissible.ok else EXIT_CHECK_FAILED


def _cmd_realize(args: argparse.Namespace) -> int:
    verdict = decide_orderable(_load_graph(args))
    if isinstance(verdict, Orderable):
        _write_text([realizer_to_json(verdict.realizer)], args.output)
        # decide_orderable verifies every realizer it returns and raises
        # when one fails, so this reports that check.
        print("verification: PASS", file=sys.stderr)
        return EXIT_OK
    _write_text([verdict_to_json(verdict)], args.output)
    if isinstance(verdict, NotRegular):
        t, h = verdict.witness
        print(
            f"not regular: redundant arc {format_vertex(t)} -> {format_vertex(h)}",
            file=sys.stderr,
        )
        return EXIT_NOT_REGULAR
    print("no admissible chain", file=sys.stderr)
    return EXIT_NO_ADMISSIBLE


def _cmd_dim(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    dim = _dimension_up_to_2(g)
    if dim is None and args.max_k == 3:
        _check_size(len(g), MAX_DIMENSION_SIZE, "dimension")
        dim = order_dimension(FinitePoset.from_digraph(g), 3)
    shown = dim if dim is not None and dim <= args.max_k else f">{args.max_k}"
    print(f"dimension: {shown}")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    _write_text(_BLOCKS[args.format](_load_graph(args)), args.output)
    return EXIT_OK


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    """--input and --seq, which exclude each other, and --max-level.

    --input defaults to None, not '-': argparse skips the exclusion
    check for a value that is the default object itself, and '-' is
    interned, so '--input -' would pass with --seq.
    """
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--input",
        default=None,
        help="graph file (JSON or edge list, sniffed); '-' reads stdin (default)",
    )
    source.add_argument(
        "--seq",
        default=None,
        metavar="SEQSPEC",
        help="build a cobweb instead of reading a graph (needs --max-level)",
    )
    parser.add_argument(
        "--max-level", type=int, default=None, help="highest level, inclusive"
    )


class _Parser(argparse.ArgumentParser):
    """Writes help text unguarded, since argparse drops the OSError of a failed write.

    Subparsers are built from this class too.
    """

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cobwebs",
        description="Cobweb posets, orderable DAGs and two-chain realizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a cobweb Hasse diagram")
    gen.add_argument(
        "seq",
        metavar="SEQSPEC",
        help="level sizes: fib, const:K, or list:a,b,c",
    )
    gen.add_argument("--max-level", type=int, required=True)
    gen.add_argument("--format", choices=GRAPH_FORMATS, default="json")
    gen.add_argument("--output", default=None, help="output file (default stdout)")
    gen.set_defaults(func=_cmd_export)

    check = sub.add_parser(
        "check",
        help="report acyclicity, regularity and whether an admissible chain exists",
    )
    _add_input_options(check)
    check.set_defaults(func=_cmd_check)

    realize = sub.add_parser("realize", help="decide orderability, print a realizer")
    _add_input_options(realize)
    realize.add_argument("--output", default=None, help="output file (default stdout)")
    realize.set_defaults(func=_cmd_realize)

    dim = sub.add_parser(
        "dim", help="order dimension (above 2 by brute force, small graphs only)"
    )
    _add_input_options(dim)
    dim.add_argument("--max-k", type=int, choices=(1, 2, 3), default=3)
    dim.set_defaults(func=_cmd_dim)

    export = sub.add_parser("export", help="convert between graph formats")
    _add_input_options(export)
    export.add_argument("--format", choices=GRAPH_FORMATS, default="json")
    export.add_argument("--output", default=None, help="output file (default stdout)")
    export.set_defaults(func=_cmd_export)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()
    except OSError as err:  # only standard output is written unguarded
        message, code = f"cannot write -: {err}", EXIT_BAD_INPUT
        # the flush at exit would fail again on what is still buffered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except CyclicInputError:
        message, code = "input digraph contains a directed cycle", EXIT_BAD_INPUT
    except SequenceError as err:
        message, code = str(err), EXIT_BAD_SEQUENCE
    except (_CliError, FormatError, SequenceSpecError, TooLargeError) as err:
        message, code = str(err), EXIT_BAD_INPUT
    except MemoryError:  # caught after the frames that held the memory are gone
        message, code = "out of memory", EXIT_BAD_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
