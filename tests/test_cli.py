"""Command line behaviour: outputs, exit codes, pipes."""

import argparse
import io
import json
import os
import random
import subprocess
import sys

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

from cobwebs.cli import (
    EXIT_BAD_INPUT,
    EXIT_BAD_SEQUENCE,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL_ERROR,
    EXIT_NO_ADMISSIBLE,
    EXIT_NOT_REGULAR,
    EXIT_OK,
    main,
)
from cobwebs import FibonacciSequence, build_cobweb, cli, serialization
from cobwebs.serialization import (
    graph_from_edgelist,
    graph_to_edgelist,
    graph_to_json,
    render_graph,
)

from helpers import (
    MALFORMED_JSON,
    graph_on,
    s3_plus,
    standard_3d_poset,
    standard_example,
)

GOLDEN_CHAIN_X = [
    [1, 0], [1, 1], [1, 2], [1, 3], [2, 3],
    [1, 4], [2, 4], [3, 4],
    [1, 5], [2, 5], [3, 5], [4, 5], [5, 5],
]
GOLDEN_CHAIN_Y = [
    [1, 0], [1, 1], [1, 2], [2, 3], [1, 3],
    [3, 4], [2, 4], [1, 4],
    [5, 5], [4, 5], [3, 5], [2, 5], [1, 5],
]


def run(args, stdin="", capsys=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class WriteRecorder(io.StringIO):
    """A standard output that keeps each string written to it."""

    def __init__(self, writes: list[str]) -> None:
        super().__init__()
        self.writes = writes

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def s3_json() -> str:
    return graph_to_json(standard_3d_poset().strict_digraph())


def s3_plus_json(k: int) -> str:
    return graph_to_json(s3_plus(k).strict_digraph())


class TestGen:
    def test_fib_json(self, capsys):
        code, out, _ = run(["gen", "fib", "--max-level", "5"], capsys=capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["vertices"]) == 13
        assert len(payload["arcs"]) == 25

    def test_const_edgelist(self, capsys):
        code, out, _ = run(
            ["gen", "const:1", "--max-level", "3", "--format", "edgelist"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert out == "1,0 -> 1,1\n1,1 -> 1,2\n1,2 -> 1,3\n"

    def test_dot_format(self, capsys):
        code, out, _ = run(
            ["gen", "list:2,1", "--max-level", "1", "--format", "dot"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert out.startswith("digraph {")
        assert '"2,0" -> "1,1";' in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, out, _ = run(
            ["gen", "fib", "--max-level", "2", "--output", str(target)],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert out == ""
        assert len(json.loads(target.read_text())["vertices"]) == 3

    @pytest.mark.parametrize("fmt", ["json", "edgelist", "dot"])
    def test_written_in_blocks(self, fmt, capsys, tmp_path, monkeypatch):
        # gen writes one block per tail; export of a shuffled file, whose arcs
        # are not in the canonical order, writes JSON three arcs at a time
        g = build_cobweb(FibonacciSequence(), 7).hasse
        lines = graph_to_edgelist(g).splitlines()
        random.Random(7).shuffle(lines)
        shuffled = tmp_path / "shuffled.edges"
        shuffled.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(serialization, "_ARCS_PER_BLOCK", 3)
        target = tmp_path / "out"
        for argv, source in [
            (["gen", "fib", "--max-level", "7"], g),
            (["export", "--input", str(shuffled)], graph_from_edgelist(shuffled.read_text())),
        ]:
            expected = render_graph(source, fmt)
            code, out, _ = run(argv + ["--format", fmt, "--output", str(target)], capsys=capsys)
            assert (code, out) == (EXIT_OK, "")
            assert target.read_text(encoding="utf-8") == expected
            blocks = list(serialization._BLOCKS[fmt](source))
            assert len(blocks) > 3
            with monkeypatch.context() as patch:
                to_file, to_stdout = [], []
                patch.setattr(cli, "open", lambda *_, **__: WriteRecorder(to_file), raising=False)
                patch.setattr(sys, "stdout", WriteRecorder(to_stdout))
                assert main(argv + ["--format", fmt, "--output", str(target)]) == EXIT_OK
                assert main(argv + ["--format", fmt]) == EXIT_OK
            assert to_file == to_stdout == blocks  # each block written as it is

    def test_malformed_spec_exits_2(self, capsys):
        code, _, err = run(["gen", "bogus", "--max-level", "2"], capsys=capsys)
        assert code == EXIT_BAD_INPUT
        assert "sequence spec" in err

    def test_non_positive_size_exits_3(self, capsys):
        code, _, err = run(["gen", "list:0,1", "--max-level", "1"], capsys=capsys)
        assert code == EXIT_BAD_SEQUENCE
        assert "size 0" in err

    def test_list_too_short_exits_3(self, capsys):
        code, _, err = run(["gen", "list:1,2", "--max-level", "5"], capsys=capsys)
        assert code == EXIT_BAD_SEQUENCE

    def test_const_zero_exits_3(self, capsys):
        code, _, _ = run(["gen", "const:0", "--max-level", "1"], capsys=capsys)
        assert code == EXIT_BAD_SEQUENCE

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "fib", "--max-level", "-1"],
            ["realize", "--seq", "fib", "--max-level", "-1"],
        ],
        ids=["gen", "realize"],
    )
    def test_negative_max_level_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys=capsys)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: max_level must be >= 0, got -1\n"

    def test_missing_max_level_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "fib"])
        assert exc.value.code == 2


class TestCheck:
    def test_cobweb_from_stdin_passes(self, capsys, monkeypatch):
        text = graph_to_json(graph_on(3, [(0, 1), (1, 2)]))
        code, out, _ = run(["check"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert out == "acyclic: PASS\nregular: PASS\nadmissible: PASS\n"

    def test_seq_shortcut(self, capsys):
        code, out, _ = run(
            ["check", "--seq", "fib", "--max-level", "6"], capsys=capsys
        )
        assert code == EXIT_OK
        assert out.count("PASS") == 3

    def test_seq_requires_max_level(self, capsys):
        code, _, err = run(["check", "--seq", "fib"], capsys=capsys)
        assert code == EXIT_BAD_INPUT
        assert "--max-level" in err

    @pytest.mark.parametrize("command", ["check", "realize", "dim", "export"])
    @pytest.mark.parametrize("source", ["missing.json", "-"])
    def test_seq_and_input_exclude_each_other(self, command, source, capsys):
        argv = [command, "--seq", "const:2", "--max-level", "1", "--input", source]
        for order in (argv, [command, "--input", source] + argv[1:5]):
            with pytest.raises(SystemExit) as exc:
                main(order)
            assert exc.value.code == EXIT_BAD_INPUT
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"usage: cobwebs {command} ")
            assert "not allowed with argument" in err

    def test_duplicate_json_key_exits_2(self, capsys, monkeypatch):
        text = '{"vertices": [[1,0]], "arcs": [], "vertices": []}'
        code, out, err = run(["check"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert (code, out, err) == (EXIT_BAD_INPUT, "", "error: duplicate key 'vertices'\n")

    def test_shortcut_arc_fails_regularity(self, capsys, monkeypatch):
        text = graph_to_edgelist(graph_on(3, [(0, 1), (1, 2), (0, 2)]))
        code, out, _ = run(["check"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_CHECK_FAILED
        assert "regular: FAIL (redundant arc 1,0 -> 3,0)" in out

    def test_admissibility_failure_is_reported(self, capsys, monkeypatch):
        # Kahn's order 1, 2, 3 of this graph hits the forbidden triple
        # 1, 2, 3, but the admissible chain 2, 1, 3 exists, so it passes
        text = graph_to_json(graph_on(3, [(0, 2)]))
        code, out, _ = run(["check"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert out == "acyclic: PASS\nregular: PASS\nadmissible: PASS\n"
        # S3 has no admissible chain; the witness is Kahn's order's triple
        code, out, _ = run(["check"], stdin=s3_json(), capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_CHECK_FAILED
        assert out.endswith("admissible: FAIL (forbidden triple 1,0 ; 2,0 ; 2,1)\n")

    def test_cyclic_input_exits_2(self, capsys, monkeypatch):
        text = "1,0 -> 2,0\n2,0 -> 1,0\n"
        code, out, err = run(["check"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_BAD_INPUT
        assert "acyclic: FAIL" in out
        assert "cycle" in err

    def test_malformed_input_exits_2(self, capsys, monkeypatch):
        code, _, err = run(
            ["check"], stdin="garbage", capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == EXIT_BAD_INPUT

    def test_vertices_not_a_list_exits_2(self, capsys, monkeypatch):
        text = '{"vertices": {}, "arcs": []}'
        code, out, err = run(["check"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: 'vertices' and 'arcs' must be lists\n"


class TestRealize:
    def test_fibonacci_golden_chains(self, capsys):
        code, out, err = run(
            ["realize", "--seq", "fib", "--max-level", "5"], capsys=capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["chain_x"] == GOLDEN_CHAIN_X
        assert payload["chain_y"] == GOLDEN_CHAIN_Y
        assert "verification: PASS" in err

    def test_single_vertex(self, capsys, monkeypatch):
        text = '{"vertices": [[1, 0]], "arcs": []}'
        code, out, _ = run(["realize"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert json.loads(out) == {"chain_x": [[1, 0]], "chain_y": [[1, 0]]}

    def test_not_regular_exits_4(self, capsys, monkeypatch):
        text = graph_to_json(graph_on(3, [(0, 1), (1, 2), (0, 2)]))
        code, out, err = run(["realize"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_NOT_REGULAR
        assert json.loads(out)["kind"] == "not_regular"
        assert "not regular" in err

    def test_3d_poset_exits_5(self, capsys, monkeypatch):
        code, out, err = run(
            ["realize"], stdin=s3_json(), capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == EXIT_NO_ADMISSIBLE
        payload = json.loads(out)
        assert payload == {"kind": "no_admissible_chain", "exhaustive": True}

    def test_output_file_keeps_stderr_note(self, capsys, tmp_path):
        target = tmp_path / "realizer.json"
        code, out, err = run(
            ["realize", "--seq", "fib", "--max-level", "3", "--output", str(target)],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["chain_x"] == [
            [1, 0], [1, 1], [1, 2], [1, 3], [2, 3]
        ]

    def test_cyclic_input_exits_2(self, capsys, monkeypatch):
        text = "1,0 -> 2,0\n2,0 -> 1,0\n"
        code, _, err = run(["realize"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_BAD_INPUT

    def test_exit_code_constants_cover_the_taxonomy(self):
        assert (EXIT_NOT_REGULAR, EXIT_NO_ADMISSIBLE) == (4, 5)
        assert not hasattr(cli, "EXIT_NON_TRANSITIVE")


class TestDim:
    def test_antichain_dimension_2(self, capsys, monkeypatch):
        text = '{"vertices": [[1, 0], [2, 0]], "arcs": []}'
        code, out, _ = run(["dim"], stdin=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert out == "dimension: 2\n"

    def test_3d_poset(self, capsys, monkeypatch):
        code, out, _ = run(
            ["dim"], stdin=s3_json(), capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == EXIT_OK
        assert out == "dimension: 3\n"

    def test_max_k_report(self, capsys, monkeypatch):
        code, out, _ = run(
            ["dim", "--max-k", "2"],
            stdin=s3_json(),
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert out == "dimension: >2\n"

    def test_too_large_exits_2(self, capsys, monkeypatch):
        # dimension 3 on 9 elements: past the guard of the brute force
        code, _, err = run(
            ["dim"], stdin=s3_plus_json(3), capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == EXIT_BAD_INPUT
        assert "guard" in err

    def test_guard_refuses_before_the_pair_set_is_built(self, capsys, monkeypatch):
        def no_pair_set(g):
            raise AssertionError("pair set built for a graph the guard refuses")

        monkeypatch.setattr(cli.FinitePoset, "from_digraph", no_pair_set)
        code, _, err = run(
            ["dim"], stdin=s3_plus_json(3), capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == EXIT_BAD_INPUT
        assert err == "error: 9 elements exceeds the dimension guard of 8\n"

    def test_runtime_does_not_need_numpy(self, tmp_path):
        s3_1 = tmp_path / "s3_1.json"
        s3_1.write_text(s3_plus_json(1))
        s4 = tmp_path / "s4.json"
        s4.write_text(graph_to_json(standard_example(4).strict_digraph()))
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from cobwebs.cli import main\n"
            f"main(['dim', '--input', {str(s3_1)!r}])\n"
            f"main(['dim', '--input', {str(s4)!r}])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "dimension: 3\ndimension: >3\n"

    def test_dimension_2_past_the_guard(self, capsys):
        code, out, err = run(["dim", "--seq", "fib", "--max-level", "14"], capsys=capsys)
        assert code == EXIT_OK
        assert (out, err) == ("dimension: 2\n", "")

    @pytest.mark.parametrize("max_k", ["1", "2", "3"])
    def test_cyclic_input_exits_2(self, max_k, capsys, monkeypatch):
        # the nine-vertex cycle is past the size guard: the cycle is named first
        for n in (2, 9):
            text = "".join(f"{i},0 -> {i % n + 1},0\n" for i in range(1, n + 1))
            argv = ["dim", "--max-k", max_k]
            code, out, err = run(argv, stdin=text, capsys=capsys, monkeypatch=monkeypatch)
            assert code == EXIT_BAD_INPUT
            assert out == ""
            assert err == "error: input digraph contains a directed cycle\n"


class TestExport:
    def test_edgelist_to_dot(self, capsys, monkeypatch):
        code, out, _ = run(
            ["export", "--format", "dot"],
            stdin="1,0 -> 1,1\n",
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert '"1,0" -> "1,1";' in out

    def test_json_round_trip_through_pipe(self, capsys, monkeypatch):
        first = run(
            ["gen", "fib", "--max-level", "4", "--format", "edgelist"], capsys=capsys
        )[1]
        code, out, _ = run(
            ["export", "--format", "json"],
            stdin=first,
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert len(json.loads(out)["arcs"]) == 10

    def test_byte_determinism(self, capsys):
        args = ["gen", "fib", "--max-level", "6", "--format", "dot"]
        one = run(args, capsys=capsys)[1]
        two = run(args, capsys=capsys)[1]
        assert one == two


class TestFileErrors:
    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff{}")
        code, out, err = run(["check", "--input", str(path)], capsys=capsys)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith(f"error: cannot read {path}: ")
        assert "0xff" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
    def test_json_decoder_errors_exit_2(self, name, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED_JSON[name])
        code, out, err = run(["check", "--input", str(path)], capsys=capsys)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("error: invalid JSON: ")

    def test_non_utf8_stdin_exits_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff{}"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(["check"], capsys=capsys)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("error: cannot read -: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "fib", "--max-level", "3"],
            ["realize", "--seq", "fib", "--max-level", "3"],
            ["export", "--seq", "fib", "--max-level", "3"],
        ],
        ids=["gen", "realize", "export"],
    )
    def test_unwritable_output_exits_2(self, argv, capsys, tmp_path):
        for target in (tmp_path / "missing_dir" / "x", tmp_path):
            code, out, err = run([*argv, "--output", str(target)], capsys=capsys)
            assert (code, out) == (EXIT_BAD_INPUT, "")
            assert err.startswith(f"error: cannot write {target}: ")


class TestByteOrderMark:
    """A file that starts with U+FEFF reads as the same file without it."""

    @pytest.mark.parametrize("emit", [graph_to_json, graph_to_edgelist], ids=["json", "edgelist"])
    def test_check_and_realize(self, emit, capsys, tmp_path):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        text = emit(build_cobweb(FibonacciSequence(), 4).hasse)
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        for command in ("check", "realize"):
            expected = run([command, "--input", str(plain)], capsys=capsys)
            assert expected[0] == EXIT_OK
            assert run([command, "--input", str(marked)], capsys=capsys) == expected

    def test_whatever_the_locale(self, tmp_path):
        # files and standard input are read as UTF-8 under an ASCII locale too
        marked = tmp_path / "marked"
        marked.write_bytes(b"\xef\xbb\xbf1,0 -> 1,1\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        expected = "acyclic: PASS\nregular: PASS\nadmissible: PASS\n"
        for args, stdin in ((["--input", str(marked)], b""), ([], marked.read_bytes())):
            proc = subprocess.run(
                [sys.executable, "-m", "cobwebs", "check", *args],
                input=stdin,
                capture_output=True,
                env=env,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                EXIT_OK,
                expected.encode(),
                b"",
            )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestFullStdout:
    """A failed write to standard output is an unwritable file: exit 2, one line."""

    @pytest.mark.parametrize(
        "unbuffered", [True, False], ids=["unbuffered", "buffered"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["realize", "--seq", "fib", "--max-level", "12"],
            ["realize", "--seq", "fib", "--max-level", "3"],
            ["check", "--seq", "fib", "--max-level", "3"],
            ["dim", "--seq", "fib", "--max-level", "3"],
            ["--help"],
            ["gen", "--help"],
        ],
        ids=["realize_large", "realize_small", "check", "dim", "help", "gen_help"],
    )
    def test_exits_2_with_one_stderr_line(self, argv, unbuffered):
        env = {k: val for k, val in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "cobwebs", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
        assert proc.stderr.startswith("error: cannot write -: ")
        assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(resource is None, reason="no resource module")
class TestOutOfMemory:
    """An input too large for the memory the process may use: exit 2, one line.

    Each child runs alone, its address space capped so that it fails
    within seconds, whatever memory the machine has.  ``fib`` 24 fits
    under the same cap.
    """

    CAP = 256 << 20

    def capped(self, argv, seconds):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.CAP, self.CAP))

        return subprocess.run(
            [sys.executable, "-m", "cobwebs", *argv],
            capture_output=True,
            text=True,
            preexec_fn=cap,
            timeout=seconds,
        )

    @pytest.mark.parametrize(
        "argv, seconds",
        [
            (["realize", "--seq", "fib", "--max-level", "30"], 120),
            (["realize", "--seq", "list:3000000,3000000", "--max-level", "1"], 120),
            (["check", "--seq", "const:2000000", "--max-level", "2"], 120),
            # more than sys.maxsize vertices, which no index reaches: refused
            # at the first level past that, before any vertex is made
            (["gen", "fib", "--max-level", "100"], 10),
            (["gen", "fib", "--max-level", "20000"], 10),
            (["gen", "fib", "--max-level", "100000"], 10),
            (["check", "--seq", "list:1,10000000000000000000", "--max-level", "1"], 10),
        ],
        ids=[
            "fib_30",
            "two_levels",
            "const_three_levels",
            "fib_100",
            "fib_20000",
            "fib_100000",
            "level_past_index_limit",
        ],
    )
    def test_exits_2_with_one_stderr_line(self, argv, seconds):
        proc = self.capped(argv, seconds)
        assert (proc.returncode, proc.stdout) == (EXIT_BAD_INPUT, ""), proc.stderr
        assert proc.stderr == "error: out of memory\n"

    def test_fib_24_fits(self):
        # 121,393 vertices: the realizer is checked by walks that keep no
        # mask per position, so this peaks at about 70 MiB
        argv = ["realize", "--seq", "fib", "--max-level", "24", "--output", os.devnull]
        proc = self.capped(argv, 120)
        assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
        assert proc.stderr == "verification: PASS\n"


def _broken(*args):
    raise RuntimeError("planted fault")


class TestInternalError:
    """An unexpected exception is not "check failed": traceback, exit 6."""

    @pytest.mark.parametrize("command", ["realize", "check"])
    def test_main_returns_6(self, command, capsys, monkeypatch):
        monkeypatch.setattr("cobwebs.realizers._realizer_positions", _broken)
        code, out, err = run(
            [command, "--seq", "fib", "--max-level", "3"], capsys=capsys
        )
        assert code == EXIT_INTERNAL_ERROR == 6
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: planted fault\n")
        assert "error: " not in err

    def test_process_exits_6(self):
        script = (
            "import sys\n"
            "from cobwebs import cli, realizers\n"
            "def broken(*args):\n"
            "    raise RuntimeError('planted fault')\n"
            "realizers._realizer_positions = broken\n"
            "sys.exit(cli.main(['realize', '--seq', 'fib', '--max-level', '3']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_INTERNAL_ERROR, proc.stderr
        assert proc.stderr.endswith("RuntimeError: planted fault\n")


class TestParserReuse:
    """main() parses every call with one parser; no call may leave state in it."""

    def test_calls_in_sequence(self, capsys, tmp_path):
        code, dot, _ = run(
            ["gen", "fib", "--max-level", "3", "--format", "dot"], capsys=capsys
        )
        assert code == EXIT_OK and dot.startswith("digraph {")
        path = tmp_path / "graph.txt"
        path.write_text("1,0 -> 2,1\n")
        # the gen call's --format dot must not stick: export defaults to JSON
        code, out, _ = run(["export", "--input", str(path)], capsys=capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {
            "vertices": [[1, 0], [2, 1]],
            "arcs": [[[1, 0], [2, 1]]],
        }
        with pytest.raises(SystemExit) as exc:
            main(["realize", "--max-level", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(["check", "--seq", "fib", "--max-level", "4"], capsys=capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out == "acyclic: PASS\nregular: PASS\nadmissible: PASS\n"

    def test_help_texts(self, capsys):
        fresh = cli.build_parser()
        (subparsers,) = [
            a for a in fresh._actions if isinstance(a, argparse._SubParsersAction)
        ]
        for argv, expected in (
            (["--help"], fresh.format_help()),
            (["gen", "--help"], subparsers.choices["gen"].format_help()),
            (["--help"], fresh.format_help()),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == expected


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "cobwebs", "gen", "fib", "--max-level", "3",
         "--format", "edgelist"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1,0 -> 1,1"
