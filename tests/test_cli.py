"""Graph-file parsing, CLI behavior, exit codes and output determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import forestmatrix
from forestmatrix import (
    GraphParseError,
    GraphValidationError,
    Multidigraph,
    Multigraph,
    parse_graph,
)
from forestmatrix.cli import _tsv_lines, main
from helpers import POSITIVE_POOL, graph_text, random_multidigraph, random_multigraph

F = Fraction


class TestParseGraph:
    def test_single_edge(self):
        g = parse_graph("graph undirected 2\n1 2 1\n")
        assert isinstance(g, Multigraph)
        assert g.n == 2 and g.edges == ((0, 1, F(1)),)

    def test_parallel_arcs_preserved_in_order(self):
        g = parse_graph("graph directed 2\n1 2 1/3\n1 2 2/3\n")
        assert isinstance(g, Multidigraph)
        assert g.arcs == ((0, 1, F(1, 3)), (0, 1, F(2, 3)))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_graph("graph undirected 2\n1 1 1\n")

    def test_decimal_weights_exact(self):
        g = parse_graph("graph undirected 2\n1 2 0.25\n")
        assert g.edges[0].w == F(1, 4)

    def test_comments_blanks_and_crlf(self):
        text = "# weighted path\r\ngraph undirected 3\r\n\r\n1 2 1  # first\r\n2 3 1/2\r\n"
        g = parse_graph(text)
        assert g.n == 3 and len(g.edges) == 2

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
    def test_lines_end_only_at_lf(self, sep):
        # str.splitlines() would also break here and read "2 3 5" as an edge
        g = parse_graph(f"graph undirected 3\n1 2 1\n# note{sep}2 3 5\n")
        assert g.edges == ((0, 1, F(1)),)

    @pytest.mark.parametrize("sep", ["\f", "\r", "\u2028"])
    def test_cli_reads_lines_to_lf_only(self, capsys, tmp_path, sep):
        one = tmp_path / "one.graph"
        one.write_bytes(b"graph undirected 3\n1 2 1\n")
        odd = tmp_path / "odd.graph"
        odd.write_bytes(f"graph undirected 3\n1 2 1\n# note{sep}2 3 5\n".encode())
        assert run_cli(capsys, "laplacian", str(odd)) == run_cli(capsys, "laplacian", str(one))

    def test_missing_header(self):
        with pytest.raises(GraphParseError):
            parse_graph("1 2 1\n")

    def test_empty_file(self):
        with pytest.raises(GraphParseError):
            parse_graph("# nothing here\n")

    def test_bad_kind(self):
        with pytest.raises(GraphParseError):
            parse_graph("graph mixed 2\n")

    def test_bad_token_count_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("graph undirected 2\n1 2\n")
        assert exc.value.line_no == 2

    def test_bad_weight(self):
        with pytest.raises(GraphParseError):
            parse_graph("graph undirected 2\n1 2 x\n")
        with pytest.raises(GraphParseError):
            parse_graph("graph undirected 2\n1 2 1/0\n")
        with pytest.raises(GraphParseError):
            parse_graph("graph undirected 2\n1 2 1/-2\n")

    def test_non_integer_vertex(self):
        with pytest.raises(GraphParseError):
            parse_graph("graph undirected 2\n1.5 2 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphValidationError):
            parse_graph("graph undirected 2\n1 3 1\n")

    def test_zero_vertices_allowed(self):
        assert parse_graph("graph directed 0\n").n == 0

    @pytest.mark.parametrize("text", [
        "graph undirected 1_0\n",
        "graph undirected \u0663\n",
        "graph undirected 0x3\n",
        "graph undirected 10\n1_0 2 1\n",
        "graph undirected 10\n\u0661 \u0663 1\n",
        "graph undirected 2\n1 2 1_000\n",
        "graph undirected 2\n1 2 1/2_0\n",
        "graph undirected 2\n1 2 1e1_0\n",
        "graph undirected 2\n1 2 \u0662\n",
    ])
    def test_out_of_grammar_token_is_1(self, capsys, tmp_path, text):
        # int() and Fraction() take non-ASCII digits and "_" (Fraction() from
        # Python 3.11 on); the grammar takes neither, on every version
        p = tmp_path / "bad.graph"
        p.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "laplacian", str(p)) == (1, "")

    @pytest.mark.parametrize("token, value", [
        ("-2", F(-2)), ("+2", F(2)), ("0.25", F(1, 4)), ("1e400", F(10**400)),
        ("-1/2", F(-1, 2)), ("+3/4", F(3, 4)), ("2.5E-1", F(1, 4)), (".5", F(1, 2)),
    ])
    def test_grammar_weights(self, token, value):
        assert parse_graph(f"graph undirected 2\n1 2 {token}\n").edges[0].w == value

    def test_signed_integer_labels_and_count(self):
        g = parse_graph("graph directed +2\n+1 +2 1\n")
        assert g.n == 2 and g.arcs == ((0, 1, F(1)),)
        with pytest.raises(GraphValidationError):
            parse_graph("graph directed -1\n")

    def test_round_trip_fixed(self):
        text = "graph directed 3\n1 2 1/3\n1 2 2/3\n3 1 -2\n"
        g = parse_graph(text)
        assert parse_graph(graph_text(g)) == g

    def test_round_trip_random(self):
        rng = random.Random(200)
        for _ in range(20):
            g = random_multigraph(rng)
            assert parse_graph(graph_text(g)) == g
            dg = random_multidigraph(rng)
            assert parse_graph(graph_text(dg)) == dg


class TestParseEdgeCases:
    """Vertex labels of plain ASCII digits skip the grammar and each distinct
    weight token is parsed once per file; every value, error and line number
    is the one the grammar gives token by token."""

    @pytest.mark.parametrize("label, head", [("3", 2), ("+3", 2), ("03", 2), ("003", 2)])
    def test_vertex_label_value(self, label, head):
        assert parse_graph(f"graph directed 3\n1 {label} 1\n").arcs == ((0, head, F(1)),)

    @pytest.mark.parametrize("label", ["\u0663", "1_0", "1.0", "0x3", "1" * 4301])
    def test_vertex_label_out_of_grammar(self, label):
        with pytest.raises(GraphParseError) as raised:
            parse_graph(f"graph directed 3\n1 {label} 1\n")
        assert str(raised.value) == f"line 2: vertex label {label!r} is not an integer"

    @pytest.mark.parametrize("digits", [639, 640, 4300])
    def test_long_vertex_label_is_out_of_range(self, digits):
        with pytest.raises(GraphValidationError) as raised:
            parse_graph(f"graph directed 3\n{'1' * digits} 2 1\n")
        assert str(raised.value) == f"line 2: vertex {'1' * digits} out of range 1..3"

    def test_repeated_weight_token(self):
        lines = "".join(f"{1 + k % 3} {1 + (k + 1) % 3} 3/7\n" for k in range(300))
        g = parse_graph(f"graph undirected 3\n{lines}")
        assert len(g.edges) == 300 and {e.w for e in g.edges} == {F(3, 7)}

    def test_equal_values_spelled_differently(self):
        g = parse_graph("graph directed 2\n1 2 0.5\n1 2 1/2\n1 2 5e-1\n1 2 0.5\n")
        assert [a.w for a in g.arcs] == [F(1, 2)] * 4

    @pytest.mark.parametrize("text, error, message", [
        ("", GraphParseError, "line 1: missing 'graph <directed|undirected> <n>' header"),
        ("# only a comment\n\n", GraphParseError,
         "line 1: missing 'graph <directed|undirected> <n>' header"),
        ("graph mixed 3\n", GraphParseError, "line 1: bad header 'graph mixed 3'"),
        ("graph undirected\n", GraphParseError, "line 1: bad header 'graph undirected'"),
        ("graph undirected -1\n", GraphValidationError, "line 1: vertex count must be >= 0, got -1"),
        ("graph undirected x\n", GraphParseError, "line 1: vertex count 'x' is not an integer"),
        ("graph undirected 3\n1 2\n", GraphParseError, "line 2: expected '<u> <v> <w>', got '1 2'"),
        ("graph undirected 3\n1 2 1 4\n", GraphParseError,
         "line 2: expected '<u> <v> <w>', got '1 2 1 4'"),
        ("graph undirected 3\n1 2 1\n2 2 1\n", GraphValidationError, "line 3: self-loop at vertex 2"),
        ("graph directed 3\n1 4 1\n", GraphValidationError, "line 2: vertex 4 out of range 1..3"),
        ("graph directed 3\n0 2 1\n", GraphValidationError, "line 2: vertex 0 out of range 1..3"),
        ("graph directed 3\n-1 2 1\n", GraphValidationError, "line 2: vertex -1 out of range 1..3"),
        ("graph undirected 3\n1 2 1/0\n", GraphParseError, "line 2: weight '1/0' is not a rational literal"),
        ("graph undirected 3\n1 2 2\n2 3 2\n# c\n1 3 abc\n", GraphParseError,
         "line 5: weight 'abc' is not a rational literal"),
        ("graph undirected 3\n1 2 1/0\n2 3 1/0\n", GraphParseError,
         "line 2: weight '1/0' is not a rational literal"),
        ("graph undirected 3\n1 2 2\n2 3 2_0\n", GraphParseError,
         "line 3: weight '2_0' is not a rational literal"),
        ("graph undirected 3\n1 2 1e4301\n", GraphParseError,
         "line 2: weight '1e4301' is not a rational literal"),
        ("graph undirected 3\r\n1 2 1\r\n2 3 \u0661\r\n", GraphParseError,
         "line 3: weight '\u0661' is not a rational literal"),
    ])
    def test_malformed_message_and_line(self, text, error, message):
        with pytest.raises(error) as raised:
            parse_graph(text)
        assert type(raised.value) is error and str(raised.value) == message
        if error is GraphParseError:
            assert raised.value.line_no == int(message.split(":")[0].removeprefix("line "))


# The graph files of the end-to-end cases, by name.
GRAPH_FILES = {
    "edge": "graph undirected 2\n1 2 1\n",
    "arc": "graph directed 2\n1 2 1\n",
    "k3": "graph undirected 3\n1 2 1\n2 3 1\n1 3 1\n",
    "small": "graph undirected 4\n1 2 1\n2 3 1/2\n3 4 2\n1 3 1\n",
    "small-undirected": "graph undirected 3\n1 2 1\n2 3 1/2\n1 3 2\n",
    "small-directed": "graph directed 3\n1 2 1\n2 3 1/2\n1 3 2\n3 1 -1\n",
    "directed-parallel": "graph directed 3\n1 2 1\n2 3 -1/2\n3 1 2\n1 2 1/3\n",
    # W = [[0, 2, -1], [2, 0, -1], [-1, -1, 3]]: zero diagonal pivots
    "zero-pivot": "graph undirected 3\n1 2 -2\n2 3 1\n1 3 1\n",
    # xI - L = [[x-1, 1, 0], [1, x-2, 1], [0, 1, x-1]]: zero pivots at x = 1, 2
    "path": "graph undirected 3\n1 2 1\n2 3 1\n",
    # vertex 1 has in-degree 0, a zero row of L
    "source": "graph directed 3\n1 2 1\n1 3 2\n2 3 1/2\n",
    # the parallel halves merge to 1, which changes the forest table's den
    "halves-undirected": "graph undirected 3\n1 2 1/2\n1 2 1/2\n2 3 1/3\n",
    "halves-directed": "graph directed 3\n1 2 1/2\n1 2 1/2\n2 3 1/3\n",
    "singular-undirected": "graph undirected 2\n1 2 -1/2\n",
    "singular-directed": "graph directed 3\n1 2 -1\n2 3 1\n",
}


@pytest.fixture
def graph_file(tmp_path):
    """graph_file(name) writes GRAPH_FILES[name] and returns its path."""

    def write(name):
        path = tmp_path / f"{name}.graph"
        path.write_text(GRAPH_FILES[name], encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def edge_file(graph_file):
    return graph_file("edge")


@pytest.fixture
def arc_file(graph_file):
    return graph_file("arc")


@pytest.fixture
def k3_file(graph_file):
    return graph_file("k3")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None


class TestCommands:
    def test_det(self, capsys, edge_file):
        code, payload = run_json(capsys, "det", edge_file)
        assert code == 0
        assert payload == {"command": "det", "n": 2, "mode": "exact", "detW": "3"}

    def test_det_lambda(self, capsys, edge_file):
        code, payload = run_json(capsys, "det", edge_file, "--lambda", "2")
        assert code == 0 and payload["detW"] == "8"  # det of [[3,-1],[-1,3]]

    def test_laplacian(self, capsys, arc_file):
        code, payload = run_json(capsys, "laplacian", arc_file)
        assert code == 0
        assert payload["matrix"] == [["0", "0"], ["-1", "1"]]

    def test_forest_matrix(self, capsys, edge_file):
        code, payload = run_json(capsys, "forest-matrix", edge_file)
        assert code == 0
        assert payload["matrix"] == [["2", "-1"], ["-1", "2"]]
        assert payload["detW"] == "3" and payload["lambda"] == "1"

    def test_cofactor(self, capsys, arc_file):
        code, payload = run_json(capsys, "cofactor", arc_file, "--from", "1", "--to", "2")
        assert code == 0 and payload["cofactor"] == "1"
        code, payload = run_json(capsys, "cofactor", arc_file, "--from", "2", "--to", "1")
        assert code == 0 and payload["cofactor"] == "0"

    def test_accessibility(self, capsys, arc_file):
        code, payload = run_json(capsys, "accessibility", arc_file)
        assert code == 0
        assert payload["matrix"] == [["1", "0"], ["1/2", "1/2"]]

    def test_charpoly(self, capsys, k3_file):
        code, payload = run_json(capsys, "charpoly", k3_file)
        assert code == 0 and payload["coeffs"] == ["0", "9", "6", "1"]

    def test_cofactor_poly(self, capsys, edge_file):
        code, payload = run_json(
            capsys, "cofactor-poly", edge_file, "--from", "1", "--to", "1"
        )
        assert code == 0 and payload["coeffs"] == ["1", "1"] and payload["signed"] is False

    def test_cofactor_poly_signed(self, capsys, edge_file):
        code, payload = run_json(
            capsys, "cofactor-poly", edge_file, "--from", "1", "--to", "1", "--signed"
        )
        assert code == 0 and payload["coeffs"] == ["-1", "1"] and payload["signed"] is True

    @pytest.mark.parametrize("name, argv, out", [
        # xI - L of the path has zero pivots at x = 1 and x = 2, but the signed
        # polynomial is the sign flip of the plain one, taken on xI + L; the
        # source vertex of the digraph has a zero row in L, which the order
        # pivots on first, and x = 0 is not eliminated
        ("path", ["cofactor-poly", "--from", "1", "--to", "1", "--signed"], "1\t-3\t1\n"),
        ("path", ["cofactor-poly", "--from", "1", "--to", "3", "--signed"], "1\t0\t0\n"),
        ("source", ["charpoly"], "0\t5/2\t7/2\t1\n"),
    ], ids=["signed-cofactor-poly-1-1", "signed-cofactor-poly-1-3", "charpoly-source"])
    def test_former_zero_pivot_cases_meet_none(self, capsys, graph_file, routes, name, argv, out):
        assert run_cli(capsys, argv[0], graph_file(name), *argv[1:], "--output", "tsv") == (0, out)
        assert routes and set(routes) == {frozenset()}

    def test_enumerate_default_kind(self, capsys, edge_file):
        code, payload = run_json(capsys, "enumerate", edge_file)
        assert code == 0
        assert payload["kind"] == "rooted-forests"
        assert payload["count"] == 3 and payload["total"] == "3"

    def test_enumerate_trees(self, capsys, k3_file):
        code, payload = run_json(capsys, "enumerate", k3_file, "--kind", "trees")
        assert code == 0 and payload["count"] == 3 and payload["total"] == "3"

    def test_enumerate_directed_trees_need_root(self, capsys, arc_file):
        code, _ = run_cli(capsys, "enumerate", arc_file, "--kind", "trees")
        assert code == 2
        code, payload = run_json(
            capsys, "enumerate", arc_file, "--kind", "trees", "--from", "1"
        )
        assert code == 0 and payload["count"] == 1

    def test_enumerate_roots_filter(self, capsys, k3_file):
        code, payload = run_json(capsys, "enumerate", k3_file, "--roots", "1")
        assert code == 0 and payload["count"] == 3 and payload["total"] == "3"

    def test_enumerate_pair_filter(self, capsys, edge_file):
        code, payload = run_json(
            capsys, "enumerate", edge_file, "--from", "1", "--to", "2"
        )
        assert code == 0 and payload["count"] == 1
        assert payload["forests"] == [{"instances": [0], "roots": [1], "weight": "1"}]

    def test_enumerate_kind_mismatch(self, capsys, arc_file):
        code, _ = run_cli(capsys, "enumerate", arc_file, "--kind", "rooted-forests")
        assert code == 2

    @pytest.mark.parametrize("flags", [("--from", "1"), ("--to", "2"), ("--from", "1", "--to", "2")])
    def test_enumerate_undirected_trees_reject_pair_flags(self, capsys, k3_file, flags):
        assert run_cli(capsys, "enumerate", k3_file, "--kind", "trees", *flags) == (2, "")

    def test_verify_all_pass(self, capsys, k3_file):
        code, payload = run_json(capsys, "verify", k3_file)
        assert code == 0
        report = payload["report"]
        assert report["all_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert len(names) == 12 and len(set(names)) == 12
        assert all(c["passed"] for c in report["checks"])

    @pytest.mark.parametrize("name, digest", [
        ("singular-undirected", "e79a6ca070ecee153d7e7f7c98cf117ec8ded8ac132b3468463c0823c77ddf50"),
        ("directed-parallel", "20c50f6e8e29145122498294135f497d7902f11bc866d84004581552d7dd477d"),
    ], ids=["undirected-singular", "directed-parallel"])
    def test_verify_json_bytes_are_pinned(self, capsys, graph_file, name, digest):
        # every report field, in field order, with a skipped check among them
        code, out = run_cli(capsys, "verify", graph_file(name), "--output", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_skips_accessibility_when_singular(self, capsys, graph_file):
        code, payload = run_json(capsys, "verify", graph_file("singular-undirected"))
        assert code == 0
        by_name = {c["name"]: c for c in payload["report"]["checks"]}
        assert by_name["accessibility-matrix"]["skipped"] is True


class TestExitCodes:
    def test_parse_error_is_1(self, capsys, tmp_path):
        p = tmp_path / "bad.graph"
        p.write_text("graph undirected 2\n1 2\n", encoding="utf-8")
        assert run_cli(capsys, "det", str(p))[0] == 1

    def test_missing_file_is_1(self, capsys, tmp_path):
        assert run_cli(capsys, "det", str(tmp_path / "nope.graph"))[0] == 1

    def test_not_utf8_is_1(self, capsys, tmp_path):
        p = tmp_path / "latin1.graph"
        p.write_bytes(b"graph undirected 2\n1 2 \xff\n")
        code = main(["det", str(p)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: cannot read input: ")
        assert captured.err.count("\n") == 1

    def test_validation_error_is_2(self, capsys, tmp_path):
        p = tmp_path / "loop.graph"
        p.write_text("graph undirected 2\n1 1 1\n", encoding="utf-8")
        assert run_cli(capsys, "det", str(p))[0] == 2

    @pytest.mark.parametrize("kind", ["undirected", "directed"])
    def test_verify_without_vertices_is_2(self, capsys, tmp_path, kind):
        p = tmp_path / "empty.graph"
        p.write_text(f"graph {kind} 0\n", encoding="utf-8")
        assert run_cli(capsys, "verify", str(p)) == (2, "")

    def test_bad_lambda_is_2(self, capsys, edge_file):
        assert run_cli(capsys, "det", edge_file, "--lambda", "nope")[0] == 2

    def test_lambda_exponent_beyond_the_digit_cap_is_2(self, capsys, edge_file):
        code = main(["det", edge_file, "--lambda", "1e5000"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "error: --lambda '1e5000' is not a rational literal" in captured.err

    @pytest.mark.parametrize("command, flag", [
        ("det", "--lambda"), ("forest-matrix", "--lambda"), ("accessibility", "--lambda"),
        ("cofactor", "--lambda"), ("cofactor", "--from"), ("cofactor", "--to"),
        ("cofactor-poly", "--from"), ("cofactor-poly", "--to"), ("enumerate", "--from"),
        ("enumerate", "--to"), ("enumerate", "--roots"), ("enumerate", "--max-enum"),
        ("verify", "--max-enum"),
    ])
    @pytest.mark.parametrize("value", ["1_0", "\u0661"])
    def test_out_of_grammar_flag_is_2(self, capsys, edge_file, command, flag, value):
        # int() and Fraction() take non-ASCII digits and "_" (Fraction() from
        # Python 3.11 on); every numeric flag reads the graph file's grammar
        pair = command.startswith("cofactor") or flag in ("--from", "--to")
        flags = {"--from": "1", "--to": "2"} if pair else {}
        flags[flag] = f"1, {value}" if flag == "--roots" else value
        code = main([command, edge_file, *(x for item in flags.items() for x in item)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"error: {flag} " in captured.err

    @pytest.mark.parametrize("lam, det", [
        ("1/2", F(5, 4)), ("+2", F(8)), ("0.25", F(9, 16)), ("1e3", F(1_002_000)),
    ])
    def test_lambda_grammar(self, capsys, edge_file, lam, det):
        # det [[l + 1, -1], [-1, l + 1]] = l**2 + 2l
        code, payload = run_json(capsys, "det", edge_file, "--lambda", lam)
        assert code == 0 and F(payload["detW"]) == det

    def test_singular_is_3(self, capsys, graph_file):
        assert run_cli(capsys, "accessibility", graph_file("singular-undirected"))[0] == 3

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("text, lam", [
        # W = J/3: LAPACK meets no zero pivot, so float mode needs the residual probe
        ("graph undirected 3\n1 2 -1/3\n2 3 -1/3\n1 3 -1/3\n", "1"),
        ("graph undirected 2\n1 2 1\n", "0"),  # W = L
    ])
    def test_singular_accessibility_is_3_and_names_lambda(self, capsys, tmp_path, mode, text, lam):
        if mode == "float":
            pytest.importorskip("numpy")
        p = tmp_path / "singular.graph"
        p.write_text(text, encoding="utf-8")
        code = main(["accessibility", str(p), "--lambda", lam, "--mode", mode])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        numerically = "numerically " if mode == "float" else ""
        assert f"W = lambda*I + L is {numerically}singular at lambda = {lam};" in captured.err

    def test_ill_conditioned_float_accessibility_is_0(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        # nonsingular, condition number about 1e7: the probe reads about 5e-11
        p = tmp_path / "ill.graph"
        p.write_text("graph undirected 2\n1 2 -0.4999999\n", encoding="utf-8")
        _, exact = run_json(capsys, "accessibility", str(p))
        code, approx = run_json(capsys, "accessibility", str(p), "--mode", "float")
        assert code == 0
        for row_e, row_f in zip(exact["matrix"], approx["matrix"]):
            for e, f in zip(row_e, row_f):
                assert abs(float(Fraction(e)) - f) <= 1e-6 * abs(f)

    def test_guard_is_4(self, capsys, tmp_path):
        lines = ["graph undirected 9"] + [f"{u} {u + 1} 1" for u in range(1, 9)]
        p = tmp_path / "big.graph"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli(capsys, "verify", str(p))[0] == 4
        assert run_cli(capsys, "enumerate", str(p))[0] == 4
        # the guard is overridable
        assert run_cli(capsys, "enumerate", str(p), "--max-enum", "16")[0] == 0

    def test_verify_guard_override(self, capsys, tmp_path):
        p = tmp_path / "wide.graph"
        p.write_text("graph undirected 9\n", encoding="utf-8")
        assert run_cli(capsys, "verify", str(p))[0] == 4
        assert run_cli(capsys, "verify", str(p), "--max-enum", "9")[0] == 0

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_max_enum_above_ceiling_is_4(self, capsys, monkeypatch, k3_file, command):
        def no_enumeration(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(forestmatrix.oracle, "enum_rooted_forests", no_enumeration)
        monkeypatch.setattr(forestmatrix.verify, "run_all_checks", no_enumeration)
        assert main([command, k3_file, "--max-enum", "40"]) == 4
        assert "ceiling of 24" in capsys.readouterr().err

    def test_max_enum_at_ceiling_is_accepted(self, capsys, k3_file):
        assert run_cli(capsys, "verify", k3_file, "--max-enum", "24")[0] == 0

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    @pytest.mark.parametrize("limit", ["1", "10"])
    def test_max_enum_below_a_default_keeps_it(self, capsys, tmp_path, command, limit):
        # K4 has 4 vertices and 6 edges, whose twin has 12 arcs
        lines = ["graph undirected 4"] + [f"{u} {v} 1" for u in range(1, 5) for v in range(u + 1, 5)]
        p = tmp_path / "k4.graph"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        plain = run_cli(capsys, command, str(p))
        assert plain[0] == 0
        assert run_cli(capsys, command, str(p), "--max-enum", limit) == plain

    def test_verify_refuses_undirected_above_twin_budget(self, capsys, tmp_path):
        # nine edges double to eighteen arcs, over the default instance guard
        lines = ["graph undirected 5"] + ["1 2 1"] * 9
        p = tmp_path / "dense.graph"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli(capsys, "verify", str(p))[0] == 4


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys, k3_file):
        outputs = set()
        for _ in range(2):
            code, out = run_cli(capsys, "verify", k3_file)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_enumerate_sorted_output(self, capsys, k3_file):
        _, payload = run_json(capsys, "enumerate", k3_file)
        keys = [(len(m["instances"]), m["instances"], m["roots"]) for m in payload["forests"]]
        assert keys == sorted(keys)


def _enumerate_runs(rng):
    """(graph, extra argv) pairs: seeded graphs of both kinds, without flags,
    with --roots, with --from/--to and with --kind trees."""
    for _ in range(6):
        for graph in (random_multigraph(rng, n_max=4, max_edges=6),
                      random_multidigraph(rng, n_max=4, max_arcs=7)):
            n = graph.n
            roots = ",".join(str(v + 1) for v in rng.sample(range(n), rng.randint(1, n)))
            i, j = rng.randint(1, n), rng.randint(1, n)
            trees = ("--kind", "trees")
            if isinstance(graph, Multidigraph):
                trees += ("--from", str(i))
            for extra in ((), ("--roots", roots), ("--from", str(i), "--to", str(j)), trees):
                yield graph, extra


class TestEnumerateOrderAndTotal:
    def test_members_in_documented_order_with_summed_total(self, capsys, tmp_path):
        rng = random.Random(320)
        for graph, extra in _enumerate_runs(rng):
            path = write_graph(tmp_path, graph)
            code, payload = run_json(capsys, "enumerate", path, *extra)
            assert code == 0, extra
            members = payload["forests"]
            keys = [(len(m["instances"]), m["instances"], m.get("roots", [])) for m in members]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(m["instances"] == sorted(m["instances"]) for m in members)
            total = sum((Fraction(m["weight"]) for m in members), Fraction(0))
            assert Fraction(payload["total"]) == total
            assert payload["count"] == len(members)

            code, out = run_cli(capsys, "enumerate", path, *extra, "--output", "tsv")
            assert code == 0
            *rows, last = out.strip("\n").split("\n")
            assert last == f"total\t{payload['total']}"
            expected = [
                "\t".join((",".join(map(str, m["instances"])) or "-",
                           ",".join(map(str, m.get("roots", []))) or "-", m["weight"]))
                for m in members
            ]
            assert rows == expected


class TestTsv:
    def test_matrix(self, capsys, arc_file):
        code, out = run_cli(capsys, "laplacian", arc_file, "--output", "tsv")
        assert code == 0 and out == "0\t0\n-1\t1\n"

    def test_det(self, capsys, edge_file):
        code, out = run_cli(capsys, "det", edge_file, "--output", "tsv")
        assert code == 0 and out == "3\n"

    def test_verify(self, capsys, k3_file):
        code, out = run_cli(capsys, "verify", k3_file, "--output", "tsv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 12 and all(line.endswith("\tpass") for line in lines)

    def test_enumerate(self, capsys, edge_file):
        code, out = run_cli(capsys, "enumerate", edge_file, "--output", "tsv")
        assert code == 0
        assert out.strip().split("\n")[-1] == "total\t3"


def write_graph(tmp_path, graph, name="g.graph"):
    p = tmp_path / name
    p.write_text(graph_text(graph), encoding="utf-8")
    return str(p)


# every float-mode command, with the pair flags it needs
FLOAT_PAIR_FLAGS = {
    "laplacian": (), "forest-matrix": (), "det": (), "cofactor": ("--from", "1", "--to", "2"),
    "accessibility": (), "charpoly": (),
}


class TestFloatMode:
    def rel_close(self, a, b, tol=1e-9):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    def test_matrix_outputs_agree_with_exact(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        rng = random.Random(300)
        g = random_multigraph(rng, n_min=50, n_max=50, max_edges=150, pool=POSITIVE_POOL)
        path = write_graph(tmp_path, g)
        for command in ("laplacian", "forest-matrix", "accessibility"):
            _, exact = run_json(capsys, command, path)
            _, approx = run_json(capsys, command, path, "--mode", "float")
            for row_e, row_f in zip(exact["matrix"], approx["matrix"]):
                for e, f in zip(row_e, row_f):
                    assert self.rel_close(float(Fraction(e)), f)

    def test_det_and_charpoly_agree(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        rng = random.Random(301)
        g = random_multigraph(rng, n_min=8, n_max=8, max_edges=20, pool=POSITIVE_POOL)
        path = write_graph(tmp_path, g)
        _, exact = run_json(capsys, "det", path)
        _, approx = run_json(capsys, "det", path, "--mode", "float")
        assert self.rel_close(float(Fraction(exact["detW"])), approx["detW"])
        _, exact = run_json(capsys, "charpoly", path)
        _, approx = run_json(capsys, "charpoly", path, "--mode", "float")
        for e, f in zip(exact["coeffs"], approx["coeffs"]):
            assert self.rel_close(float(Fraction(e)), f, tol=1e-8)

    def test_directed_agrees(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        rng = random.Random(302)
        dg = random_multidigraph(rng, n_min=20, n_max=20, max_arcs=60, pool=POSITIVE_POOL)
        path = write_graph(tmp_path, dg)
        _, exact = run_json(capsys, "accessibility", path)
        _, approx = run_json(capsys, "accessibility", path, "--mode", "float")
        for row_e, row_f in zip(exact["matrix"], approx["matrix"]):
            for e, f in zip(row_e, row_f):
                assert self.rel_close(float(Fraction(e)), f)

    def test_float_cofactor(self, capsys, tmp_path, unit_k3):
        pytest.importorskip("numpy")
        path = write_graph(tmp_path, unit_k3)
        _, payload = run_json(capsys, "cofactor", path, "--from", "1", "--to", "2",
                              "--mode", "float")
        assert abs(payload["cofactor"] - 4.0) < 1e-9  # cofactor of W = I + L

    # any warning fails the test: numpy's overflow warning must not reach stderr
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("output", ["json", "tsv"])
    @pytest.mark.parametrize("argv", [
        ("det",),
        ("cofactor", "--from", "1", "--to", "300"),
        ("charpoly",),
        ("forest-matrix",),
    ])
    def test_overflow_is_6_with_empty_stdout(self, capsys, tmp_path, argv, output):
        pytest.importorskip("numpy")
        # det W is about 5e611 and the end-to-end cofactor 100**299, far beyond binary64
        path = tmp_path / "path.graph"
        lines = [f"{v} {v + 1} 100" for v in range(1, 300)]
        path.write_text("graph undirected 300\n" + "\n".join(lines) + "\n", encoding="utf-8")
        code = main([argv[0], str(path), *argv[1:], "--mode", "float", "--output", output])
        captured = capsys.readouterr()
        assert code == 6
        assert captured.out == ""
        assert "--mode exact" in captured.err

    @pytest.mark.parametrize("command, beyond", [
        *((command, "weight") for command in FLOAT_PAIR_FLAGS),
        *((command, "lambda") for command in ("forest-matrix", "det", "cofactor", "accessibility")),
    ])
    def test_input_beyond_binary64_is_6(self, capsys, tmp_path, edge_file, command, beyond):
        pytest.importorskip("numpy")
        path = tmp_path / "huge.graph"
        path.write_text("graph undirected 2\n1 2 1e400\n", encoding="utf-8")
        argv = [command, str(path) if beyond == "weight" else edge_file,
                *FLOAT_PAIR_FLAGS[command], "--mode", "float"]
        if beyond == "lambda":
            argv += ["--lambda", "1e400"]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (6, "")
        assert "--mode exact" in captured.err

    def test_tsv_cells_are_float_reprs(self, capsys, graph_file):
        pytest.importorskip("numpy")
        from forestmatrix import floatops

        argv = ("accessibility", graph_file("small-directed"), "--mode", "float", "--output", "tsv")
        q = floatops.accessibility(parse_graph(GRAPH_FILES["small-directed"])).matrix
        assert run_cli(capsys, *argv) == (0, "".join("\t".join(repr(float(x)) for x in row) + "\n" for row in q))

    @pytest.mark.parametrize("payload, lines", [
        ({"mode": "float", "matrix": [[0.0, -0.0, 1e-26], [0.1, 2.5e-05, 1e16], [1.0, -1.5, 1 / 3]]},
         ["0.0\t-0.0\t1e-26", "0.1\t2.5e-05\t1e+16", "1.0\t-1.5\t0.3333333333333333"]),
        ({"mode": "float", "matrix": [[0.5]], "detW": 2.0}, ["0.5", "detW\t2.0"]),
        ({"mode": "exact", "matrix": [["1/2", "-3"], ["0", "7/5"]], "detW": "-1/10"},
         ["1/2\t-3", "0\t7/5", "detW\t-1/10"]),
        ({"mode": "exact", "matrix": []}, []),
    ], ids=["float", "float-1x1", "exact", "empty"])
    def test_tsv_matrix_bytes_are_pinned(self, payload, lines):
        assert list(_tsv_lines(payload)) == lines

    def test_exact_lambda_beyond_binary64(self, capsys, edge_file):
        # det [[l + 1, -1], [-1, l + 1]] = l**2 + 2l
        code, payload = run_json(capsys, "det", edge_file, "--lambda", "1e400")
        assert code == 0 and payload["detW"] == str(10**800 + 2 * 10**400)


def _child_env(**extra):
    src = str(Path(forestmatrix.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    return {**env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **extra}


def _cli_child(argv, **extra):
    cmd = [sys.executable, "-m", "forestmatrix.cli", *argv]
    return subprocess.run(cmd, env=_child_env(**extra), capture_output=True)


class TestWithoutNumpy:
    """A numpy.py first on the path that fails to import stands in for an absent numpy."""

    @staticmethod
    def path_with_stub(tmp_path, missing):
        stub = tmp_path / "stub"
        stub.mkdir()
        (stub / "numpy.py").write_text(
            f'raise ModuleNotFoundError("No module named {missing!r}", name={missing!r})\n',
            encoding="utf-8",
        )
        return os.pathsep.join([str(stub), str(Path(forestmatrix.__file__).resolve().parents[1])])

    def test_float_mode_is_2_and_exact_mode_runs(self, tmp_path, edge_file):
        path = self.path_with_stub(tmp_path, "numpy")
        run = _cli_child(["det", edge_file, "--mode", "float"], PYTHONPATH=path)
        assert (run.returncode, run.stdout) == (2, b"")
        assert run.stderr == b"error: --mode float needs numpy, which is not installed; use --mode exact\n"
        run = _cli_child(["det", edge_file], PYTHONPATH=path)
        assert run.returncode == 0
        assert json.loads(run.stdout)["detW"] == "3"

    def test_other_import_errors_propagate(self, tmp_path, edge_file):
        # numpy is there but one of its own modules is missing: not a missing numpy
        path = self.path_with_stub(tmp_path, "numpy.core._multiarray_umath")
        run = _cli_child(["det", edge_file, "--mode", "float"], PYTHONPATH=path)
        assert (run.returncode, run.stdout) == (1, b"")
        assert b"Traceback" in run.stderr and b"_multiarray_umath" in run.stderr


class TestDigitLimit:
    """Python's int/str digit limit (4300 by default, PYTHONINTMAXSTRDIGITS)
    decides neither what parses nor what prints."""

    LOW = {"PYTHONINTMAXSTRDIGITS": "640"}

    @pytest.fixture
    def big_file(self, tmp_path):
        p = tmp_path / "big.graph"
        p.write_text("graph undirected 2\n1 2 1e4300\n", encoding="utf-8")
        return str(p)

    def test_long_exact_result_prints_the_same_under_any_limit(self, big_file):
        plain, low = _cli_child(["det", big_file]), _cli_child(["det", big_file], **self.LOW)
        assert (plain.returncode, low.returncode) == (0, 0), low.stderr
        assert json.loads(plain.stdout)["detW"] == "2" + "0" * 4299 + "1"
        assert low.stdout == plain.stdout

    @pytest.mark.parametrize("line, code", [
        ("1 2 " + "7" * 4300, 0),
        ("1 2 " + "7" * 4301, 1),
        ("1" * 4300 + " 2 1", 2),
        ("1" * 4301 + " 2 1", 1),
        ("1 2 1e4301", 1),
    ])
    def test_digit_run_bound_is_the_grammar(self, tmp_path, line, code):
        p = tmp_path / "run.graph"
        p.write_text(f"graph undirected 2\n{line}\n", encoding="utf-8")
        for extra in ({}, self.LOW):
            done = _cli_child(["det", str(p)], **extra)
            assert done.returncode == code, (extra, done.stderr[-200:])
            assert bool(done.stdout) == (code == 0)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_main_restores_the_limit(self, capsys, big_file):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["det", big_file]) == 0
            assert sys.get_int_max_str_digits() == 640
            assert main(["det", big_file, "--lambda", "1_0"]) == 2
            assert sys.get_int_max_str_digits() == 640
            with pytest.raises(SystemExit):
                main(["det"])  # argparse exits: no path given
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)
        assert json.loads(capsys.readouterr().out)["detW"] == "2" + "0" * 4299 + "1"


def test_exact_cli_import_leaves_numpy_unloaded():
    env = _child_env()
    code = "import sys, forestmatrix.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


PATH3 = "graph undirected 3\n1 2 1\n2 3 1/2\n"


def test_exact_cli_loads_neither_dataclasses_nor_inspect(tmp_path):
    # both cost milliseconds of start-up in every CLI process; the names are
    # compared with what the interpreter had loaded before the import
    path = tmp_path / "g.graph"
    path.write_text(PATH3)
    code = (
        "import sys; before = set(sys.modules); heavy = {'dataclasses', 'inspect'}\n"
        "import forestmatrix.cli\n"
        "on_import = sorted(heavy & (set(sys.modules) - before))\n"
        "status = forestmatrix.cli.main(['det', sys.argv[1]])\n"
        "print(status, on_import, sorted(heavy & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=_child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-300:]
    assert done.stdout.splitlines()[-1] == "0 [] []"


@pytest.mark.parametrize("argv, text, code", [
    (["det"], PATH3, 0),
    (["accessibility"], PATH3, 0),
    (["charpoly"], PATH3, 0),
    (["cofactor-poly", "--from", "1", "--to", "2"], PATH3, 0),
    (["det"], PATH3 + "1 3 x\n", 1),
], ids=["det", "accessibility", "charpoly", "cofactor-poly", "malformed"])
def test_matrix_commands_leave_the_enumeration_modules_unloaded(tmp_path, argv, text, code):
    path = tmp_path / "g.graph"
    path.write_text(text)
    command = [sys.executable, "-X", "importtime", "-m", "forestmatrix.cli", argv[0], str(path)]
    done = subprocess.run(command + argv[1:], env=_child_env(), capture_output=True, text=True)
    assert done.returncode == code, done.stderr[-300:]
    # -X importtime writes one "import time: self | cumulative | module" line per import
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if "|" in line}
    assert "forestmatrix.forest" in loaded
    assert not loaded & {"forestmatrix.oracle", "forestmatrix.verify"}


# (id, argv with a GRAPH_FILES name for the path, exit code, out): a failing run
# writes nothing to stdout and out, one error line, to stderr; a passing one
# writes nothing to stderr and out to stdout, or where out is a dict, a json
# document holding its fields
CLI_CASES = [
    ("from-0", ["cofactor", "edge", "--from", "0", "--to", "1"], 2, "error: --from 0 out of range 1..2\n"),
    ("to-3", ["cofactor", "edge", "--from", "1", "--to", "3"], 2, "error: --to 3 out of range 1..2\n"),
    ("poly-from-3", ["cofactor-poly", "edge", "--from", "3", "--to", "1"], 2, "error: --from 3 out of range 1..2\n"),
    ("enumerate-to-3", ["enumerate", "edge", "--from", "1", "--to", "3"], 2, "error: --to 3 out of range 1..2\n"),
    ("max-enum-0", ["enumerate", "edge", "--max-enum", "0"], 2, "error: --max-enum must be positive, got 0\n"),
    ("verify-max-enum-0", ["verify", "edge", "--max-enum", "0"], 2, "error: --max-enum must be positive, got 0\n"),
    ("diverging-kind-undirected", ["enumerate", "edge", "--kind", "diverging-forests"], 2,
     "error: diverging-forests enumeration needs a directed graph\n"),
    ("forest-matrix-tsv", ["forest-matrix", "edge", "--output", "tsv"], 0, "2\t-1\n-1\t2\ndetW\t3\n"),
    ("forest-matrix-tsv-lambda", ["forest-matrix", "arc", "--lambda", "1/2", "--output", "tsv"], 0,
     "1/2\t0\n-1\t3/2\ndetW\t3/4\n"),
    ("cofactor-tsv", ["cofactor", "k3", "--from", "1", "--to", "2", "--lambda", "1/2", "--output", "tsv"], 0, "7/2\n"),
    # the enumeration filters, and tree kinds refuse the flags they do not use
    ("enumerate-pair", ["enumerate", "small-directed", "--from", "1", "--to", "2"], 0, {"count": 3, "total": "7/2"}),
    ("enumerate-roots", ["enumerate", "small-directed", "--roots", "1"], 0, {"count": 2, "total": "5/2"}),
    ("enumerate-trees", ["enumerate", "small-undirected", "--kind", "trees"], 0, {"count": 3, "total": "7/2"}),
    ("trees-to", ["enumerate", "small-undirected", "--kind", "trees", "--to", "2"], 2,
     "error: --to only applies to forest kinds\n"),
    ("directed-trees-to", ["enumerate", "arc", "--kind", "trees", "--from", "1", "--to", "2"], 2,
     "error: --to only applies to forest kinds\n"),
    # enumeration totals equal the matrix side: det W for the forests, the
    # cofactor (2, 2) of L for the trees (diverging from 2 in a digraph)
    ("forests-small", ["enumerate", "small"], 0, {"total": "49"}),
    ("det-small", ["det", "small"], 0, {"detW": "49"}),
    ("trees-small", ["enumerate", "small", "--kind", "trees"], 0, {"total": "4"}),
    ("L-cofactor-small", ["cofactor", "small", "--lambda", "0", "--from", "2", "--to", "2"], 0, {"cofactor": "4"}),
    ("forests-directed", ["enumerate", "directed-parallel"], 0, {"total": "29/6"}),
    ("det-directed", ["det", "directed-parallel"], 0, {"detW": "29/6"}),
    ("trees-directed", ["enumerate", "directed-parallel", "--kind", "trees", "--from", "2"], 0, {"total": "-1"}),
    ("L-cofactor-directed", ["cofactor", "directed-parallel", "--lambda", "0", "--from", "2", "--to", "2"], 0,
     {"cofactor": "-1"}),
    # signed weights with zero diagonal pivots; Q = adj W / (-8) takes a row swap
    ("det-zero-pivot", ["det", "zero-pivot"], 0, {"detW": "-8"}),
    ("cofactor-zero-pivot-2-3", ["cofactor", "zero-pivot", "--from", "2", "--to", "3"], 0, {"cofactor": "-2"}),
    ("cofactor-zero-pivot-3-3", ["cofactor", "zero-pivot", "--from", "3", "--to", "3"], 0, {"cofactor": "-4"}),
    ("cofactor-zero-pivot-1-2", ["cofactor", "zero-pivot", "--from", "1", "--to", "2"], 0, {"cofactor": "-5"}),
    ("accessibility-zero-pivot", ["accessibility", "zero-pivot", "--output", "tsv"], 0,
     "1/8\t5/8\t1/4\n5/8\t1/8\t1/4\n1/4\t1/4\t1/2\n"),
    # an undirected cofactor is the same from i to j as from j to i
    *((f"cofactor-{name}-{i}-{j}", ["cofactor", name, "--from", i, "--to", j], 0, {"cofactor": value})
      for name, value in (("small", "9"), ("zero-pivot", "-2")) for i, j in (("1", "3"), ("3", "1"))),
    # exact accessibility of a singular W exits 3: lambda = 0, and the roots
    # -2 and -1/2 of det W
    *((f"singular-{name}-{lam}", ["accessibility", name, f"--lambda={lam}"], 3,
       f"error: W = lambda*I + L is singular at lambda = {lam}; the accessibility matrix does not exist\n")
      for name, lam in (("small", "0"), ("small-directed", "-2"), ("small-directed", "-1/2"))),
    # the singular W of each kind that verify takes below
    ("det-singular-undirected", ["det", "singular-undirected"], 0, {"detW": "0"}),
    ("det-singular-directed", ["det", "singular-directed"], 0, {"detW": "0"}),
    # the exact-only commands refuse float mode, with or without numpy
    *((f"float-{argv[0]}", [argv[0], "small", *argv[1:], "--mode", "float"], 2,
       f"error: float mode does not support '{argv[0]}'; exact results only\n")
      for argv in (["verify"], ["enumerate"], ["cofactor-poly", "--from", "1", "--to", "2"])),
]


@pytest.mark.parametrize("argv, code, out", [case[1:] for case in CLI_CASES], ids=[case[0] for case in CLI_CASES])
def test_exit_code_and_bytes(capsys, graph_file, argv, code, out):
    assert main([argv[0], graph_file(argv[1]), *argv[2:]]) == code
    stdout, stderr = capsys.readouterr()
    if isinstance(out, dict):
        payload = json.loads(stdout)
        stdout = {key: payload[key] for key in out}
    assert (stdout, stderr) == ((out, "") if code == 0 else ("", out))


@pytest.mark.parametrize("name", ["small", "directed-parallel"])
@pytest.mark.parametrize("argv", [
    *([command, *flags, "--mode", mode, "--output", output] for command, flags in FLOAT_PAIR_FLAGS.items()
      for mode in ("exact", "float") for output in ("json", "tsv")),
    ["cofactor-poly", "--from", "1", "--to", "2"], ["cofactor-poly", "--from", "1", "--to", "2", "--signed"],
    ["enumerate"], ["verify"],
], ids=" ".join)
def test_every_command_runs(capsys, graph_file, name, argv):
    # an undirected file and a directed one with a negative weight and a parallel arc
    if "float" in argv:
        pytest.importorskip("numpy")
    assert main([argv[0], graph_file(name), *argv[1:]]) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == "" and stdout.endswith("\n")
    if "tsv" not in argv:
        assert json.loads(stdout)["command"] == argv[0]


@pytest.mark.parametrize("lam", ["1", "0", "1/3", "-2"])
@pytest.mark.parametrize("name", ["small", "directed-parallel"])
def test_det_and_forest_matrix_agree(capsys, graph_file, name, lam):
    # det and forest-matrix print one det W, each from forest_det on W's
    # integer rows summed from the arc list
    (code, det), (_, report) = (run_json(capsys, command, graph_file(name), f"--lambda={lam}")
                                for command in ("det", "forest-matrix"))
    assert code == 0 and det["detW"] == report["detW"]


@pytest.mark.parametrize("name", ["zero-pivot", "path", "halves-undirected", "halves-directed",
                                  "singular-undirected", "singular-directed"])
def test_verify_passes_every_check(capsys, graph_file, name):
    # signed weights whose submatrices of L and shifts of xI - L have zero
    # pivots, parallel halves, and a singular W, which skips only accessibility
    code, out = run_cli(capsys, "verify", graph_file(name), "--output", "tsv")
    states = dict(line.split("\t") for line in out.splitlines())
    assert code == 0 and len(states) == 12
    skipped = {"accessibility-matrix": "skip"} if name.startswith("singular") else {}
    assert {check: state for check, state in states.items() if state != "pass"} == skipped
