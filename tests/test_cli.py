"""Graph-file parsing, CLI behavior, exit codes and output determinism."""

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
    format_graph,
    parse_graph,
)
from forestmatrix.cli import main
from helpers import POSITIVE_POOL, random_multidigraph, random_multigraph

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

    def test_round_trip_fixed(self):
        text = "graph directed 3\n1 2 1/3\n1 2 2/3\n3 1 -2\n"
        g = parse_graph(text)
        assert parse_graph(format_graph(g)) == g

    def test_round_trip_random(self):
        rng = random.Random(200)
        for _ in range(20):
            g = random_multigraph(rng)
            assert parse_graph(format_graph(g)) == g
            dg = random_multidigraph(rng)
            assert parse_graph(format_graph(dg)) == dg


@pytest.fixture
def edge_file(tmp_path):
    p = tmp_path / "edge.graph"
    p.write_text("graph undirected 2\n1 2 1\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def arc_file(tmp_path):
    p = tmp_path / "arc.graph"
    p.write_text("graph directed 2\n1 2 1\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.graph"
    p.write_text("graph undirected 3\n1 2 1\n2 3 1\n1 3 1\n", encoding="utf-8")
    return str(p)


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

    def test_verify_all_pass(self, capsys, k3_file):
        code, payload = run_json(capsys, "verify", k3_file)
        assert code == 0
        report = payload["report"]
        assert report["all_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert len(names) == 12 and len(set(names)) == 12
        assert all(c["passed"] for c in report["checks"])

    def test_verify_skips_accessibility_when_singular(self, capsys, tmp_path):
        p = tmp_path / "singular.graph"
        p.write_text("graph undirected 2\n1 2 -1/2\n", encoding="utf-8")
        code, payload = run_json(capsys, "verify", str(p))
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

    def test_validation_error_is_2(self, capsys, tmp_path):
        p = tmp_path / "loop.graph"
        p.write_text("graph undirected 2\n1 1 1\n", encoding="utf-8")
        assert run_cli(capsys, "det", str(p))[0] == 2

    def test_bad_lambda_is_2(self, capsys, edge_file):
        assert run_cli(capsys, "det", edge_file, "--lambda", "nope")[0] == 2

    def test_float_mode_on_verify_is_2(self, capsys, k3_file):
        assert run_cli(capsys, "verify", k3_file, "--mode", "float")[0] == 2

    def test_singular_is_3(self, capsys, tmp_path):
        p = tmp_path / "singular.graph"
        p.write_text("graph undirected 2\n1 2 -1/2\n", encoding="utf-8")
        assert run_cli(capsys, "accessibility", str(p))[0] == 3

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

        monkeypatch.setattr(forestmatrix.cli, "enum_rooted_forests", no_enumeration)
        monkeypatch.setattr(forestmatrix.cli, "run_all_checks", no_enumeration)
        assert main([command, k3_file, "--max-enum", "40"]) == 4
        assert "ceiling of 24" in capsys.readouterr().err

    def test_max_enum_at_ceiling_is_accepted(self, capsys, k3_file):
        assert run_cli(capsys, "verify", k3_file, "--max-enum", "24")[0] == 0

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
    p.write_text(format_graph(graph), encoding="utf-8")
    return str(p)


class TestFloatMode:
    def rel_close(self, a, b, tol=1e-9):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    def test_matrix_outputs_agree_with_exact(self, capsys, tmp_path):
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
        rng = random.Random(302)
        dg = random_multidigraph(rng, n_min=20, n_max=20, max_arcs=60, pool=POSITIVE_POOL)
        path = write_graph(tmp_path, dg)
        _, exact = run_json(capsys, "accessibility", path)
        _, approx = run_json(capsys, "accessibility", path, "--mode", "float")
        for row_e, row_f in zip(exact["matrix"], approx["matrix"]):
            for e, f in zip(row_e, row_f):
                assert self.rel_close(float(Fraction(e)), f)

    def test_float_cofactor(self, capsys, tmp_path, unit_k3):
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
        # det W is about 5e611 and the end-to-end cofactor 100**299, far beyond binary64
        path = tmp_path / "path.graph"
        lines = [f"{v} {v + 1} 100" for v in range(1, 300)]
        path.write_text("graph undirected 300\n" + "\n".join(lines) + "\n", encoding="utf-8")
        code = main([argv[0], str(path), *argv[1:], "--mode", "float", "--output", output])
        captured = capsys.readouterr()
        assert code == 6
        assert captured.out == ""
        assert "--mode exact" in captured.err


def test_exact_cli_import_leaves_numpy_unloaded():
    src = str(Path(forestmatrix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, forestmatrix.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
