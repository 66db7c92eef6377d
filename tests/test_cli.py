import json
import re

from chordal_lab.cli import main
from chordal_lab.graphs import from_edge_list_text, is_chordal, max_clique_size, split_partition


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_connected_table1_value(self, capsys):
        code, out, _ = run_cli(["count", "--n", "5", "--connected"], capsys)
        assert code == 0 and out == "541\n"

    def test_empty_vertex_set(self, capsys):
        code, out, _ = run_cli(["count", "--n", "0"], capsys)
        assert code == 0 and out == "1\n"

    def test_color_budget(self, capsys):
        code, out, _ = run_cli(["count", "--n", "6", "--omega", "3", "--connected"], capsys)
        assert code == 0 and out == "9831\n"

    def test_output_is_plain_decimal(self, capsys):
        code, out, _ = run_cli(["count", "--n", "12", "--connected"], capsys)
        assert code == 0
        assert re.fullmatch(r"\d+\n", out)
        assert out.strip() == "4818917841228328"

    def test_omega_above_n_clamped(self, capsys):
        code, out, _ = run_cli(["count", "--n", "4", "--omega", "99"], capsys)
        assert code == 0 and out == "61\n"

    def test_bad_omega(self, capsys):
        code, _, err = run_cli(["count", "--n", "3", "--omega", "0"], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_connected_rejects_n0(self, capsys):
        code, _, err = run_cli(["count", "--n", "0", "--connected"], capsys)
        assert code == 1 and "n >= 1" in err


class TestSample:
    def test_edge_list_records(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--n", "4", "--count", "3", "--seed", "11"], capsys)
        assert code == 0
        records = out.split("\n\n")
        assert len(records) == 3
        for rec in records:
            g = from_edge_list_text(rec)
            assert g.n == 4 and is_chordal(g)

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--n", "5", "--omega", "2", "--connected",
             "--count", "4", "--seed", "3", "--format", "json"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        for ln in lines:
            obj = json.loads(ln)
            assert obj["n"] == 5
            assert obj["vertices"] == [1, 2, 3, 4, 5]
            assert obj["edges"] == sorted(obj["edges"])
            assert len(obj["edges"]) == 4  # spanning tree

    def test_single_vertex_samples(self, capsys):
        code, out, _ = run_cli(["sample", "--n", "1", "--count", "3"], capsys)
        assert code == 0
        assert out == "1 0\n\n1 0\n\n1 0\n"

    def test_seed_determinism(self, capsys):
        args = ["sample", "--n", "6", "--omega", "3", "--count", "5", "--seed", "7"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_omega_constraint_respected(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--n", "6", "--omega", "2", "--count", "10", "--seed", "1"], capsys)
        assert code == 0
        for rec in out.split("\n\n"):
            assert max_clique_size(from_edge_list_text(rec)) <= 2

    def test_impossible_connected_class(self, capsys):
        code, _, err = run_cli(
            ["sample", "--n", "3", "--omega", "1", "--connected"], capsys)
        assert code == 1 and "colorable" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "graphs.txt"
        code, out, _ = run_cli(
            ["sample", "--n", "3", "--count", "2", "--seed", "2", "--out", str(target)],
            capsys)
        assert code == 0 and out == ""
        assert len(target.read_text().split("\n\n")) == 2


class TestTables:
    def test_default_diagonal(self, capsys):
        code, out, _ = run_cli(["tables", "--n", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,omega,connected_count,all_count"
        assert lines[1] == "1,1,1,1"
        assert lines[5] == "5,5,541,822"

    def test_by_omega_grid(self, capsys):
        code, out, _ = run_cli(["tables", "--n", "4", "--by-omega"], capsys)
        assert code == 0
        rows = {}
        for ln in out.strip().split("\n")[1:]:
            n, omega, conn, total = (int(t) for t in ln.split(","))
            rows[(n, omega)] = (conn, total)
        assert rows[(4, 2)][0] == 16
        assert rows[(4, 4)] == (35, 61)
        assert rows[(3, 2)][0] == 3

    def test_single_row(self, capsys):
        code, out, _ = run_cli(["tables", "--n", "1"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1] == "1,1,1,1"

    def test_rejects_n0(self, capsys):
        code, _, err = run_cli(["tables", "--n", "0"], capsys)
        assert code == 1 and "n >= 1" in err


class TestApprox:
    def test_approx_count_delegates_small(self, capsys):
        code, out, _ = run_cli(["approx-count", "--n", "10", "--epsilon", "1e-3"], capsys)
        assert code == 0
        _, exact, _ = run_cli(["count", "--n", "10"], capsys)
        assert out == exact

    def test_approx_count_large(self, capsys):
        code, out, _ = run_cli(["approx-count", "--n", "150", "--epsilon", "1e-4"], capsys)
        assert code == 0
        assert re.fullmatch(r"\d+\n", out)

    def test_approx_count_refuses_exact_fill_above_limit(self, capsys, monkeypatch):
        import chordal_lab.counting as counting

        def refuse(*args, **kwargs):
            raise AssertionError("an exact fill was started")

        monkeypatch.setattr(counting, "get_context", refuse)
        code, out, err = run_cli(["approx-count", "--n", "40", "--epsilon", "1e-2"], capsys)
        assert code == 1 and out == "" and err.startswith("error:")
        assert "count_all(40)" in err

    def test_epsilon_validation(self, capsys):
        for bad in ("0", "1", "1.5", "-0.2"):
            code, _, err = run_cli(["approx-count", "--n", "80", "--epsilon", bad], capsys)
            assert code == 1 and err.startswith("error:")

    def test_huge_decimal_output(self, capsys):
        # counts quickly exceed the interpreter's default str-digit guard
        code, out, _ = run_cli(["approx-count", "--n", "300", "--epsilon", "1e-4"], capsys)
        assert code == 0
        assert re.fullmatch(r"\d+\n", out)
        assert len(out) > 5000

    def test_approx_sample_outputs_split_graphs(self, capsys):
        code, out, _ = run_cli(
            ["approx-sample", "--n", "120", "--epsilon", "1e-2",
             "--count", "2", "--seed", "9"], capsys)
        assert code == 0
        for rec in out.split("\n\n"):
            g = from_edge_list_text(rec)
            assert split_partition(g) is not None

    def test_approx_sample_determinism(self, capsys):
        args = ["approx-sample", "--n", "120", "--epsilon", "1e-2",
                "--count", "2", "--seed", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
