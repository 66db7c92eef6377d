import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

from chordal_lab.cli import main
from chordal_lab.counting import CountingContext
from chordal_lab.graphs import from_edge_list_text, is_chordal, max_clique_size, split_partition
from chordal_lab.sampling import ChordalSampler


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

    @pytest.mark.parametrize("argv, message", [
        ("count --n -1", "n must be nonnegative"),
        ("sample --n -1", "n must be nonnegative"),
        ("sample --n 0 --connected", "--connected requires n >= 1"),
        ("count --n 3 --omega 0", "omega must be at least 1"),
    ])
    def test_admission_errors(self, capsys, argv, message):
        assert run_cli(argv.split(), capsys) == (1, "", f"error: {message}\n")

    def test_connected_rejects_n0(self, capsys):
        code, _, err = run_cli(["count", "--n", "0", "--connected"], capsys)
        assert code == 1 and "n >= 1" in err

    @pytest.mark.parametrize("command", ["count", "sample", "tables"])
    def test_refuses_a_runaway_fill(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run_cli([command, "--n", "40"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and err.startswith("error:")
        assert "--allow-large" in err

    def test_bounded_color_budget_is_allowed(self, capsys):
        code, out, _ = run_cli(["count", "--n", "40", "--omega", "3"], capsys)
        assert code == 0
        assert out == f"{CountingContext(40, 3).count_all(40)}\n"

    @pytest.mark.parametrize("argv", [["count", "--n", "30"],
                                      ["count", "--n", "40", "--allow-large"]])
    def test_fill_starts(self, capsys, monkeypatch, argv):
        # stop each fill as it starts: only the admission is under test
        class FillStarted(Exception):
            pass

        def stop(self):
            raise FillStarted

        monkeypatch.setattr(CountingContext, "_fill", stop)
        with pytest.raises(FillStarted):
            main(argv)

    def test_count_only_fill_keeps_the_admission(self, capsys, monkeypatch):
        # count and tables fill their counts without keeping the tables; the
        # limit still refuses n = 40 at once and admits n = 30 into _fill
        for command in ("count", "tables"):
            start = time.perf_counter()
            code, out, err = run_cli([command, "--n", "40"], capsys)
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == "" and "--allow-large" in err

        class FillStarted(Exception):
            pass

        def stop(self):
            raise FillStarted

        monkeypatch.setattr(CountingContext, "_fill", stop)
        for argv in (["count", "--n", "30"], ["tables", "--n", "30", "--by-omega"]):
            with pytest.raises(FillStarted):
                main(argv)

    def test_output_is_pinned(self, capsys):
        code, out, _ = run_cli(["count", "--n", "20", "--connected"], capsys)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == "86b740ae6b2e01942c6bbfc4ea5be7b1818986c3"


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

    @pytest.mark.parametrize("argv, sha1", [
        ("--n 12 --count 20 --seed 3", "7e15cc3b0c13c65c6d4c782d0c7b8bd4cb89f64b"),
        ("--n 40 --omega 3 --count 50 --seed 5", "6b0abceb21adb3ace19fb4c0de460b245941f512"),
        ("--n 20 --connected --count 50 --seed 7", "a783b77321eb9807078900f1886db09b9d8e377f"),
    ])
    def test_output_is_pinned(self, capsys, argv, sha1):
        # Digests of the output before the sampler cached its weights; a
        # seeded draw must print the same bytes however the weights are found.
        code, out, _ = run_cli(["sample"] + argv.split(), capsys)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    def test_negative_count_is_an_error(self, capsys):
        code, out, err = run_cli(["sample", "--n", "5", "--count", "-2"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: count must be nonnegative\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "graphs.txt"
        code, out, _ = run_cli(
            ["sample", "--n", "3", "--count", "2", "--seed", "2", "--out", str(target)],
            capsys)
        assert code == 0 and out == ""
        assert len(target.read_text().split("\n\n")) == 2

    @pytest.mark.parametrize("argv", ["count --n 40", "approx-count --n 50 --epsilon 0.1"])
    def test_a_refused_command_leaves_the_out_file_as_it_was(self, tmp_path, capsys, argv):
        target = tmp_path / "counts.txt"
        target.write_bytes(b"precious")
        code, out, err = run_cli(argv.split() + ["--out", str(target)], capsys)
        assert (code, out) == (1, "") and err.startswith("error:")
        assert target.read_bytes() == b"precious"

    def test_a_command_that_writes_nothing_leaves_an_empty_out_file(self, tmp_path, capsys):
        target = tmp_path / "graphs.txt"
        target.write_bytes(b"old")
        assert run_cli(["sample", "--n", "3", "--count", "0", "--out", str(target)],
                       capsys) == (0, "", "")
        assert target.read_bytes() == b""

    @pytest.mark.parametrize("where", ["missing/counts.txt", "."])
    def test_an_out_path_that_cannot_be_opened_is_one_error_line(self, tmp_path, capsys, where):
        target = tmp_path / where  # a missing directory, then a directory
        code, out, err = run_cli(["count", "--n", "5", "--out", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


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

    def test_rejects_omega(self, capsys):
        # the rows fix omega themselves, so the flag would do nothing
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--n", "4", "--omega", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --omega 2" in capsys.readouterr().err

    def test_by_omega_output_is_pinned(self, capsys):
        code, out, _ = run_cli(["tables", "--n", "12", "--by-omega"], capsys)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == "8ca2e1755aba3e3704dac0a2ac1a87d187661549"


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

    def test_approx_count_at_3000_is_pinned(self, capsys):
        # ROADMAP's largest approx-count target: 678k digits.  Digest taken
        # before the window powers were evaluated by binomial expansion.
        code, out, _ = run_cli(["approx-count", "--n", "3000", "--epsilon", "1e-3"], capsys)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == "54dbb3a366b88a8ebe90acb08937b0ec0ce9ccb6"

    def test_approx_count_refuses_exact_fill_above_limit(self, capsys, monkeypatch):
        import chordal_lab.counting as counting

        def refuse(*args, **kwargs):
            raise AssertionError("an exact fill was started")

        monkeypatch.setattr(counting.CountingContext, "_fill", refuse)
        code, out, err = run_cli(["approx-count", "--n", "40", "--epsilon", "1e-2"], capsys)
        assert code == 1 and out == "" and err.startswith("error:")
        assert "count_all(40)" in err

    def test_a_tiny_epsilon_is_refused_fast(self, capsys):
        # The floor here is 2,185,442; its ceilings take a few exact
        # comparisons, not one big multiplication per unit of the floor.
        start = time.perf_counter()
        code, out, err = run_cli(["approx-count", "--n", "100", "--epsilon", "1e-100000"],
                                 capsys)
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert "below the split-graph floor 2185442" in err

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

    def test_approx_sample_below_the_floor_builds_one_sampler(self, capsys, monkeypatch):
        built = []
        init = ChordalSampler.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChordalSampler, "__init__", counted)
        code, out, _ = run_cli(["approx-sample", "--n", "12", "--epsilon", "1e-2",
                                "--count", "20", "--seed", "5"], capsys)
        assert code == 0
        assert len(built) == 1
        # the same bytes as when every draw built its own sampler
        assert hashlib.sha1(out.encode()).hexdigest() == "93a2e298d4ba5315b43fc48dcf075d6234e317f9"

    @pytest.mark.parametrize("fmt, sha1", [
        ("edge-list", "974067bc51ccac89d5a524b32dc004fb39b26877"),
        ("json", "d1066ba88a24e69f73019ae8eb1b0b1b9ea9f633"),
    ])
    def test_approx_sample_output_is_pinned(self, capsys, fmt, sha1):
        # Digests of the output before the split sampler built its graphs
        # per vertex; the draws and the printed bytes must not change.
        code, out, _ = run_cli(["approx-sample", "--n", "200", "--epsilon", "1e-3",
                                "--count", "2", "--seed", "9", "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    def test_benchmark_sized_output_is_pinned(self, capsys):
        # The split workload's size: n = 1000, two draws.  Digest taken before
        # the split sampler read its graphs from one biadjacency matrix.
        code, out, _ = run_cli(["approx-sample", "--n", "1000", "--epsilon", "1e-3",
                                "--count", "2", "--seed", "11"], capsys)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == "4bad529f7c3f1b4590df3775727d7790b7bdd17e"

    def test_approx_sample_negative_count_is_an_error(self, capsys):
        code, out, err = run_cli(["approx-sample", "--n", "200", "--epsilon", "1e-2",
                                  "--count", "-2"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: count must be nonnegative\n"

    @pytest.mark.parametrize("command", ["approx-count", "approx-sample"])
    def test_approx_negative_n_is_an_error(self, capsys, command):
        code, out, err = run_cli([command, "--n", "-3", "--epsilon", "1e-2"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: n must be nonnegative\n"


def test_library_and_cli_run_without_the_oracle_dependencies():
    # numpy and scipy are test extras: only the brute-force oracle uses them
    script = (
        "import runpy, sys\n"
        "import chordal_lab\n"
        "sys.argv = ['chordal-lab', 'count', '--n', '5']\n"
        "try:\n"
        "    runpy.run_module('chordal_lab.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "822\n[]\n"


class TestOutputFailures:
    """A reader that leaves early, or a full device, ends a run without a traceback."""

    SAMPLES = ["sample", "--n", "12", "--count", "3000", "--seed", "1"]  # about 0.5 MB

    @staticmethod
    def popen(argv, **kwargs):
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.Popen([sys.executable, "-m", "chordal_lab.cli", *argv],
                                env={**os.environ, "PYTHONPATH": path},
                                stderr=subprocess.PIPE, **kwargs)

    def test_a_closed_pipe_ends_quietly(self):
        proc = self.popen(self.SAMPLES, stdout=subprocess.PIPE)
        head = proc.stdout.read(20)
        proc.stdout.close()  # the output is far larger than a pipe holds
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
        assert len(head) == 20
        assert b"Traceback" not in err and b"Exception ignored" not in err
        assert (code, err) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [SAMPLES, ["count", "--n", "5"]], ids=["sample", "count"])
    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
    def test_a_full_device_is_one_error_line(self, argv, to_stdout):
        with open("/dev/full", "w") as full:
            if to_stdout:
                proc = self.popen(argv, stdout=full)
            else:
                proc = self.popen(argv + ["--out", "/dev/full"], stdout=subprocess.PIPE)
            _, err = proc.communicate(timeout=60)
        target = "stdout" if to_stdout else "/dev/full"
        lines = err.decode().splitlines()
        assert proc.returncode == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {target}: "), lines
