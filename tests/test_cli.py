import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mwns
from mwns.cli import main
from mwns.core import is_mwns
from mwns.instance_io import ParseError, format_instance, parse_instance


# a CLI subprocess imports the mwns these tests import, installed or not
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(mwns.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))

SIX_CYCLE = "p mwns 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\nt 3\nt 5\nk 1\n"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_basic_instance(self):
        inst = parse_instance("p mwns 3 2\ne 1 2\ne 2 3\nt 1\nt 3\nk 1\n")
        assert inst.graph.edges() == [(1, 2), (2, 3)]
        assert inst.terminals == frozenset({1, 3})
        assert inst.k == 1

    def test_duplicate_edge_reports_line(self):
        text = "p mwns 3 3\ne 1 2\ne 1 2\ne 2 3\nk 1\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert "line 3" in str(err.value)

    def test_duplicate_terminal_reports_line(self):
        text = "p mwns 3 2\ne 1 2\ne 2 3\nt 3\nt 3\nk 1\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert "line 5" in str(err.value) and "duplicate terminal 3" in str(err.value)

    def test_negative_budget(self):
        with pytest.raises(ParseError, match="budget must be >= 0"):
            parse_instance("p mwns 2 0\nk -1\n")

    @pytest.mark.parametrize("text, token", [("p mwns 1_0 1\ne 1 2\nk 1\n", "1_0"),
                                             ("p mwns \u0663 0\nk 0\n", "\u0663"),
                                             ("p mwns 2 0\nk +1\n", "+1"),
                                             ("p mwns 3 1\ne 1 \uff12\nk 0\n", "\uff12"),
                                             ("p mwns 3 0\nt 0_3\nk 0\n", "0_3")])
    def test_integers_are_ascii_digits(self, text, token):
        # `int` would read 1_0 as 10, the Arabic-Indic three as 3 and +1 as 1
        with pytest.raises(ParseError, match=re.escape(f"expected an integer, got {token!r}")):
            parse_instance(text)

    def test_negative_counts_keep_their_own_message(self):
        with pytest.raises(ParseError, match="vertex and edge counts must be >= 0"):
            parse_instance("p mwns -3 0\nk 0\n")

    def test_missing_header_and_budget(self):
        with pytest.raises(ParseError):
            parse_instance("e 1 2\n")
        with pytest.raises(ParseError):
            parse_instance("p mwns 2 0\n")

    def test_self_loop_and_range(self):
        with pytest.raises(ParseError):
            parse_instance("p mwns 2 1\ne 1 1\nk 0\n")
        with pytest.raises(ParseError):
            parse_instance("p mwns 2 1\ne 1 5\nk 0\n")
        with pytest.raises(ParseError):
            parse_instance("p mwns 2 0\nt 7\nk 0\n")

    def test_edge_count_must_match(self):
        with pytest.raises(ParseError):
            parse_instance("p mwns 3 2\ne 1 2\nk 0\n")

    def test_parse_format_round_trip(self):
        canonical = format_instance(parse_instance(SIX_CYCLE))
        assert format_instance(parse_instance(canonical)) == canonical
        assert parse_instance(canonical).graph == parse_instance(SIX_CYCLE).graph

    def test_comments_ignored(self):
        inst = parse_instance("# hi\np mwns 2 1 # inline\ne 1 2\nk 0\n")
        assert inst.graph.m == 1


class TestSubcommands:
    def test_solve_yes_and_verify(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        code, out, _ = run_cli(["solve", str(f)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        solution = [int(v) for v in lines[1].split()]
        code, out, _ = run_cli(["verify", str(f), "--solution", *map(str, solution)], capsys)
        assert code == 0 and out.strip() == "valid"

    def test_solve_no_exit_code(self, tmp_path, capsys):
        f = tmp_path / "no.txt"
        f.write_text(SIX_CYCLE.replace("k 1", "k 0"))
        code, out, _ = run_cli(["solve", str(f)], capsys)
        assert code == 1 and out.strip() == "NO"

    def test_solve_trace_prints_compression_lines(self, tmp_path, capsys, monkeypatch):
        # two terminal cycles sharing vertex 1: with a few crowded terminals
        # solve searches G once, from its crowded kernel, without compressing
        flower = ("p mwns 11 12\n"
                  + "".join(f"e {u} {v}\n" for u, v in
                            [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                             (1, 7), (7, 8), (8, 9), (9, 10), (10, 11), (1, 11)])
                  + "t 3\nt 5\nt 8\nt 10\nk 2\n")
        f = tmp_path / "flower.txt"
        f.write_text(flower)
        code, _, err = run_cli(["solve", str(f), "--trace"], capsys)
        assert code == 0
        [line] = err.splitlines()
        assert line.startswith("compress terminals=4 ") and line.endswith("reduction=kernel")
        assert all(f" {key}=" in line for key in ("budget", "nodes", "leaves"))
        # a bound of -1 runs the full pipeline in every step, blocker traces included
        import mwns.solver as solver_mod

        monkeypatch.setattr(solver_mod, "terminal_bound", lambda k, size: -1)
        code, _, err = run_cli(["solve", str(f), "--trace"], capsys)
        assert code == 0
        assert "blocker x=" in err and "iter=" in err
        assert err.count("reduction=full") == 2

    def test_solve_stats_lines(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        code, out, _ = run_cli(["solve", str(f), "--stats"], capsys)
        assert code == 0
        assert any(line.startswith("nodes=") for line in out.splitlines())
        assert any(line.startswith("leaves=") for line in out.splitlines())

    def test_verify_rejects_bad_solutions(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        assert run_cli(["verify", str(f), "--solution", "3"], capsys)[0] == 1
        assert run_cli(["verify", str(f), "--solution", "2", "4"], capsys)[0] == 1
        assert run_cli(["verify", str(f), "--solution"], capsys)[0] == 1

    def test_oracle(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        code, out, _ = run_cli(["oracle", str(f)], capsys)
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_approx_with_ratio_and_trace(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        code, out, err = run_cli(["approx", str(f), "--pivot", "1", "--ratio", "--trace"], capsys)
        assert code == 0
        s = [int(v) for v in out.splitlines()[0].split()]
        inst = parse_instance(SIX_CYCLE)
        assert is_mwns(inst.graph, inst.terminals, frozenset(s))
        assert "ratio=" in out
        assert "iter=0" in err

    def test_approx_invalid_pivot_is_an_error(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("p mwns 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 1\ne 4 5\nt 2\nt 4\nk 1\n")
        code, _, err = run_cli(["approx", str(f), "--pivot", "5"], capsys)
        assert code == 2 and "near-separator" in err

    @pytest.mark.parametrize("argv", [
        ["approx", "{f}", "--pivot", " 2"], ["approx", "{f}", "--pivot", "+2"],
        ["approx", "{f}", "--pivot", "٢"], ["important", "{f}", "--terminal", "+3"],
        ["important", "{f}", "--terminal", "3", "--budget", "1_0"],
        *(["gen", "random", "--n", "10", "--p", "0.3", "--terminals", "2", "--k", "1",
           "--seed", "1", flag, value]
          for flag, value in [("--n", "1_0"), ("--terminals", " 2"), ("--k", "+1"),
                              ("--seed", "１")])])
    def test_integer_options_are_ascii_digits(self, tmp_path, capsys, argv):
        # `int` would take each value; the options read integers as instance files do
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        argv = [tok.format(f=f) for tok in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        flag, value = argv[-2:]
        assert exit_info.value.code == 2
        assert f"argument {flag}: invalid integer value: {value!r}" in capsys.readouterr().err

    def test_reduce_lift_round_trip(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        logf = tmp_path / "c6.log"
        code, out, _ = run_cli(["reduce", str(f), "--log", str(logf)], capsys)
        assert code == 0
        reduced = parse_instance(out)
        assert reduced.terminals <= parse_instance(SIX_CYCLE).terminals
        code, out, _ = run_cli(["solve", str(f)], capsys)
        solution = [int(v) for v in out.splitlines()[1].split()]
        code, out, _ = run_cli(["lift", str(logf), "--solution", *map(str, solution)], capsys)
        assert code == 0
        lifted = frozenset(int(v) for v in out.split())
        inst = parse_instance(SIX_CYCLE)
        assert is_mwns(inst.graph, inst.terminals, lifted)
        code, _, _ = run_cli(["verify", str(f), "--solution", *map(str, sorted(lifted))], capsys)
        assert code == 0

    def _hub_log(self, tmp_path, capsys):
        # hub 1 on 16 five-vertex cycles 1-a-t-b-u, terminals t and u: with
        # k = 1 the hub is essential and the reduced graph drops it
        edges, terms = [], []
        for a in range(2, 66, 4):
            edges += [(1, a), (a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a + 3, 1)]
            terms += [a + 1, a + 3]
        f = tmp_path / "hub.txt"
        f.write_text(f"p mwns 65 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
                     + "".join(f"t {t}\n" for t in terms) + "k 1\n")
        sfile = tmp_path / "shat.txt"
        sfile.write_text("1\n")
        logf = tmp_path / "hub.log"
        code, _, _ = run_cli(["reduce", str(f), "--with-solution", str(sfile),
                              "--log", str(logf)], capsys)
        assert code == 0 and "essential x=1" in logf.read_text()
        return logf

    def test_lift_reads_a_log_with_an_essential_step(self, tmp_path, capsys):
        logf = self._hub_log(tmp_path, capsys)
        code, out, _ = run_cli(["lift", str(logf), "--solution"], capsys)
        assert code == 0 and out.split() == ["1"]

    def test_lift_rejects_vertices_outside_the_reduced_graph(self, tmp_path, capsys):
        logf = self._hub_log(tmp_path, capsys)
        code, out, err = run_cli(["lift", str(logf), "--solution", "1", "70"], capsys)
        assert code == 2 and out == ""
        assert "[1, 70]" in err and "reduced graph" in err

    @pytest.mark.parametrize("step, field", [("rr1 x=3", "t="), ("rr1 t=abc", "t=abc"),
                                             ("rr1 t=3 t=4", "t=4"), ("rr1 t=3 junk", "junk"),
                                             ("rr1 t=3 extra=9", "extra=9")])
    def test_lift_names_a_malformed_step(self, tmp_path, capsys, step, field):
        logf = tmp_path / "bad.log"
        logf.write_text(SIX_CYCLE + step + "\n")
        code, out, err = run_cli(["lift", str(logf), "--solution", "4"], capsys)
        assert code == 2 and out == ""
        assert repr(step) in err and field in err

    @pytest.mark.parametrize("step, message", [
        ("rr1 t=77", "'rr1 t=77' names vertices [77] outside its graph"),
        ("rr1 t=2", "'rr1 t=2' drops [2], which are not terminals"),
        ("essential x=3", "'essential x=3' marks the terminal 3 essential")])
    def test_lift_rejects_a_step_no_reduction_writes_under_python_O(self, tmp_path, step, message):
        # the replay's step checks are raises, so they hold under python -O too
        logf = tmp_path / "bad.log"
        logf.write_text(SIX_CYCLE + step + "\n")
        proc = subprocess.run([sys.executable, "-O", "-m", "mwns", "lift", str(logf), "--solution", "4"],
                              capture_output=True, text=True, timeout=60, env=ENV)
        assert proc.returncode == 2 and proc.stdout == "" and message in proc.stderr

    def test_reduce_with_provided_separator(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        sfile = tmp_path / "shat.txt"
        sfile.write_text("2 4\n")
        code, out, _ = run_cli(["reduce", str(f), "--with-solution", str(sfile)], capsys)
        assert code == 0
        assert parse_instance(out).k <= 1

    @pytest.mark.parametrize("command", ["verify", "lift"])
    def test_non_canonical_solution_vertex_is_an_error(self, tmp_path, capsys, command):
        # `int` would read +2 as vertex 2
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        code, out, err = run_cli([command, str(f), "--solution", "4", "+2"], capsys)
        assert code == 2 and out == ""
        assert "--solution: '+2' is not a vertex id" in err

    @pytest.mark.parametrize("command", ["verify", "lift"])
    def test_repeated_solution_vertex_is_an_error(self, tmp_path, capsys, command):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        code, out, err = run_cli([command, str(f), "--solution", "2", "2"], capsys)
        assert code == 2 and out == ""
        assert "vertex 2 is repeated in --solution" in err

    @pytest.mark.parametrize("text, message", [("2 2 4\n", "vertex 2 is repeated in"),
                                               ("2 x\n", "'x' is not a vertex id"),
                                               ("2 +4\n", "'+4' is not a vertex id"),
                                               ("1_0\n", "'1_0' is not a vertex id"),
                                               ("\u0664\n", "'\u0664' is not a vertex id")])
    def test_reduce_rejects_a_malformed_solution_file(self, tmp_path, capsys, text, message):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        sfile = tmp_path / "shat.txt"
        sfile.write_text(text)
        code, out, err = run_cli(["reduce", str(f), "--with-solution", str(sfile)], capsys)
        assert code == 2 and out == ""
        assert message in err and str(sfile) in err

    def test_reduce_rejects_a_solution_vertex_outside_the_graph(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        sfile = tmp_path / "shat.txt"
        sfile.write_text("4 99\n")
        code, out, err = run_cli(["reduce", str(f), "--with-solution", str(sfile)], capsys)
        assert code == 2 and out == ""
        assert "[99]" in err and "pivot" not in err

    def test_reduce_infeasible_budget_reports_no(self, tmp_path, capsys):
        f = tmp_path / "c6k0.txt"
        f.write_text(SIX_CYCLE.replace("k 1", "k 0"))
        sfile = tmp_path / "shat.txt"
        sfile.write_text("1\n")
        code, out, _ = run_cli(["reduce", str(f), "--with-solution", str(sfile)], capsys)
        assert code == 1
        assert "essential x=1" in out
        # output stays the original, equivalent instance
        assert parse_instance(out).graph == parse_instance(SIX_CYCLE).graph

    ADJACENT = "p mwns 3 2\ne 1 2\ne 2 3\nt 1\nt 2\nk 1\n"

    def test_reduce_adjacent_terminals_reports_no(self, tmp_path, capsys):
        # with every non-terminal deleted, the edge 1-2 still joins two
        # terminals: a certified NO, as solve answers
        f = tmp_path / "adj.txt"
        f.write_text(self.ADJACENT)
        code, out, _ = run_cli(["reduce", str(f)], capsys)
        assert code == 1 and "answer is NO: two terminals are adjacent" in out
        assert parse_instance(out) == parse_instance(self.ADJACENT)
        code, out, _ = run_cli(["solve", str(f)], capsys)
        assert code == 1 and out.split() == ["NO"]

    def test_reduce_rejects_a_provided_set_that_does_not_separate(self, tmp_path, capsys):
        f = tmp_path / "adj.txt"
        f.write_text(self.ADJACENT)
        sfile = tmp_path / "shat.txt"
        sfile.write_text("3\n")
        code, out, err = run_cli(["reduce", str(f), "--with-solution", str(sfile)], capsys)
        assert code == 2 and out == ""
        assert "not a multiway near-separator" in err

    def test_gen_random_deterministic(self, capsys):
        args = ["gen", "random", "--n", "9", "--p", "0.3", "--terminals", "3",
                "--k", "2", "--seed", "5"]
        out1 = run_cli(args, capsys)[1]
        out2 = run_cli(args, capsys)[1]
        assert out1 == out2
        inst = parse_instance(out1)
        assert len(inst.terminals) == 3 and inst.k == 2

    @pytest.mark.parametrize("p, message", [("-0.5", "outside [0, 1]"), ("1.7", "outside [0, 1]"),
                                            ("1", "no independent set")])
    def test_gen_random_rejects_an_impossible_probability(self, p, message):
        # in a subprocess with a timeout, so an endless resampling loop fails the test
        proc = subprocess.run([sys.executable, "-m", "mwns", "gen", "random", "--n", "5", "--p", p,
                               "--terminals", "2", "--k", "1", "--seed", "1"],
                              capture_output=True, text=True, timeout=60, env=ENV)
        assert proc.returncode == 2 and proc.stdout == "" and message in proc.stderr

    @pytest.mark.parametrize("terminals", ["0", "2"])
    def test_gen_random_rejects_a_negative_vertex_count(self, terminals, capsys):
        # the message names n, not the terminal count that n < 0 also breaks
        code, out, err = run_cli(["gen", "random", "--n", "-3", "--p", "0.3", "--terminals",
                                  terminals, "--k", "1", "--seed", "1"], capsys)
        assert code == 2 and out == ""
        assert "n=-3 is negative" in err and "terminal" not in err

    def test_gen_random_gives_up_on_a_near_complete_graph(self):
        # five vertices at p = 0.99 almost never leave three independent ones;
        # the resampling is bounded, so the CLI says so instead of running on
        proc = subprocess.run([sys.executable, "-m", "mwns", "gen", "random", "--n", "5", "--p",
                               "0.99", "--terminals", "3", "--k", "1", "--seed", "1"],
                              capture_output=True, text=True, timeout=60, env=ENV)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "no independent set of 3 terminals" in proc.stderr
        assert "n=5, p=0.99" in proc.stderr

    def test_gen_random_fails_fast_when_no_draw_is_likely_independent(self):
        # 20 000 draws at p = 0.995 expect 0.0025 independent triples: the
        # command refuses before drawing any of the 400-vertex graphs
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "mwns", "gen", "random", "--n", "400", "--p",
                               "0.995", "--terminals", "3", "--k", "1", "--seed", "1"],
                              capture_output=True, text=True, timeout=60, env=ENV)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "no independent set of 3 terminals is likely" in proc.stderr
        assert "n=400, p=0.995 (0.0025 expected)" in proc.stderr
        assert time.perf_counter() - start < 5

    def test_gen_random_complete_graph_without_independence(self, capsys):
        args = ["gen", "random", "--n", "5", "--p", "1", "--terminals", "2", "--k", "1",
                "--seed", "1", "--no-independent"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and parse_instance(out).graph.m == 10

    def test_gen_from_multiway_cut_adds_bridging_vertices(self, tmp_path, capsys):
        f = tmp_path / "src.txt"
        f.write_text("p mwns 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\nt 1\nt 3\nt 5\nk 1\n")
        code, out, _ = run_cli(["gen", "from-multiway-cut", str(f)], capsys)
        assert code == 0
        inst = parse_instance(out)
        assert max(inst.graph.vertices) == 7      # |T|-1 = 2 new vertices
        assert inst.graph.m == 8                  # 4 new edges
        assert inst.graph.neighbors(6) == frozenset({1, 3})
        assert inst.graph.neighbors(7) == frozenset({3, 5})

    def test_dot_outputs(self, tmp_path, capsys):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        code, out, _ = run_cli(["dot", str(f)], capsys)
        assert code == 0 and out.startswith("graph mwns {") and "1 -- 2;" in out
        code, out, _ = run_cli(["dot", str(f), "--bcf"], capsys)
        assert code == 0 and "shape=box" in out

    def test_important_separator_dump(self, tmp_path, capsys):
        f = tmp_path / "path.txt"
        f.write_text("p mwns 4 3\ne 1 2\ne 2 3\ne 3 4\nt 1\nt 4\nk 1\n")
        code, out, _ = run_cli(["important", str(f), "--terminal", "1"], capsys)
        assert code == 0
        assert out.splitlines() == ["3"]
        code, _, err = run_cli(["important", str(f), "--terminal", "2"], capsys)
        assert code == 2

    def test_important_rejects_a_negative_budget(self, tmp_path, capsys):
        f = tmp_path / "path.txt"
        f.write_text("p mwns 4 3\ne 1 2\ne 2 3\ne 3 4\nt 1\nt 4\nk 1\n")
        code, out, err = run_cli(["important", str(f), "--terminal", "1", "--budget", "-3"], capsys)
        assert code == 2 and out == "" and "--budget" in err

    def test_important_on_a_long_path(self, tmp_path, capsys):
        # no RecursionError: the branching depth is bounded by the budget
        n = 2000
        f = tmp_path / "path.txt"
        f.write_text(f"p mwns {n} {n - 1}\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, n))
                     + f"t 1\nt {n}\nk 0\n")
        code, out, err = run_cli(["important", str(f), "--terminal", "1"], capsys)
        assert (code, out.splitlines(), err) == (0, ["1999"], "")

    def test_missing_file_is_an_error(self, capsys):
        assert run_cli(["solve", "/nonexistent/file.txt"], capsys)[0] == 2

    def test_console_entry_point(self, tmp_path):
        f = tmp_path / "c6.txt"
        f.write_text(SIX_CYCLE)
        proc = subprocess.run([sys.executable, "-m", "mwns.cli", "solve", str(f)],
                              capture_output=True, text=True, env=ENV)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "YES"
