"""Command line behavior: exit codes, output contracts, determinism."""

import json
import os
import subprocess
import sys

import pytest

from mge import cli, masking
from mge.cli import main
from mge.linalg import SolveOutcome


@pytest.fixture()
def sys_file(tmp_path):
    def write(obj, name="system.json"):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_FRESH_LEAKCHECKS = (
    "import contextlib, io, json, sys\n"
    "from mge.cli import main\n"
    "runs = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), "
    "contextlib.redirect_stderr(err):\n"
    "        code = main(['leakcheck', *argv])\n"
    "    runs.append([code, out.getvalue(), err.getvalue(),\n"
    "                 'mge.probelab' in sys.modules])\n"
    "print(json.dumps(runs))\n")


def fresh_leakchecks(argvs):
    """(exit code, stdout, stderr, probelab imported) of each leakcheck
    argv, run in turn by one fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_LEAKCHECKS, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestSolve:
    def test_identity_system(self, capsys, sys_file):
        path = sys_file({
            "q": 16, "m": 3,
            "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "b": [1, 2, 3],
        })
        code, out, _ = run(capsys, "solve", "--in", path)
        assert code == 0
        assert json.loads(out) == [1, 2, 3]

    def test_zero_matrix_is_singular_exit_2(self, capsys, sys_file):
        path = sys_file({"q": 16, "m": 2, "A": [[0, 0], [0, 0]],
                         "b": [1, 2]})
        code, out, _ = run(capsys, "solve", "--in", path)
        assert code == 2
        assert out.strip() == "singular"

    def test_unmasked_agrees(self, capsys, sys_file):
        path = sys_file({"q": 256, "m": 2, "A": [[3, 1], [1, 1]],
                         "b": [9, 2]})
        code, masked, _ = run(capsys, "solve", "--in", path)
        code2, plain, _ = run(capsys, "solve", "--in", path, "--unmasked")
        assert code == code2 == 0
        assert masked == plain

    def test_compare_single(self, capsys, sys_file):
        path = sys_file({"q": 16, "m": 2, "A": [[1, 2], [3, 4]],
                         "b": [5, 6]})
        code, out, _ = run(capsys, "solve", "--in", path, "--compare")
        assert code == 0
        assert out.strip() == "MATCH 1/1"

    def test_compare_random_hundred(self, capsys):
        code, out, _ = run(capsys, "solve", "--random", "--count", "100",
                           "--q", "16", "--m", "4", "--compare")
        assert code == 0
        assert out.strip() == "MATCH 100/100"

    @pytest.mark.parametrize("mode", [(), ("--compare",)])
    def test_batch_systems_draw_different_tapes(self, capsys, monkeypatch,
                                                mode):
        first_draws = []
        real = cli.masked_solve

        def spy(ctx, sysm):
            probe = masking.SeededTape(ctx.rng._state)
            first_draws.append(tuple(probe.draw(8) for _ in range(8)))
            return real(ctx, sysm)

        monkeypatch.setattr(cli, "masked_solve", spy)
        run(capsys, "solve", "--random", "--count", "3", "--m", "3", *mode)
        assert len(first_draws) == 3
        assert len(set(first_draws)) == 3

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "solve", "--in", str(p))
        assert code == 1 and err

    def test_missing_key_exit_1(self, capsys, sys_file):
        path = sys_file({"q": 16, "A": [[1]], "b": [1]})
        code, _, err = run(capsys, "solve", "--in", path)
        assert code == 1 and "m" in err

    def test_bad_q_exit_1(self, capsys, sys_file):
        for q in (15, 512, 1):
            path = sys_file({"q": q, "m": 1, "A": [[1]], "b": [1]},
                            name=f"q{q}.json")
            code, _, err = run(capsys, "solve", "--in", path)
            assert code == 1, q

    @pytest.mark.parametrize("obj, named", [
        (5, "object"),
        ({"q": 16, "m": 1, "A": [5], "b": [1]}, "A[0]"),
        ({"q": 16, "m": 1, "A": [[1]], "b": 1}, "rhs b"),
        ({"q": 16, "m": 1, "A": [["x"]], "b": [1]}, "'x'"),
        ({"q": 16.0, "m": 1, "A": [[1]], "b": [1]}, "q must"),
        ({"q": 16, "m": 1, "A": [[True]], "b": [1]}, "True"),
    ], ids=["not-an-object", "row-not-a-list", "rhs-not-a-list",
            "string-entry", "float-q", "bool-entry"])
    def test_malformed_system_is_a_usage_error(self, capsys, sys_file, obj,
                                               named):
        code, out, err = run(capsys, "solve", "--in", sys_file(obj))
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("error: ") and named in err

    def test_shape_mismatch_exit_1(self, capsys, sys_file):
        path = sys_file({"q": 16, "m": 2, "A": [[1, 2]], "b": [1, 2]})
        code, _, _ = run(capsys, "solve", "--in", path)
        assert code == 1

    def test_no_input_exit_1(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 1 and "--in" in err

    def test_random_and_in_together_is_a_usage_error(self, capsys, sys_file,
                                                     monkeypatch):
        # --random used to be ignored when --in was given
        def no_solve(*args, **kwargs):
            raise AssertionError("read or solved a system")

        for name in ("_parse_system", "masked_solve", "gaussian_elimination"):
            monkeypatch.setattr(cli, name, no_solve)
        path = sys_file({"q": 16, "m": 1, "A": [[1]], "b": [1]})
        code, out, err = run(capsys, "solve", "--random", "--in", path)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("usage: mge solve")
        assert "not allowed with" in err

    def test_zero_count_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "solve", "--random", "--count", "0")
        assert code == cli.EXIT_USAGE
        assert out == "" and "--count" in err

    def test_negative_count_compare_is_a_usage_error(self, capsys):
        # an empty batch used to report MATCH 0/0 and exit 0
        code, out, err = run(capsys, "solve", "--random", "--count", "-2",
                             "--compare")
        assert code == cli.EXIT_USAGE
        assert out == "" and "--count" in err

    @pytest.mark.parametrize("argv", [
        ("--random", "--count", "200000", "--m", "6", "--shares", "1"),
        ("--random", "--compare", "--shares", "1"),
        ("--in", "FILE", "--shares", "0")])
    def test_shares_below_two_is_refused_before_any_system(
            self, capsys, monkeypatch, sys_file, argv):
        # a --random batch used to be generated in full before this failed
        def no_system(*args, **kwargs):
            raise AssertionError("read or built a system before --shares "
                                 "was checked")

        monkeypatch.setattr(cli, "random_system", no_system)
        monkeypatch.setattr(cli, "_parse_system", no_system)
        path = sys_file({"q": 16, "m": 1, "A": [[1]], "b": [1]})
        code, out, err = run(capsys, "solve", *(path if a == "FILE" else a
                                                for a in argv))
        assert code == cli.EXIT_USAGE and out == ""
        assert err == f"error: need at least 2 shares, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ("solve", "--random", "--m", "-2"),
    ("solve", "--random", "--m", "0"),
    ("solve", "--m", "-2"),
    ("leakcheck", "--pipeline", "solve", "--m", "-2"),
    ("leakcheck", "--pipeline", "solve", "--mode", "statistical", "--m", "x"),
])
def test_m_below_one_is_a_usage_error(capsys, monkeypatch, argv):
    # a non-positive --m used to reach LinearSystem and report "empty system"
    from mge import probelab

    def no_system(*args, **kwargs):
        raise AssertionError("built a system before --m was checked")

    monkeypatch.setattr(cli, "random_system", no_system)
    monkeypatch.setattr(probelab, "random_system", no_system)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith(f"usage: mge {argv[0]}")
    assert "argument --m: expected an integer >= 1" in err


class TestCostTable:
    def test_uov_order_2_has_four_rows(self, capsys):
        code, out, _ = run(capsys, "cost-table", "--schemes", "uov",
                           "--orders", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("scheme,")
        assert len(lines) == 5
        assert all(l.split(",")[4] == "2" for l in lines[1:])

    def test_full_table_93_rows(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        code, out, _ = run(capsys, "cost-table", "--schemes", "all",
                           "--out", str(dest))
        assert code == 0
        assert len(dest.read_text().strip().splitlines()) == 94

    def test_verify_reports_the_three_known_cells_exit_3(self, capsys):
        code, out, _ = run(capsys, "cost-table", "--verify")
        assert code == 3
        mismatches = [l for l in out.splitlines() if "MISMATCH" in l]
        assert len(mismatches) == 3
        assert all("snova-iii-m100" in l and "rand" in l for l in mismatches)
        assert all("known snapshot inconsistency" in l for l in mismatches)

    def test_verify_subset_without_deviant_rows_exits_0(self, capsys):
        code, out, _ = run(capsys, "cost-table", "--schemes", "uov,mayo",
                           "--verify")
        assert code == 0
        assert "MISMATCH" not in out

    def test_unknown_scheme_exit_1(self, capsys):
        code, _, err = run(capsys, "cost-table", "--schemes", "kyber")
        assert code == 1 and "kyber" in err

    @pytest.mark.parametrize("orders", [",", "2,2", "1", "3,1"])
    def test_orders_not_distinct_counts_of_two_or_more_exit_1(self, capsys,
                                                              orders):
        # "," printed a header-only CSV, "2,2" every row twice
        code, out, err = run(capsys, "cost-table", "--orders", orders,
                             "--verify")
        assert code == cli.EXIT_USAGE
        assert out == "" and "--orders" in err

    def test_label_selection(self, capsys):
        code, out, _ = run(capsys, "cost-table", "--schemes", "mayo-i",
                           "--orders", "2,3")
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestLeakcheck:
    def test_clean_gadget_exit_0(self, capsys):
        code, out, _ = run(capsys, "leakcheck", "--gadget", "refresh",
                           "--mode", "exhaustive")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["pass"] is True
        assert report["target"] == "refresh"

    def test_gadget_name_accepts_squashed_form(self, capsys):
        # over GF(4): criterion 5 runs the GF(16) check of this gadget
        code, out, _ = run(capsys, "leakcheck", "--gadget", "seccondadd",
                           "--w", "2")
        assert code == 0
        assert json.loads(out)["target"] == "sec_cond_add"

    def test_broken_gadget_exit_4(self, capsys):
        code, out, _ = run(capsys, "leakcheck", "--gadget", "refresh-broken")
        assert code == 4
        report = json.loads(out)
        assert report["summary"]["failed"] >= 1

    def test_json_file_output(self, capsys, tmp_path):
        dest = tmp_path / "verdicts.json"
        code, out, _ = run(capsys, "leakcheck", "--gadget", "b2m",
                           "--json", str(dest))
        assert code == 0
        report = json.loads(dest.read_text())
        assert all(set(v) == {"point_id", "mode", "statistic", "samples",
                              "pass"} for v in report["verdicts"])

    def test_statistical_gadget_mode(self, capsys):
        code, out, _ = run(capsys, "leakcheck", "--gadget", "strong-refresh",
                           "--mode", "statistical", "--samples", "2000")
        assert code == 0
        assert json.loads(out)["mode"] == "statistical"

    def test_pipeline_solve_small(self, capsys):
        code, out, _ = run(capsys, "leakcheck", "--pipeline", "solve",
                           "--m", "2", "--samples", "600")
        assert code == 0
        assert json.loads(out)["summary"]["pass"] is True

    def test_pipeline_unmasked_fails_exit_4(self, capsys):
        code, out, _ = run(capsys, "leakcheck", "--pipeline",
                           "solve-unmasked", "--m", "2", "--samples", "600")
        assert code == 4

    def test_pipeline_in_exhaustive_mode_is_a_usage_error(self, capsys,
                                                          monkeypatch):
        # a pipeline check is a statistical campaign; the requested mode
        # used to be dropped in favour of one
        from mge import probelab

        def no_probing(*args, **kwargs):
            raise AssertionError("probed")

        for name in ("statistical_fixed_vs_random", "exhaustive_first_order"):
            monkeypatch.setattr(probelab, name, no_probing)
        code, out, err = run(capsys, "leakcheck", "--pipeline", "solve",
                             "--mode", "exhaustive")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "--mode" in err

    @pytest.mark.parametrize("target, mode", [
        (("--gadget", "refresh", "--w", "2"), "exhaustive"),
        (("--pipeline", "solve", "--m", "2", "--samples", "40"),
         "statistical")])
    def test_mode_defaults_to_the_targets_own(self, capsys, target, mode):
        code, out, _ = run(capsys, "leakcheck", *target)
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == mode
        assert {v["mode"] for v in report["verdicts"]} == {mode}

    @pytest.mark.parametrize("target", [
        ("--gadget", "refresh", "--mode", "statistical"),
        ("--pipeline", "solve", "--m", "2")])
    @pytest.mark.parametrize("samples", ["1", "2", "3"])
    def test_statistical_samples_below_four_exit_1(self, capsys, target,
                                                   samples):
        # one trace per class has no sample variance to test against
        code, out, err = run(capsys, "leakcheck", *target,
                             "--samples", samples)
        assert code == 1
        assert out == ""
        assert "--samples must be at least 4" in err

    @pytest.mark.parametrize("threshold", ["-1", "0", "nan", "inf"])
    def test_threshold_not_finite_and_positive_exit_1(self, capsys,
                                                      threshold):
        # at or below 0 every point of a sound gadget used to leak
        code, out, err = run(capsys, "leakcheck", "--gadget", "refresh",
                             "--mode", "statistical", "--samples", "10",
                             "--threshold", threshold)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "--threshold must be a finite number above 0" in err

    def test_flag_the_check_never_reads_is_a_usage_error(self):
        # each used to run its check and exit 0; one fresh interpreter
        # also shows the refusal comes before probelab is imported
        cases = [("--samples", ["--gadget", "sec_mult", "--samples", "10"]),
                 ("--threshold", ["--gadget", "refresh", "--mode",
                                  "exhaustive", "--threshold", "2"]),
                 ("--m", ["--gadget", "refresh", "--mode", "statistical",
                          "--m", "9"])]
        for (flag, argv), (code, out, err, imported) in zip(
                cases, fresh_leakchecks([argv for _, argv in cases])):
            assert code == cli.EXIT_USAGE, argv
            assert out == "", argv
            assert err.startswith(flag), argv
            assert not imported, argv

    def test_value_out_of_range_is_refused_before_probelab_loads(self):
        # each used to import probelab, and numpy, before it exited 1
        refresh = ["--gadget", "refresh"]
        statistical = [*refresh, "--mode", "statistical"]
        cases = [([*refresh, "--shares", "1"],
                  "error: need at least 2 shares, got 1\n"),
                 ([*refresh, "--w", "0"],
                  "error: w must be an int in 1..8, got 0\n"),
                 ([*statistical, "--threshold", "0"],
                  "--threshold must be a finite number above 0, got 0.0\n"),
                 ([*statistical, "--samples", "2"],
                  "--samples must be at least 4, got 2\n")]
        for (argv, message), (code, out, err, imported) in zip(
                cases, fresh_leakchecks([argv for argv, _ in cases])):
            assert code == cli.EXIT_USAGE, argv
            assert (out, err) == ("", message), argv
            assert not imported, argv

    def test_unknown_gadget_exit_1(self, capsys):
        code, _, err = run(capsys, "leakcheck", "--gadget", "nope")
        assert code == 1

    def test_missing_target_exit_1(self, capsys):
        code, _, err = run(capsys, "leakcheck")
        assert code == 1

    def test_gadget_and_pipeline_together_is_a_usage_error(self, capsys,
                                                           monkeypatch):
        # --gadget used to be ignored when --pipeline was given
        from mge import probelab

        def no_probe(*args, **kwargs):
            raise AssertionError("probed before the flags were checked")

        for name in ("exhaustive_first_order", "statistical_fixed_vs_random"):
            monkeypatch.setattr(probelab, name, no_probe)
        code, out, err = run(capsys, "leakcheck", "--gadget", "refresh",
                             "--pipeline", "solve")
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("usage: mge leakcheck")
        assert "not allowed with" in err


class TestBench:
    def test_reports_counters_and_ratio(self, capsys):
        code, out, _ = run(capsys, "bench", "--param", "uov-ip",
                           "--shares", "2,3", "--iters", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("param uov-ip:")
        assert "ops_total=" in lines[1] and "ratio=" in lines[1]
        ops = [int(l.split("ops_total=")[1].split()[0]) for l in lines[1:]]
        assert ops[1] > ops[0]

    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_iters_below_one_is_a_usage_error(self, capsys, iters):
        # an empty timing list used to fail with "no median for empty data"
        code, out, err = run(capsys, "bench", "--param", "uov-ip",
                             "--iters", iters)
        assert code == cli.EXIT_USAGE
        assert out == "" and "--iters" in err

    @pytest.mark.parametrize("shares", ["1", "2,0"])
    def test_shares_below_two_is_a_usage_error(self, capsys, monkeypatch,
                                               shares):
        # checked before the header and before any reference solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the share counts were checked")

        monkeypatch.setattr(cli, "gaussian_elimination", no_solve)
        code, out, err = run(capsys, "bench", "--param", "uov-ip",
                             "--shares", shares, "--iters", "1")
        assert code == cli.EXIT_USAGE
        assert out == "" and "--shares" in err

    def test_repeated_share_count_is_a_usage_error(self, capsys,
                                                   monkeypatch):
        # "2,2" ran the n = 2 solves twice and exited 0
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the share counts were checked")

        monkeypatch.setattr(cli, "gaussian_elimination", no_solve)
        code, out, err = run(capsys, "bench", "--param", "uov-ip",
                             "--shares", "2,2", "--iters", "1")
        assert code == cli.EXIT_USAGE
        assert out == "" and "--shares" in err and "distinct" in err

    def test_every_solve_draws_its_own_masks(self, capsys, monkeypatch):
        # seeding by iteration reused iteration i's stream at every n
        starts = []

        def recorded(ctx, sysm, _fn=cli.masked_solve):
            starts.append(ctx.rng._state)
            return _fn(ctx, sysm)

        monkeypatch.setattr(cli, "masked_solve", recorded)
        code, _, _ = run(capsys, "bench", "--param", "mayo-i", "--shares",
                         "2,3", "--iters", "2", "--no-timing")
        assert code == 0
        assert len(starts) == 4 and len(set(starts)) == 4

    def test_share_counts_run_in_ascending_order(self, capsys):
        # "3,2" printed n = 3 first and warned that ops fell with n
        code, out, err = run(capsys, "bench", "--param", "uov-ip",
                             "--shares", "3,2", "--iters", "1", "--no-timing")
        assert code == 0 and err == ""
        assert [l.split()[0] for l in out.splitlines()[1:]] == ["n=2", "n=3"]

    def test_one_iteration_solves_once_per_path(self, capsys, monkeypatch):
        calls = []
        for name in ("gaussian_elimination", "masked_solve"):
            def counted(*args, _fn=getattr(cli, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(cli, name, counted)
        code, out, _ = run(capsys, "bench", "--param", "uov-ip",
                           "--shares", "2,3", "--iters", "1", "--no-timing")
        assert code == 0
        assert out.splitlines()[0].endswith("iters=1")
        assert calls == ["gaussian_elimination", "masked_solve",
                         "masked_solve"]

    def test_masked_abort_is_a_typed_error_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "masked_solve", lambda ctx, sysm: (
            SolveOutcome(None, singular=True, fail_index=3)))
        code, _, err = run(capsys, "bench", "--param", "mayo-i",
                           "--iters", "1", "--no-timing")
        assert code == cli.EXIT_USAGE
        assert "masked n=2 solve aborted at column 3" in err

    def test_unknown_preset_exit_1(self, capsys):
        code, _, err = run(capsys, "bench", "--param", "rainbow-i")
        assert code == 1 and "rainbow-i" in err

    def test_no_timing_output_is_deterministic(self, capsys):
        argv = ["bench", "--param", "mayo-i", "--shares", "2",
                "--iters", "1", "--no-timing", "--seed", "5"]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "ms=" not in out_a


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "11/11 suites passed"
        assert sum(1 for l in lines if l.startswith("suite ")) >= 8
        assert any(l.startswith("suite packed-path        ok ")
                   for l in lines)

    def test_exhaustive_gf_suite(self, capsys):
        # every product of GF(16) and GF(256): 256 + 65536
        code, out, _ = run(capsys, "selftest", "--suite", "gf")
        assert code == 0
        assert "65792 products cross-checked" in out
        code, _, err = run(capsys, "selftest", "--exhaustive")
        assert code == 1 and "--exhaustive" in err

    def test_suite_subset(self, capsys):
        code, out, _ = run(capsys, "selftest", "--suite",
                           "cost-anchors,probe-shape")
        assert code == 0
        assert "2/2 suites passed" in out

    def test_unknown_suite_exit_1(self, capsys):
        code, _, err = run(capsys, "selftest", "--suite", "astrology")
        assert code == 1

    @pytest.mark.parametrize("suites", [",", "", " , "])
    def test_empty_suite_selection_exit_1(self, capsys, suites):
        # an empty selection used to run all eleven suites and exit 0
        code, out, err = run(capsys, "selftest", "--suite", suites)
        assert code == 1
        assert out == ""
        assert "--suite" in err

    def test_failing_suite_names_itself_exit_5(self, capsys, monkeypatch):
        broken = (("gf", lambda cfg: (False, "seeded failure")),)
        monkeypatch.setattr(cli, "_SUITES", broken + cli._SUITES[1:])
        code, out, _ = run(capsys, "selftest", "--suite", "gf")
        assert code == 5
        assert "suite gf" in out and "FAIL" in out and "seeded failure" in out


class TestUnreadFlags:
    # each used to exit 0 with the output of the run without the flag
    @pytest.mark.parametrize("argv, flag", [
        (("solve", "--in", "FILE", "--count", "5"), "--count"),
        (("solve", "--in", "FILE", "--q", "256"), "--q"),
        (("solve", "--in", "FILE", "--m", "9"), "--m"),
        (("solve", "--random", "--compare", "--unmasked"), "--unmasked"),
        (("solve", "--random", "--unmasked", "--shares", "3"), "--shares"),
        (("solve", "--in", "FILE", "--unmasked", "--seed", "5"), "--seed"),
        (("cost-table", "--seed", "5"), "--seed"),
        (("leakcheck", "--gadget", "refresh", "--w", "2", "--seed", "9"),
         "--seed"),
        (("--seed", "5", "leakcheck", "--gadget", "refresh"), "--seed"),
        (("leakcheck", "--gadget", "refresh", "--seed", "0"), "--seed"),
        (("solve", "--in", "FILE", "--q", "0"), "--q"),
        (("leakcheck", "--pipeline", "solve-unmasked", "--shares", "3",
          "--samples", "20"), "--shares"),
        (("selftest", "--suite", "table", "--seed", "5"), "--seed"),
        (("--seed", "5", "selftest", "--suite", "gf,cost-anchors"), "--seed"),
    ], ids=["in-count", "in-q", "in-m", "compare-unmasked",
            "unmasked-shares", "in-unmasked-seed", "cost-table-seed",
            "exhaustive-seed", "exhaustive-seed-first", "seed-zero",
            "in-q-zero", "unmasked-pipeline-shares", "seedless-suite-seed",
            "seedless-suites-seed-first"])
    def test_flag_the_run_never_reads_is_a_usage_error(
            self, capsys, monkeypatch, sys_file, argv, flag):
        from mge import probelab

        def no_work(*args, **kwargs):
            raise AssertionError("worked before the flags were checked")

        for name in ("_parse_system", "random_system", "masked_solve",
                     "gaussian_elimination"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(cli.cm, "cost_table", no_work)
        for name in ("exhaustive_first_order", "statistical_fixed_vs_random"):
            monkeypatch.setattr(probelab, name, no_work)
        path = sys_file({"q": 16, "m": 1, "A": [[1]], "b": [1]})
        code, out, err = run(capsys, *(path if a == "FILE" else a
                                       for a in argv))
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"{flag} has no effect on")

    def test_env_seed_is_accepted_where_no_seed_is_read(self, capsys,
                                                        monkeypatch,
                                                        sys_file):
        # a malformed MGE_SEED used to fail each of these with exit 1
        path = sys_file({"q": 16, "m": 1, "A": [[1]], "b": [1]})
        for argv in (("leakcheck", "--gadget", "refresh", "--w", "2"),
                     ("cost-table", "--schemes", "mayo-i"),
                     ("solve", "--in", path, "--unmasked"),
                     ("selftest", "--suite", "cost-anchors,table")):
            code, plain, _ = run(capsys, *argv)
            for env in ("9", "abc"):
                monkeypatch.setenv("MGE_SEED", env)
                code_env, with_env, err = run(capsys, *argv)
                monkeypatch.delenv("MGE_SEED")
                assert code == code_env == 0, (argv, env)
                assert with_env == plain and err == "", (argv, env)

    def test_unset_flags_take_their_defaults(self, capsys):
        _, given, _ = run(capsys, "solve", "--random", "--count", "100",
                          "--q", "16", "--m", "4", "--shares", "2")
        _, default, _ = run(capsys, "solve", "--random")
        assert default == given and len(default.splitlines()) == 100
        code, out, _ = run(capsys, "solve", "--random", "--unmasked",
                           "--count", "3", "--seed", "4")
        assert code in (0, 2) and len(out.splitlines()) == 3


class TestDeterminismAndSeed:
    def test_same_seed_same_bytes(self, capsys):
        argv = ["solve", "--random", "--count", "6", "--q", "256",
                "--m", "3", "--seed", "77"]
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert out_a == out_b

    def test_seed_changes_output(self, capsys):
        base = ["solve", "--random", "--count", "6", "--q", "256", "--m", "3"]
        _, out_a, _ = run(capsys, *base, "--seed", "77")
        _, out_b, _ = run(capsys, *base, "--seed", "78")
        assert out_a != out_b

    def test_env_seed_fallback(self, capsys, monkeypatch):
        base = ["solve", "--random", "--count", "4", "--q", "16", "--m", "3"]
        monkeypatch.setenv("MGE_SEED", "1234")
        _, out_env, _ = run(capsys, *base)
        monkeypatch.delenv("MGE_SEED")
        _, out_flag, _ = run(capsys, *base, "--seed", "1234")
        assert out_env == out_flag

    def test_flag_overrides_env(self, capsys, monkeypatch):
        base = ["solve", "--random", "--count", "4", "--q", "16", "--m", "3"]
        monkeypatch.setenv("MGE_SEED", "1234")
        _, out_a, _ = run(capsys, *base, "--seed", "9")
        monkeypatch.delenv("MGE_SEED")
        _, out_b, _ = run(capsys, *base, "--seed", "9")
        assert out_a == out_b

    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch,
                                           sys_file):
        monkeypatch.setenv("MGE_SEED", "abc")
        code, out, err = run(capsys, "selftest")
        assert code == 1 and out == ""
        assert err == "error: MGE_SEED must be an integer, got 'abc'\n"
        # so does every other run that reads a seed
        path = sys_file({"q": 16, "m": 1, "A": [[1]], "b": [1]})
        for argv in (("solve", "--in", path),
                     ("solve", "--random", "--unmasked", "--count", "1"),
                     ("leakcheck", "--gadget", "refresh", "--mode",
                      "statistical", "--samples", "4")):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err == "error: MGE_SEED must be an integer, got 'abc'\n"

    def test_seed_position_is_flexible(self, capsys):
        _, out_a, _ = run(capsys, "--seed", "31", "solve", "--random",
                          "--count", "3", "--q", "16", "--m", "2")
        _, out_b, _ = run(capsys, "solve", "--random", "--count", "3",
                          "--q", "16", "--m", "2", "--seed", "31")
        assert out_a == out_b


class TestUsageErrors:
    # argparse exits 2, which this CLI keeps for a singular system
    @pytest.mark.parametrize("argv, named", [
        (("bench",), "--param"),
        (("--seed", "abc", "selftest"), "--seed"),
        (("frobnicate",), "frobnicate"),
        (("leakcheck", "--mode", "foo"), "--mode"),
        (("leakcheck", "--pipeline", "foo"), "--pipeline"),
    ], ids=["bench-no-param", "bad-seed", "unknown-command", "bad-mode",
            "bad-pipeline"])
    def test_rejected_command_line_exits_1(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("usage: mge")
        assert "error: " in err and named in err

    @pytest.mark.parametrize("argv", [
        ("--seed", "abc", "selftest"),
        ("selftest", "--seed", "abc"),
        ("cost-table", "--orders", "x"),
    ], ids=["seed-first", "seed-after", "orders"])
    def test_non_integer_message_says_an_integer_is_expected(self, capsys,
                                                             argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE and out == ""
        assert "integer" in err
        assert "<lambda>" not in err and "_int_list" not in err

    @pytest.mark.parametrize("argv", [("--help",), ("bench", "--help")])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mge")
