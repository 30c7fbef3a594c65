import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

import autoheat
from autoheat import cli, verify
from autoheat.config import RunConfig, build_config, parse_config_file

EVAL_HEADER = "t,x,y,value,cusp_part,residual_part,eisenstein_part,tail_estimate\n"

# Exact stdout and exit code of each command, pinned from cold runs.  Every
# printed digit is part of the output contract: a deliberate change of one
# must update its pin here and cite in CHANGES.md the finer reference that
# the new digit is closer to.
GOLDEN = {
    "eval --t 1 --x 0.25 --y 1.3": (0, EVAL_HEADER + (
        "1.000000000000e+00,2.500000000000e-01,1.300000000000e+00,1.132857050437e+00,"
        "-5.086330730036e-83,9.549296585514e-01,1.779273918860e-01,2.299483751037e-64\n")),
    "eval --t 1 --x 0 --y 1": (0, EVAL_HEADER + (
        "1.000000000000e+00,0.000000000000e+00,1.000000000000e+00,1.141831834228e+00,"
        "3.775745018363e-82,9.549296585514e-01,1.869021756770e-01,5.083479741967e-64\n")),
    "eval --t 1 --x 0 --y 1 --format json": (0, (
        '{"t": 1.0, "x": 0.0, "y": 1.0, "value": 1.141831834228, '
        '"cusp_part": 3.775745018363e-82, "residual_part": 0.9549296585514, '
        '"eisenstein_part": 0.186902175677, "tail_estimate": 5.083479741967e-64}\n')),
    "eval --t 8 --x 0 --y 1": (0, EVAL_HEADER + (
        "8.000000000000e+00,0.000000000000e+00,1.000000000000e+00,9.589554237282e-01,"
        "0.000000000000e+00,9.549296585514e-01,4.025765176866e-03,0.000000000000e+00\n")),
    "eval --t 0.4 --x 0 --y 1 --r-max 1.5 --panels 1 --nodes-per-panel 8": (2, EVAL_HEADER + (
        "4.000000000000e-01,0.000000000000e+00,1.000000000000e+00,1.276889513046e+00,"
        "1.320844706826e-32,9.549296585514e-01,3.219598544942e-01,2.375537962734e-01\n")),
    "profile --t-list 1,0.5,0.1": (0, (
        "t,gap,s0,s4,s8\n"
        "1.000000000000e+00,2.751641897158e-01,1.016597274802e+00,1.429789475705e+00,"
        "9.585117729127e+00\n"
        "5.000000000000e-01,2.133058158928e-01,1.068565315846e+00,3.277917556270e+00,"
        "1.021597002136e+02\n"
        "1.000000000000e-01,1.060531902354e-01,1.298657521013e+00,7.456537362014e+01,"
        "1.424703023814e+05\n")),
    "profile --t-list 1,0.5,0.1 --format json": (0, (
        '[{"t": 1.0, "gap": 0.2751641897158, "s0": 1.016597274802, "s4": 1.429789475705, '
        '"s8": 9.585117729127}, {"t": 0.5, "gap": 0.2133058158928, "s0": 1.068565315846, '
        '"s4": 3.27791755627, "s8": 102.1597002136}, {"t": 0.1, "gap": 0.1060531902354, '
        '"s0": 1.298657521013, "s4": 74.56537362014, "s8": 142470.3023814}]\n')),
    "verify oracle --norm-bound 160": (0, (
        "check                                              measured        bound status\n"
        "oracle agreement t=0.5 z=0.0+1.0i (B=160)      3.194996e-15    1.000e-03 pass\n"
        "oracle agreement t=0.5 z=0.0+2.0i (B=160)      4.335609e-15    1.000e-03 pass\n"
        "oracle agreement t=0.5 z=0.25+1.3i (B=160)     2.061382e-15    1.000e-03 pass\n"
        "oracle agreement t=1.0 z=0.0+1.0i (B=160)      4.250972e-13    1.000e-03 pass\n"
        "oracle agreement t=1.0 z=0.0+2.0i (B=160)      1.036410e-11    1.000e-03 pass\n"
        "oracle agreement t=1.0 z=0.25+1.3i (B=160)     8.865265e-13    1.000e-03 pass\n"
        "oracle agreement t=2.0 z=0.0+1.0i (B=160)      2.642562e-08    1.000e-03 pass\n"
        "oracle agreement t=2.0 z=0.0+2.0i (B=160)      2.631467e-07    1.000e-03 pass\n"
        "oracle agreement t=2.0 z=0.25+1.3i (B=160)     4.223893e-08    1.000e-03 pass\n"
        "9/9 checks passed\n")),
    "verify all": (0, (
        "check                                              measured        bound status\n"
        "weight duality (1-lam)^s (1-lam)^-s = 1        2.220446e-16    1.000e-14 pass\n"
        "smoothing-shift isometry (100 random f)        2.184998e-16    1.000e-12 pass\n"
        "smoothing-shift inverse roundtrip              1.313364e-16    1.000e-13 pass\n"
        "generator symmetry <Mf,g>_s = <f,Mg>_s         4.092790e-16    1.000e-13 pass\n"
        "generator negativity <Mf,f>_s <= 0            -5.837585e-02    1.000e-13 pass\n"
        "resolvent bound ||(M-C)^-1 f|| <= ||f||/C     -1.555045e-03    1.000e-13 pass\n"
        "resolvent bound C ||(M-C)^-1 f|| / ||f|| <= 1  -1.863261e-03    1.000e-13 pass\n"
        "resolvent roundtrip (M-C)(M-C)^-1 = id         2.700033e-16    1.000e-13 pass\n"
        "scale nesting ||f||_{s-1} <= ||f||_s          -1.087425e-02    1.000e-13 pass\n"
        "pairing Cauchy-Schwarz across dual indices    -6.695419e-01    1.000e-13 pass\n"
        "identity at t=0                                0.000000e+00    0.000e+00 pass\n"
        "semigroup law G(.3)G(.7) = G(1)                1.858457e-16    1.000e-13 pass\n"
        "contraction ||G(t)f||_s <= ||f||_s            -9.195902e-04    1.000e-13 pass\n"
        "strong continuity: gap strictly decreasing    -5.490290e-04    0.000e+00 pass\n"
        "strong continuity: gap(1e-5)/gap(1e-1)         9.670721e-04    1.000e-03 pass\n"
        "laplace transform of G matches resolvent (C=1)   1.362273e-04    2.000e-02 pass\n"
        "t=0 heat data equals delta data                0.000000e+00    0.000e+00 pass\n"
        "time-difference residual order ratio           4.000072e+00    4.500e+00 pass\n"
        "residual(h=1e-3) vs generator image            2.111381e-07    1.000e-05 pass\n"
        "initial-condition gap strictly decreasing     -5.947219e-03    0.000e+00 pass\n"
        "gap(t) <= t ||M delta||                        9.869501e-01    1.000e+00 pass\n"
        "gap(1e-4) / gap(1)                             2.709990e-03    1.000e-02 pass\n"
        "uniqueness: evolved gap <= initial gap        -5.782193e-03    1.000e-13 pass\n"
        "euler-vs-exact first-order ratio               2.000327e+00    2.200e+00 pass\n"
        "oracle agreement t=0.5 z=0.0+1.0i (B=25)       5.802929e-10    1.000e-03 pass\n"
        "oracle agreement t=0.5 z=0.0+2.0i (B=25)       2.770669e-09    1.000e-03 pass\n"
        "oracle agreement t=0.5 z=0.25+1.3i (B=25)      1.255919e-09    1.000e-03 pass\n"
        "oracle agreement t=1.0 z=0.0+1.0i (B=25)       7.876227e-06    1.000e-03 pass\n"
        "oracle agreement t=1.0 z=0.0+2.0i (B=25)       1.056579e-05    1.000e-03 pass\n"
        "oracle agreement t=1.0 z=0.25+1.3i (B=25)      9.453980e-06    1.000e-03 pass\n"
        "oracle agreement t=2.0 z=0.0+1.0i (B=25)       5.175975e-04    1.000e-03 pass\n"
        "oracle agreement t=2.0 z=0.0+2.0i (B=25)       4.909643e-04    1.000e-03 pass\n"
        "oracle agreement t=2.0 z=0.25+1.3i (B=25)      5.315098e-04    1.000e-03 pass\n"
        "33/33 checks passed\n")),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow or NaN on the way
@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output(command, grid, capsys):
    code = cli.main(command.split())
    assert (code, capsys.readouterr().out) == GOLDEN[command]


def test_cold_eval_loads_no_scipy():
    # the cold path needs numpy and the standard library only, and building
    # the default grid on it raises no RuntimeWarning (the session grid of
    # the golden pins is built outside their warning filter)
    script = ("import sys\n"
              "from autoheat import cli\n"
              "code = cli.main(['eval', '--t', '1', '--x', '0.25', '--y', '1.3'])\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
              "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(autoheat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("AUTOHEAT_DATA", None)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


GRID_FLAGS = {"--r-max", "--panels", "--nodes-per-panel"}
CONFIG_FLAGS = {"--config", "--data"}

# The option strings of each subcommand (positional suite as "suite"): each
# flag exists where its setting is read, and nowhere else.
PARSER_CONTRACT = {
    "eval": {"--t", "--x", "--y", "--format"} | GRID_FLAGS | CONFIG_FLAGS,
    "verify": {"suite", "--norm-bound"} | GRID_FLAGS | CONFIG_FLAGS,
    "profile": {"--t-list", "--s-list", "--format"} | GRID_FLAGS | CONFIG_FLAGS,
    "ingest-check": CONFIG_FLAGS,
}


def test_parser_contract():
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {}
    for name, p in sub.choices.items():
        got[name] = {opt for a in p._actions if not isinstance(a, argparse._HelpAction)
                     for opt in (a.option_strings or [a.dest])}
    assert got == PARSER_CONTRACT


@pytest.mark.parametrize("argv", [
    "eval --t 1 --x 0 --y 1 --norm-bound -5",
    "profile --t-list 1 --norm-bound 160",
    "verify oracle --format json",
    "verify heat --suite heat",
    "ingest-check --r-max 10",
    "ingest-check --panels 3",
    "ingest-check --nodes-per-panel 8",
    "ingest-check --norm-bound 160",
    "ingest-check --format json",
])
def test_removed_flags_are_usage_errors(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "grid_for_config", lambda cfg: pytest.fail("grid built"))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


class TestEval:
    def test_long_time_record(self, grid, capsys):
        code = cli.main(["eval", "--t", "8", "--x", "0", "--y", "1"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "t,x,y,value,cusp_part,residual_part,eisenstein_part,tail_estimate"
        value = float(out[1].split(",")[3])
        assert abs(value - 0.95493) < 2e-2

    def test_huge_time_warns_nothing(self, grid, capsys):
        # lambda t overflows to -inf past t ~ 2.6e305: every damped entry is
        # 0, with no numpy warning, so the run also passes with warnings as
        # errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", "--t", "1e308", "--x", "0", "--y", "1"]) == 0
        assert capsys.readouterr() == (EVAL_HEADER + (
            "1.000000000000e+308,0.000000000000e+00,1.000000000000e+00,9.549296585514e-01,"
            "0.000000000000e+00,9.549296585514e-01,0.000000000000e+00,0.000000000000e+00\n"), "")

    def test_time_zero_is_a_runtime_error(self, capsys):
        assert cli.main(["eval", "--t", "0", "--x", "0", "--y", "1"]) == 1
        assert "t > 0" in capsys.readouterr().err

    def test_lower_half_plane_is_a_usage_error(self, capsys):
        assert cli.main(["eval", "--t", "1", "--x", "0", "--y", "-1"]) == 64

    def test_non_finite_inputs_refused_before_the_grid(self, monkeypatch, capsys):
        # t as t <= 0 (runtime error), x and y as y <= 0 (usage error)
        monkeypatch.setattr(cli, "grid_for_config", lambda cfg: pytest.fail("grid built"))
        assert cli.main(["eval", "--t", "inf", "--x", "0", "--y", "1"]) == 1
        assert cli.main(["eval", "--t", "1", "--x", "0", "--y", "inf"]) == 64
        assert cli.main(["eval", "--t", "1", "--x", "nan", "--y", "1"]) == 64
        assert cli.main(["eval", "--t", "1", "--x", "inf", "--y", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 4

    def test_missing_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--t", "1", "--x", "0"])
        assert exc.value.code == 64

    def test_deterministic_output(self, grid, capsys):
        cli.main(["eval", "--t", "1", "--x", "0.25", "--y", "1.3"])
        first = capsys.readouterr().out
        cli.main(["eval", "--t", "1", "--x", "0.25", "--y", "1.3"])
        second = capsys.readouterr().out
        assert first == second

    def test_tail_warning_exit_code(self, capsys):
        # a deliberately short spectral cutoff leaves a visible tail at small t
        code = cli.main(["eval", "--t", "0.4", "--x", "0", "--y", "1",
                         "--r-max", "1.5", "--panels", "1",
                         "--nodes-per-panel", "8"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        ("--r-max inf", "r_max must be positive and finite, got inf"),
        ("--nodes-per-panel 0", "nodes_per_panel must be at least 1, got 0"),
        ("--panels 100000", "100000 panels of 32 nodes make 3200000 Eisenstein nodes, "
                            "over the limit NODES_MAX = 2048"),
        ("--nodes-per-panel 5000", "5 panels of 5000 nodes make 25000 Eisenstein nodes, "
                                   "over the limit NODES_MAX = 2048"),
        ("--r-max 60", "r_max=60 puts the top Eisenstein node at r = 59.9836, past r = 50, "
                       "where xi(1 + 2ir) is computed"),
    ])
    def test_bad_grid_parameters_named(self, flags, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            code = cli.main(["eval", "--t", "1", "--x", "0", "--y", "1"] + flags.split())
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_tiny_height_answers_as_its_inversion(self, grid, capsys):
        # z = 1e-300 i reduces to 1e300 i: the same record as there, bar y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = cli.main(["eval", "--t", "1", "--x", "0", "--y", "1e-300"])
        tiny_out = capsys.readouterr().out.splitlines()[1].split(",")
        high = cli.main(["eval", "--t", "1", "--x", "0", "--y", "1e300"])
        high_out = capsys.readouterr().out.splitlines()[1].split(",")
        assert tiny == high == 2
        assert tiny_out[:2] + tiny_out[3:] == high_out[:2] + high_out[3:]

    @pytest.mark.parametrize("x, y", [("0.41421356237309515", "1e-300"), ("0.123456789", "1e-20")])
    def test_reduction_rounding_warns(self, grid, x, y, capsys):
        # the reduction's own rounding may move these points by eps |z0| / y in
        # distance (0.19 to 0.92 measured at 1e-20): a record with exit 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["eval", "--t", "1", "--x", x, "--y", y])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "" and captured.out.startswith(EVAL_HEADER)

    def test_overflowing_inversion_named(self, capsys):
        # 1e-310 i inverts to a height beyond the float range
        assert cli.main(["eval", "--t", "1", "--x", "0", "--y", "1e-310"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "inverted point overflows" in captured.err
        assert "y = inf" not in captured.err

    def test_non_positive_value_warns(self, grid, capsys):
        # the kernel is positive; high in the cusp the quadrature leaves -2e-13
        code = cli.main(["eval", "--t", "1", "--x", "0", "--y", "1e6"])
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
        assert value <= 0.0 and code == 2

    def test_cancelled_value_warns(self, grid, capsys):
        # high in the cusp the parts' rounding exceeds the tolerance against
        # the value: exit 2, and the record prints as before
        assert cli.main(["eval", "--t", "1", "--x", "0", "--y", "1e4"]) == 2
        assert capsys.readouterr().out == EVAL_HEADER + (
            "1.000000000000e+00,0.000000000000e+00,1.000000000000e+04,2.777671348486e-08,"
            "0.000000000000e+00,9.549296585514e-01,-9.549296307747e-01,8.000631800194e-63\n")

    @pytest.mark.parametrize("t, x, y, value", [
        ("0.5", "0", "1e12", "3.842123905695e-07"),
        ("2", "0", "1e15", "1.217071148908e+00"),
        ("2", "0.25", "1e20", "3.425015108850e+06")])
    def test_unresolved_eisenstein_phase_warns(self, grid, t, x, y, value, capsys):
        # the true kernel is below 1e-100 here; the printed value is the
        # panels' error in the constant terms' phase r log y, which turns by
        # 66 rad or more a panel: the record prints as before, with exit 2
        code = cli.main(["eval", "--t", t, "--x", x, "--y", y])
        assert code == 2 and capsys.readouterr().out.splitlines()[1].split(",")[3] == value

    @pytest.mark.parametrize("y, code", [("6e5", 0), ("6.3e5", 2)])
    def test_eisenstein_phase_threshold(self, grid, y, code, capsys):
        # r_max log y against the 160 nodes: 159.6 at 6e5, 160.2 at 6.3e5
        assert cli.main(["eval", "--t", "8", "--x", "0", "--y", y]) == code
        capsys.readouterr()

    def test_json_mirrors_csv_fields(self, grid, capsys):
        cli.main(["eval", "--t", "1", "--x", "0", "--y", "1"])
        csv_out = capsys.readouterr().out.strip().splitlines()
        cli.main(["eval", "--t", "1", "--x", "0", "--y", "1", "--format", "json"])
        js = json.loads(capsys.readouterr().out)
        keys = csv_out[0].split(",")
        vals = [float(tok) for tok in csv_out[1].split(",")]
        assert list(js.keys()) == keys
        for k, v in zip(keys, vals):
            assert js[k] == v


class TestVerify:
    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsuite"])
        assert exc.value.code == 64
        assert "invalid choice: 'nonsuite'" in capsys.readouterr().err

    def test_conflicting_suites_rejected(self, capsys):
        # the suite is positional only; a second one is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "heat", "--suite", "sobolev"])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "heat", "sobolev"])
        assert exc.value.code == 64

    def test_run_suite_refuses_an_unknown_name(self, monkeypatch):
        monkeypatch.setattr(verify, "grid_for_config", lambda cfg: pytest.fail("grid built"))
        with pytest.raises(ValueError) as exc:
            verify.run_suite("nosuch", RunConfig())
        assert str(exc.value) == ("unknown suite 'nosuch' "
                                  "(choose from sobolev, semigroup, heat, oracle, all)")

    def test_sobolev_suite_passes(self, grid, capsys):
        code = cli.main(["verify", "sobolev"])
        out = capsys.readouterr().out
        assert code == 0
        assert "smoothing-shift isometry" in out
        assert "FAIL" not in out

    def test_semigroup_suite_passes(self, grid, capsys):
        code = cli.main(["verify", "semigroup"])
        out = capsys.readouterr().out
        assert code == 0
        assert "semigroup law" in out

    def test_oversized_orbit_is_one_error_line(self, grid, capsys):
        # refused before any orbit array is allocated, not a MemoryError
        assert cli.main(["verify", "oracle", "--norm-bound", "1e5"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: norm bound 100000 ")
        assert "ORBIT_MAX" in err[0]


class TestProfile:
    def test_header_contract_and_monotone_gap(self, grid, capsys):
        code = cli.main(["profile", "--t-list", "1,0.5,0.1"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "t,gap,s0,s4,s8"
        gaps = [float(line.split(",")[1]) for line in out[1:]]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_short_time_row_matches_a_fine_grid(self, grid, capsys):
        # gap, s0, s4, s8 at t = 0.1 from 24 uniform panels of 32 nodes on
        # [0, 12]; 15 x 40 and 40 x 24 node grids agree with them to ~1e-15
        reference = (1.0605319037491999e-01, 1.2986575210127806e+00,
                     7.456537362011372e+01, 1.4247030232776678e+05)
        assert cli.main(["profile", "--t-list", "0.1"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        for got, want in zip(map(float, row.split(",")[1:]), reference):
            assert abs(got - want) <= 1e-7 * want

    def test_empty_time_list_is_usage_error(self, capsys):
        assert cli.main(["profile", "--t-list", ""]) == 64

    def test_non_monotone_list_rejected(self, capsys):
        assert cli.main(["profile", "--t-list", "1,0.1,0.5"]) == 64

    def test_non_finite_times_are_usage_errors(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "grid_for_config", lambda cfg: pytest.fail("grid built"))
        for t_list in ("nan", "1,nan", "inf", "0.5,1,inf", "-1"):
            assert cli.main(["profile", "--t-list", t_list]) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "finite and positive" in captured.err

    @pytest.mark.parametrize("argv, message", [
        ("--t-list 1,a", "error: --t-list must be comma-separated numbers\n"),
        ("--t-list 1 --s-list 0,x", "error: --s-list must be comma-separated integers\n")])
    def test_unparsed_lists_are_usage_errors(self, argv, message, monkeypatch, capsys):
        monkeypatch.setattr(cli, "grid_for_config", lambda cfg: pytest.fail("grid built"))
        assert cli.main(["profile", *argv.split()]) == 64
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_index_is_usage_error(self, monkeypatch, capsys, fmt):
        # a JSON row is a dict, which would keep one of two s0 columns
        monkeypatch.setattr(cli, "grid_for_config", lambda cfg: pytest.fail("grid built"))
        assert cli.main(["profile", "--t-list", "1", "--s-list", "0,4,0", "--format", fmt]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "distinct" in captured.err

    def test_overflowing_index_refused(self, grid, capsys):
        # (1 - lambda)^120 overflows on the cusp rows: an error, not a nan
        assert cli.main(["profile", "--t-list", "1", "--s-list", "0,120"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "overflow" in captured.err


class TestIngestCheck:
    def test_packaged_data_passes(self, grid, capsys):
        assert cli.main(["ingest-check"]) == 0
        assert "forms" in capsys.readouterr().out

    def test_repeated_form_fails(self, tmp_path, capsys):
        text = open(RunConfig().resolve_data_path()).read()
        header, first = text.split("form ")[:2]
        path = tmp_path / "twice.dat"
        path.write_text(header + "form " + first + "form " + first)
        assert cli.main(["ingest-check", "--data", str(path)]) == 1
        assert "duplicate cusp spectral parameter" in capsys.readouterr().err

    def test_corrupt_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("#maass-sl2z v3\n")
        assert cli.main(["ingest-check", "--data", str(bad)]) == 1
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("record, line", [
        ("form r=nan parity=even n=10\n1.0 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n", 3),
        ("form r=inf parity=even n=10\n1.0 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n", 3),
        ("form r=9.5 parity=even n=10\n1.0 0.5 0.5 0.5 0.5\n0.5 nan 0.5 0.5 0.5\n", 4),
    ])
    def test_non_finite_record_named_with_its_line(self, record, line, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("#maass-sl2z v1\n" + record)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["ingest-check", "--data", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"line {line}: " in err and "must be" in err and "finite" in err


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.r_max == 12.0 and cfg.panels == 5

    def test_file_then_flag_precedence(self, tmp_path):
        # every RunConfig field is a key, parsed by the type of its default
        path = tmp_path / "run.cfg"
        path.write_text("maass_data_path = 'forms.dat'\nr_max = 10\npanels = 3  # comment\n"
                        "nodes_per_panel = 16\noracle_norm_bound = 60\n"
                        "output_format = \"json\"\n")
        cfg = build_config(str(path))
        assert dataclasses.astuple(cfg) == ("forms.dat", 10.0, 3, 16, 60.0, "json")
        assert [type(v) for v in dataclasses.astuple(cfg)] == [str, float, int, int, float, str]
        cfg = build_config(str(path), r_max=8.0)
        assert cfg.r_max == 8.0 and cfg.panels == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rmax = 10.0\n")
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_config_file(str(path))

    @pytest.mark.parametrize("key", ["tol.tail", "tol.shell", "tol.quad_rel", "tol.no_such_thing",
                                     "tol.oracle_rel"])
    def test_unread_tolerance_rejected(self, tmp_path, key):
        # no tolerance is configurable: criterion 07's 1e-3 among them
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1.0\n")
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_config_file(str(path))

    @pytest.mark.parametrize("line, key", [("panels = 5.0", "panels"), ("r_max = abc", "r_max")])
    def test_bad_value_named_with_file_line_and_key(self, tmp_path, capsys, line, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"# grid\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: bad value for '{key}': "):
            parse_config_file(str(path))
        assert cli.main(["eval", "--t", "1", "--x", "0", "--y", "1", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: bad value for '{key}'")

    def test_line_without_equals_named_with_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# grid\nr_max 10  # no sign\n")
        with pytest.raises(ValueError) as refusal:
            parse_config_file(str(path))
        assert str(refusal.value) == f"{path}:2: expected key = value, got 'r_max 10'"

    def test_env_var_supplies_data_path(self, monkeypatch, tmp_path):
        probe = tmp_path / "probe.dat"
        probe.write_text("#maass-sl2z v1\n")
        monkeypatch.setenv("AUTOHEAT_DATA", str(probe))
        assert RunConfig().resolve_data_path() == str(probe)
        monkeypatch.delenv("AUTOHEAT_DATA")
        assert RunConfig().resolve_data_path().endswith("maass_sl2z.dat")
        monkeypatch.setenv("AUTOHEAT_DATA", "")  # empty means unset
        assert RunConfig().resolve_data_path().endswith("maass_sl2z.dat")

    @pytest.mark.parametrize("argv", [
        ["ingest-check", "--data", ""],
        ["verify", "heat", "--config", "CFG"],
    ])
    def test_empty_data_path_refused(self, argv, tmp_path, monkeypatch, capsys):
        # from the flag or a config file, before any grid is built
        monkeypatch.setattr(cli, "grid_for_config", lambda cfg: pytest.fail("grid built"))
        path = tmp_path / "run.cfg"
        path.write_text("maass_data_path =\n")
        assert cli.main([str(path) if arg == "CFG" else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: empty maass_data_path (--data)")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(r_max=-1.0)
        with pytest.raises(ValueError):
            RunConfig(output_format="xml")
