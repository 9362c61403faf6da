"""Command-line front end: dispatch, exit codes, reports, round-trips."""

import contextlib
import dataclasses
import io
import json
import resource
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from catamaj import (
    Context,
    GridSpec,
    ScanReport,
    check_coherent_trumping,
    check_thermo,
    check_trumping,
    gibbs_vector,
    make_prob_vector,
    pure_state_from_probs,
    renyi_entropy,
    thermal_from_gibbs,
)
from catamaj.cli import command, main
from catamaj.context import DEFAULT_CONTEXT
from catamaj.errors import InputError
from catamaj.reports import (
    scalar_from_json,
    scalar_to_json,
    thermo_verdict_from_json,
    thermo_verdict_to_json,
    trumping_verdict_from_json,
    trumping_verdict_to_json,
)

LOCC_PROBLEM = {
    "x": ["0.6100", "0.3045", "0.0435", "0.0420"],
    "y": ["0.7315", "0.1211", "0.1374", "0.0100"],
}

THERMO_PROBLEM = {"q_rho": ["0.7", "0.2", "0.1"], "q_sigma": ["0.5", "0.3", "0.2"],
                  "energies": [0, 1, 2], "beta": "1/3"}
HALVES_TO_QUARTERS = {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"]}
THERMO_STATES = {"q_rho": ["7/10", "1/5", "1/10"], "q_sigma": ["1/2", "3/10", "1/5"]}


def test_cli_imports_neither_numpy_nor_scipy():
    # both are installed here, so only a clean interpreter shows what the
    # command line pulls in at start-up
    import os
    import subprocess
    import sys

    import catamaj

    src = os.path.dirname(os.path.dirname(os.path.abspath(catamaj.__file__)))
    probe = "import sys, catamaj.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


@contextlib.contextmanager
def address_space_headroom(extra=2 << 30):
    """Cap this process's address space at its current size plus `extra`
    bytes, so a test of an allocation bound fails with a MemoryError rather
    than exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    limit = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run(tmp_path, command, problem, *extra):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "report.out"
    code = main([command, str(path), "--out", str(out)] + list(extra))
    return code, out.read_text() if out.exists() else ""


class TestExitCodes:
    """4 is for input that does not parse or is invalid; 6 for a builtin
    error that escapes a checker or the report writer after it parsed."""

    @pytest.mark.parametrize("error", [KeyError, ValueError, TypeError])
    def test_checker_fault_exits_six(self, tmp_path, monkeypatch, capsys, error):
        import catamaj.cli as cli

        def broken(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "check_trumping", broken)
        code, report = run(tmp_path, "check-trumping", LOCC_PROBLEM)
        assert code == 6 and report == ""
        assert "internal error" in capsys.readouterr().err

    def test_report_writer_fault_exits_six(self, tmp_path, monkeypatch, capsys):
        import catamaj.cli as cli

        monkeypatch.setattr(cli.reports, "trumping_verdict_to_json",
                            lambda verdict: {}["missing"])
        code, _ = run(tmp_path, "check-trumping", LOCC_PROBLEM)
        assert code == 6 and "internal error" in capsys.readouterr().err

    def test_parse_errors_still_exit_four(self, tmp_path, monkeypatch, capsys):
        import catamaj.cli as cli

        monkeypatch.setattr(cli, "check_trumping", lambda *a, **k: {}["never reached"])
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check-trumping", str(path)]) == 4
        assert run(tmp_path, "check-trumping", {"x": ["0.5", "abc"], "y": ["1"]})[0] == 4
        assert run(tmp_path, "check-trumping", LOCC_PROBLEM, "--degree-cap", "ten")[0] == 4
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("name, flags", [("check-trumpin", []), ("check-trumping", ["--bogus"]),
                                             ("check-trumping", ["--grid"])])
    def test_arguments_that_do_not_parse_exit_four(self, tmp_path, capsys, name, flags):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(LOCC_PROBLEM))
        assert command([name, str(path)] + flags) == 4
        assert "usage:" in capsys.readouterr().err

    def test_the_command_process_exits_four_on_a_bad_argument(self):
        import os
        import subprocess
        import sys

        import catamaj

        src = os.path.dirname(os.path.dirname(os.path.abspath(catamaj.__file__)))
        result = subprocess.run([sys.executable, "-m", "catamaj.cli", "check-trumpin"],
                                capture_output=True, text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 4 and "invalid choice" in result.stderr

    def test_oversized_grid_exits_five(self, tmp_path, capsys):
        # 2*10^8 points: refused against the point budget before any is built
        assert run(tmp_path, "check-trumping", LOCC_PROBLEM, "--grid=-1e3:1e3:1/100000")[0] == 5
        assert "budget" in capsys.readouterr().err
        assert run(tmp_path, "scan", LOCC_PROBLEM, "--grid=-1e3:1e3:1/100000")[0] == 5
        assert run(tmp_path, "check-trumping", LOCC_PROBLEM, "--grid=-1:2:1e-30")[0] == 5

    @pytest.mark.parametrize("name", ["check-trumping", "scan"])
    def test_unwritable_out_exits_four_and_leaves_no_temp_file(self, tmp_path, capsys, name):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(LOCC_PROBLEM))
        directory = tmp_path / "reports"
        directory.mkdir()
        for out in (directory, tmp_path / "missing" / "r.json"):
            assert main([name, str(path), "--out", str(out)]) == 4
            assert capsys.readouterr().err.startswith("error: cannot write report: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json", "reports"]
        assert list(directory.iterdir()) == []

    def test_invalid_problem_from_a_checker_exits_four(self, tmp_path):
        # the oracle rejects a grid that misses the p < 0 branch: bad input
        assert run(tmp_path, "check-trumping", LOCC_PROBLEM, "--grid", "2:3:1")[0] == 4

    @pytest.mark.parametrize("command, problem, extra", [
        ("check-trumping", dict(LOCC_PROBLEM, x=["1/0", "1"]), []),
        ("check-trumping", dict(LOCC_PROBLEM, x=["1/0", "1"]), ["--backend", "float"]),
        ("check-trumping", {"x": [True, False], "y": ["1", "0"]}, []),
        ("search-catalyst", dict(LOCC_PROBLEM, dim=True), []),
        ("check-trumping", dict(LOCC_PROBLEM, degree_cap=True), []),
        ("check-thermo", dict(THERMO_PROBLEM, eps="1/0"), []),
        ("check-thermo", THERMO_PROBLEM, ["--eps", "1/0"]),
        ("check-thermo", dict(THERMO_PROBLEM, beta="1/0"), []),
        ("check-thermo", dict(THERMO_PROBLEM, energies=[0, "1/0", 2]), []),
        ("search-catalyst", dict(LOCC_PROBLEM, resolution="1/0"), []),
        ("check-trumping", dict(LOCC_PROBLEM, sum_tol="1/0"), []),
        ("check-trumping", dict(LOCC_PROBLEM, grid=5), []),
        ("check-thermo", dict(THERMO_PROBLEM, eps="1e999999"), []),
        ("check-trumping", LOCC_PROBLEM, ["--grid=-1:2:1e-99999999"]),
        ("check-trumping", dict(LOCC_PROBLEM, x=["1e-999999", "1"]), ["--backend", "float"]),
    ], ids=["entry", "float-entry", "bool-entries", "bool-dim", "bool-degree-cap", "eps",
            "eps-flag", "beta", "energies", "resolution", "sum_tol", "grid", "exponent",
            "grid-exponent", "float-exponent"])
    def test_malformed_scalar_exits_four(self, tmp_path, capsys, command, problem, extra):
        # a zero denominator, a bool, a non-string grid or a million-digit
        # exponent, on either backend, is malformed input
        assert run(tmp_path, command, problem, *extra)[0] == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["verify-catalyst", "search-catalyst"])
    def test_zero_catalyst_gibbs_entry_exits_four(self, tmp_path, capsys, command):
        # refused like a zero in g, where it was a ZeroDivisionError
        problem = dict(LOCC_PROBLEM, mode="thermo", g=["0.25"] * 4, catalyst=["0.5", "0.5"],
                       g_cat=["1", "0"], dim=2, resolution="1/10")
        assert run(tmp_path, command, problem)[0] == 4
        assert "catalyst Gibbs vector must have full weight" in capsys.readouterr().err

    @pytest.mark.parametrize("command, problem, extra, code, first_reason", [
        ("check-trumping", {"x": ["1/20", "13/40", "19/40", "3/20"],
                            "y": ["29/40", "3/40", "1/10", "1/10"]}, ["--degree-cap", "2"], 2,
         "degree cap: polynomial degree 16 exceeds cap 2"),
        # N = 10007: only the degree cap bounds the embedding
        ("check-thermo", {"q_rho": ["10006/10007", "1/10007"], "q_sigma": ["1/2", "1/2"],
                          "g": ["10006/10007", "1/10007"]}, [], 2,
         "condition families skipped: the pair is refuted"),
        # the LOCC worked example against a Gibbs vector near uniform, which
        # q_rho does not thermo-majorize
        ("check-thermo", {"q_rho": LOCC_PROBLEM["y"], "q_sigma": LOCC_PROBLEM["x"],
                          "g": ["2502/10007"] * 3 + ["2501/10007"]}, [], 5,
         "degree cap: polynomial degree 510357 exceeds cap 4096"),
    ], ids=["locc-refuted", "thermo-refuted", "thermo-capped"])
    def test_only_an_inconclusive_verdict_hits_a_cap(self, tmp_path, command, problem, extra,
                                                     code, first_reason):
        # a refutation is a proof, whatever the capped families reached
        exit_code, report = run(tmp_path, command, problem, *extra)
        payload = json.loads(report)
        assert (exit_code, payload["cap_hit"]) == (code, code == 5)
        assert payload["status"] == ("inconclusive" if code == 5 else "refuted")
        assert payload["reasons"][0] == first_reason

    def test_precision_above_the_bound_exits_four(self, tmp_path, capsys):
        # 10^6 bits ran for more than 20 s before the bound
        start = time.monotonic()
        code, _ = run(tmp_path, "check-trumping", {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"]},
                      "--precision", "1000000")
        assert code == 4 and time.monotonic() - start < 1.0
        assert "precision must be at most 65536 bits" in capsys.readouterr().err
        assert Context(precision=65536).precision == 65536

    def test_huge_grid_counts_exit_five(self, tmp_path, capsys):
        # counts past Python's int -> str digit limit still make a message
        assert run(tmp_path, "check-trumping", LOCC_PROBLEM,
                   "--grid=-1e3000:1e3000:1e-3000")[0] == 5
        assert run(tmp_path, "search-catalyst", dict(LOCC_PROBLEM, resolution="1e-4000"))[0] == 5
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("field, flags, setting", [
        ({"sum_tol": "-1"}, [], "sum_tol"),
        ({"degree_cap": "0"}, [], "degree_cap"),
        ({"degree_cap": "-3"}, [], "degree_cap"),
        ({}, ["--degree-cap=-3"], "degree_cap"),
        ({}, ["--degree-cap=0"], "degree_cap"),
    ], ids=["sum_tol-field", "degree_cap-field-0", "degree_cap-field-negative",
            "degree-cap-flag-negative", "degree-cap-flag-0"])
    def test_settings_that_cannot_mean_anything_exit_four(self, tmp_path, capsys, field, flags,
                                                          setting):
        # a negative sum_tol read as "entries sum to 1 (deviation 0)" and a
        # degree cap below 1 as a cap hit (exit 5); both are bad input
        problem = {"x": ["1/2", "1/4", "1/4"], "y": ["3/5", "1/5", "1/5"], **field}
        assert run(tmp_path, "check-trumping", problem, *flags)[0] == 4
        assert capsys.readouterr().err.startswith(f"error: {setting} ")

    @pytest.mark.parametrize("command, problem, flags, message", [
        ("check-trumping", HALVES_TO_QUARTERS, ["--precision", "0"], "float precision"),
        ("check-trumping", dict(HALVES_TO_QUARTERS, precision=0, degree_cap=0), [],
         "float precision"),
        ("check-trumping", dict(HALVES_TO_QUARTERS, degree_cap=0), [], "degree_cap 0"),
        ("check-trumping", dict(HALVES_TO_QUARTERS, precision=False), [], "cannot parse False"),
        ("check-trumping", dict(HALVES_TO_QUARTERS, backend=""), [], "unknown backend"),
        ("check-thermo", dict(THERMO_STATES, g=["1/2", "1/4", "1/4"], eps=0), [],
         "eps = 0 must be positive"),
        ("check-trumping", {"x": ["0.5", "0.5000000000001"], "y": ["0.75", "0.25"],
                            "sum_tol": 0}, ["--backend", "float"], "entries sum to"),
        ("check-trumping", dict(HALVES_TO_QUARTERS, grid=""), [], "bad grid spec ''"),
        ("check-trumping", HALVES_TO_QUARTERS, ["--grid="], "bad grid spec ''"),
    ], ids=["precision-flag", "precision-and-degree_cap-fields", "degree_cap-field",
            "precision-false", "backend-empty", "eps-field", "sum_tol-field", "grid-field",
            "grid-flag"])
    def test_a_zero_false_or_empty_setting_is_checked(self, tmp_path, capsys, command, problem,
                                                      flags, message):
        # only an absent flag or an absent or null field is unset: each of
        # these ran on the default (exit 0) when 0, false and "" were unset
        assert run(tmp_path, command, problem, *flags)[0] == 4
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_a_null_field_stays_unset(self, tmp_path):
        problem = dict(HALVES_TO_QUARTERS, precision=None, degree_cap=None, grid=None)
        assert run(tmp_path, "check-trumping", problem)[0] == 0

    @pytest.mark.parametrize("command, problem", [
        ("check-trumping", HALVES_TO_QUARTERS),
        ("check-trumping", {"x": ["1/2", "3/10", "1/5", "0"],
                            "y": ["7/10", "1/5", "1/20", "1/20"]}),
        ("check-coherence", {"psi": ["1/2", "1/2"], "phi": ["3/4", "1/4"],
                             "probabilities": True}),
        ("check-thermo", dict(THERMO_STATES, energies=[0, 1, 2], beta="1/3")),
    ], ids=["majorized-exit", "dim-4", "coherence", "thermo"])
    def test_a_grid_is_refused_whatever_the_pair(self, tmp_path, capsys, command, problem):
        # the first pair is decided before any scan, which let a grid that
        # misses a branch, or one over the budget, pass with exit 0
        assert run(tmp_path, command, problem, "--grid=2:3:1/2")[0] == 4
        assert "a point below 0 and one above 1" in capsys.readouterr().err
        assert run(tmp_path, command, problem, "--grid=-5000:5000.002:1/1000")[0] == 5
        assert "budget is 10000000" in capsys.readouterr().err
        # the plotting scan (of x, y or of the thermal states) takes any
        # range within the budget
        if command != "check-coherence":
            assert run(tmp_path, "scan", problem, "--grid=2:3:1/2")[0] == 0

    @pytest.mark.parametrize("command, problem, flags, message", [
        ("check-thermo", dict(THERMO_STATES, g=["1/2", "1/2", "0"]), [],
         "Gibbs vector must have full weight"),
        ("check-thermo", dict(THERMO_STATES, g=["1/2", "1/4", "1/4"],
                              g_eps=["1/2", "1/2", "0"]), [], "g_eps must have full weight"),
        ("check-thermo", dict(THERMO_STATES, g=["1/2", "1/4", "1/4"], g_eps=["1/2", "1/2"]),
         [], "g_eps dim 2 != g dim 3"),
        ("verify-catalyst", dict(HALVES_TO_QUARTERS, catalyst=["1/2", "1/2"], mode="thermo",
                                 g=["1/3", "1/3", "1/3"]), [], "Gibbs dim 3 != state dim 2"),
        ("verify-catalyst", dict(HALVES_TO_QUARTERS, catalyst=["1/2", "1/2"], mode="thermo",
                                 g=["1/2", "1/2"], g_cat=["1/3", "1/3", "1/3"]), [],
         "catalyst Gibbs dim 3 != catalyst dim 2"),
        ("search-catalyst", dict(HALVES_TO_QUARTERS, dim=2, resolution="3/4"), [],
         "resolution must lie in (0, 1/2]"),
        ("search-catalyst", dict(HALVES_TO_QUARTERS, dim=2, resolution="2/5"), [],
         "1/resolution must be an integer grid count"),
        ("check-trumping", HALVES_TO_QUARTERS, ["--grid=3:1:1"],
         "grid needs p_min <= p_max and step > 0"),
        ("check-trumping", HALVES_TO_QUARTERS, ["--grid=-1:2:0"],
         "grid needs p_min <= p_max and step > 0"),
        ("check-thermo", dict(THERMO_STATES, energies=[], beta="1/3"), [],
         "need at least one energy level"),
        ("check-thermo", dict(THERMO_STATES, energies=[0, 1, 2], beta="-1"), [],
         "beta must be nonnegative"),
        ("check-coherence", {"psi": ["0.8", "-0.6"], "phi": ["0.96", "0.28"]}, [],
         "amplitude magnitude -3/5 is negative"),
    ], ids=["gibbs-zero", "g_eps-zero", "g_eps-dim", "verify-g-dim", "verify-g_cat-dim",
            "resolution-3/4", "resolution-2/5", "grid-reversed", "grid-step-0",
            "empty-energies", "negative-beta", "negative-amplitude"])
    def test_invalid_problems_exit_four_with_their_message(self, tmp_path, capsys, command,
                                                           problem, flags, message):
        assert run(tmp_path, command, problem, *flags)[0] == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("settings", [{"sum_tol": Fraction(-1, 10**9)}, {"sum_tol": "-1"},
                                          {"degree_cap": 0}, {"degree_cap": -3},
                                          {"backend": "float", "sum_tol": "-1"},
                                          {"backend": "float", "degree_cap": 0},
                                          {"backend": "float", "sum_tol": mpf("nan")}])
    def test_context_refuses_them_on_every_route(self, settings):
        with pytest.raises(InputError, match=next(iter(settings.keys() - {"backend"}))):
            Context(**settings)
        assert Context(sum_tol=0, degree_cap=1).degree_cap == 1


# a problem of each command, and every distribution field it reads
SUM_TOL_CASES = [
    ("check-trumping", {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"]}, ["x", "y"]),
    ("check-thermo", {"q_rho": ["3/4", "1/4"], "q_sigma": ["1/2", "1/2"], "g": ["1/2", "1/2"]},
     ["q_rho", "q_sigma", "g"]),
    ("check-coherence", {"psi": ["1/2", "1/2"], "phi": ["3/4", "1/4"], "probabilities": True},
     ["psi", "phi"]),
    ("verify-catalyst", {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"], "catalyst": ["1/2", "1/2"],
                         "mode": "thermo", "g": ["1/2", "1/2"], "g_cat": ["1/2", "1/2"]},
     ["x", "y", "catalyst", "g", "g_cat"]),
    ("search-catalyst", {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"], "dim": 2,
                         "resolution": "1/4", "mode": "thermo", "g": ["1/2", "1/2"],
                         "g_cat": ["1/2", "1/2"]}, ["x", "y", "g", "g_cat"]),
    ("scan", {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"]}, ["x", "y"]),
    ("scan", {"q_rho": ["3/4", "1/4"], "q_sigma": ["1/2", "1/2"], "g": ["1/2", "1/2"]},
     ["q_rho", "q_sigma", "g"]),
]


@pytest.mark.parametrize("command, problem, field", [
    pytest.param(command, problem, field, id=f"{command}-{field}")
    for command, problem, fields in SUM_TOL_CASES for field in fields])
def test_sum_tol_reaches_every_distribution(tmp_path, capsys, command, problem, field):
    # the field short of mass by 1/10^4: refused as it stands, read in under
    # a problem's sum_tol by the one builder of distributions
    entries = [Fraction(e) for e in problem[field]]
    short = dict(problem, **{field: [str(entries[0] - Fraction(1, 10**4))]
                                    + [str(e) for e in entries[1:]]})
    assert run(tmp_path, command, short, "--grid=-2:2:1/2")[0] == 4
    assert "entries sum to" in capsys.readouterr().err
    run(tmp_path, command, dict(short, sum_tol="1e-3"), "--grid=-2:2:1/2")
    assert "entries sum to" not in capsys.readouterr().err


class TestParser:
    """One flat parser, built once: the request shapes callers rely on."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(LOCC_PROBLEM))
        return str(path)

    def test_problem_after_an_option(self, path, capsys):
        # the benchmark's float requests have this shape
        assert main(["check-trumping", "--backend", "float", path]) == 0

    def test_option_before_the_command(self, path, capsys):
        assert main(["--backend", "float", "check-trumping", path]) == 0

    def test_main_lets_a_bad_argument_exit_two(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-trumping", path, "--threads", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["check-trumping", "PATH", "--threads", "1"], "usage:"),
        (["check-trumpin", "PATH"], "invalid choice"),
    ])
    def test_command_maps_a_bad_argument_to_four(self, path, capsys, argv, message):
        assert command([path if a == "PATH" else a for a in argv]) == 4
        assert message in capsys.readouterr().err

    def test_the_parser_is_built_once(self, path, monkeypatch, capsys):
        import catamaj.cli as cli

        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert main(["check-trumping", path]) == 0

    @pytest.mark.parametrize("argv", [["--help"], [], ["check-trumpin"],
                                      ["check-trumping", "--backend", "bogus"],
                                      ["check-trumping", "a", "b", "c"]])
    def test_help_and_errors_read_as_argparse_writes_them(self, capsys, argv):
        # the stored usage text is the one argparse formats while it parses
        import catamaj.cli as cli

        fresh = cli.build_parser()
        assert fresh.usage is None
        assert cli.PARSER.format_help() == fresh.format_help()
        assert cli.PARSER.format_usage() == fresh.format_usage()
        printed = []
        for parse in (main, fresh.parse_intermixed_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            printed.append((exc.value.code, capsys.readouterr()))
        assert printed[0] == printed[1]
        assert "usage: catamaj" in "".join(printed[0][1])


class TestCheckTrumping:
    def test_worked_example_exit_zero(self, tmp_path):
        code, report = run(tmp_path, "check-trumping", LOCC_PROBLEM)
        payload = json.loads(report)
        assert code == 0
        assert payload["schema"] == "catamaj/6"
        assert payload["status"] == "trumping_sufficient"
        assert payload["exponents"]["r_bar"] == 8

    def test_equal_vectors_exit_two(self, tmp_path):
        # x -> x needs no catalyst, whatever the order of the entries
        for x, y in ((["0.5", "0.5"], ["0.5", "0.5"]),
                     (["1/2", "1/3", "1/6"], ["1/6", "1/2", "1/3"])):
            code, report = run(tmp_path, "check-trumping", {"x": x, "y": y})
            assert code == 0
            assert json.loads(report)["status"] == "trumping_sufficient"

    def test_equal_tops_exit_three(self, tmp_path):
        # y does not majorize x: x_1 + x_2 = 7/10 > 69/100
        problem = {"x": ["2/5", "3/10", "3/20", "3/20"], "y": ["2/5", "29/100", "29/100", "1/50"]}
        code, report = run(tmp_path, "check-trumping", problem)
        assert code == 3
        assert "r undefined" in json.loads(report)["reasons"]

    def test_malformed_json_exit_four(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check-trumping", str(path)]) == 4

    def test_missing_field_exit_four(self, tmp_path):
        code, _ = run(tmp_path, "check-trumping", {"x": ["1.0"]})
        assert code == 4

    def test_counterexample_exit_three_compact(self, tmp_path):
        # the printed source vector is short of mass, so the oracle's failure
        # at p = 19/20 does not refute; the compact report stays small
        problem = {"x": ["0.46519", "0.27313", "0.20361", "0.057807"],
                   "y": ["0.46843", "0.2693", "0.20646", "0.05581"], "sum_tol": "1e-3"}
        start = time.monotonic()
        code, report = run(tmp_path, "check-trumping", problem)
        elapsed = time.monotonic() - start
        payload = json.loads(report)
        assert code == 3 and payload["status"] == "inconclusive"
        assert len(report.encode()) < 10_000
        assert elapsed < 5.0
        family = payload["closure_family"]
        assert family["failure_count"] == 232 and family["first_failing"][0] == 201
        assert family["per_k"] == []
        assert payload["oracle"]["refuted_at"] == "p=19/20"
        assert "unequal masses 999737/1000000 and 1" in payload["reasons"][-1]

    def test_renders_mpf_at_its_own_precision(self, tmp_path, monkeypatch):
        # the CLI runs at mpmath's default 53-bit ambient precision; the
        # 256-bit entropy must not be re-rounded to it
        monkeypatch.setattr(mpmath.mp, "prec", 53)
        code, report = run(tmp_path, "check-trumping", {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"]})
        assert code == 0
        assert json.loads(report)["h1"]["y_bits"] == "0.8112781244591328639096957920391376184301"

    def test_full_evidence(self, tmp_path):
        code, report = run(tmp_path, "check-trumping", LOCC_PROBLEM, "--evidence", "full")
        payload = json.loads(report)
        assert code == 0 and report.startswith('{\n  "schema": "catamaj/6"')
        family = payload["closure_family"]
        assert [row[0] for row in family["per_k"]] == list(range(9, 33))
        assert "failure_count" not in family and "failure_count" not in payload["oracle"]

    def test_degree_cap_exit_five(self, tmp_path):
        problem = dict(LOCC_PROBLEM)
        code, report = run(tmp_path, "check-trumping", problem, "--degree-cap", "8")
        assert code == 5
        assert json.loads(report)["cap_hit"]


def test_closure_sufficient_with_a_refuting_oracle_exits_0(tmp_path):
    problem = {"x": ["1/20", "13/40", "19/40", "3/20"], "y": ["29/40", "3/40", "1/10", "1/10"]}
    code, report = run(tmp_path, "check-trumping", problem)
    payload = json.loads(report)
    assert code == 0 and payload["status"] == "closure_sufficient"
    assert payload["reasons"][-1].startswith("oracle grid refutes a necessary condition at p=-20")


@pytest.mark.parametrize("command, problem, reason", [
    ("check-trumping", {"x": ["0", "2/5", "1/5", "2/5"], "y": ["1/7", "5/7", "0", "1/7"]},
     "x is majorized by y: no catalyst is needed"),
    ("check-trumping", {"x": ["0.5", "0.3", "0.2"], "y": ["0.5", "0.4", "0.1"]},
     "x is majorized by y: no catalyst is needed"),
    ("check-thermo", {"q_rho": ["1", "0"], "q_sigma": ["0", "1"], "g": ["1/3", "2/3"]},
     "q_rho thermo-majorizes q_sigma relative to g: no catalyst is needed"),
], ids=["locc", "locc-tied-tops", "thermo"])
def test_majorized_pairs_exit_0_before_any_scan(tmp_path, command, problem, reason):
    # all were inconclusive (exit 3) when only the families could decide them
    code, report = run(tmp_path, command, problem)
    payload = json.loads(report)
    assert code == 0 and payload["reasons"] == [reason]
    assert payload["oracle"] is None and payload["closure_family"] is None


def test_three_entries_refuted_by_the_least_entry_exit_2(tmp_path):
    # the closure family holds here too, but in dimension 3 trumping is
    # majorization, and x_min < y_min refutes it
    problem = {"x": ["199/360", "59/144", "3/80"], "y": ["641/720", "47/720", "2/45"]}
    code, report = run(tmp_path, "check-trumping", problem)
    payload = json.loads(report)
    assert code == 2 and payload["oracle"] is None
    assert payload["reasons"] == ["x_min = 3/80 < y_min = 2/45 violates the p->-inf limit"]


class TestCheckThermo:
    def test_uniform_gibbs_sufficient(self, tmp_path):
        problem = {
            "q_rho": LOCC_PROBLEM["y"],
            "q_sigma": LOCC_PROBLEM["x"],
            "g": ["0.25", "0.25", "0.25", "0.25"],
        }
        code, report = run(tmp_path, "check-thermo", problem)
        payload = json.loads(report)
        assert code == 0
        assert payload["status"] == "sufficient"
        assert payload["path"] == "rational_exact"

    def test_energies_and_beta(self, tmp_path):
        problem = {
            "q_rho": ["0.936918", "0.0467542", "0.0159775", "0.000350242"],
            "q_sigma": ["0.862942", "0.129846", "0.00558697", "0.00162474"],
            "energies": [0, 1, 2, 3],
            "beta": 1.2,
            "g_eps": ["0.25", "0.25", "0.25", "0.25"],
            "sum_tol": "1e-6",
        }
        code, report = run(tmp_path, "check-thermo", problem)
        payload = json.loads(report)
        assert code == 3
        assert payload["status"] == "inconclusive"
        assert payload["path"] == "slack_adjusted"

    def test_states_pair_with_g_in_the_given_basis(self, tmp_path):
        # in the given basis q_rho's Lorenz curve against g lies above q_sigma's
        problem = {"q_rho": ["1/10", "9/10"], "q_sigma": ["9/10", "1/10"], "g": ["2/3", "1/3"]}
        code, report = run(tmp_path, "check-thermo", problem)
        assert code == 0 and json.loads(report)["status"] == "sufficient"

    def test_equal_states_exit_zero(self, tmp_path):
        problem = {"q_rho": ["1/2", "1/3", "1/6"], "q_sigma": ["1/2", "1/3", "1/6"],
                   "g": ["1/2", "1/3", "1/6"]}
        code, report = run(tmp_path, "check-thermo", problem)
        payload = json.loads(report)
        assert code == 0 and payload["status"] == "sufficient"
        assert payload["oracle"] is None

    @pytest.mark.parametrize("eps", ["-1", "0"])
    @pytest.mark.parametrize("problem", [
        dict(THERMO_PROBLEM, g=["1/2", "1/4", "1/4"]),
        dict(THERMO_PROBLEM, g_eps=["1/2", "1/4", "1/4"]),
        THERMO_PROBLEM,
    ], ids=["exact-g", "g_eps", "approximated"])
    def test_nonpositive_eps_exits_four_on_every_route(self, tmp_path, capsys, problem, eps):
        assert run(tmp_path, "check-thermo", problem, f"--eps={eps}") == (4, "")
        assert capsys.readouterr().err == f"error: eps = {eps} must be positive\n"

    @pytest.mark.parametrize("g_eps", ["1/2", 5])
    def test_g_eps_must_be_an_array(self, tmp_path, capsys, g_eps):
        assert run(tmp_path, "check-thermo", dict(THERMO_PROBLEM, g_eps=g_eps)) == (4, "")
        assert capsys.readouterr().err == "error: field 'g_eps' must be an array of numbers\n"

    def test_gibbs_total_named(self, tmp_path, capsys):
        problem = {"q_rho": ["3/4", "1/4"], "q_sigma": ["1/2", "1/2"],
                   "g": ["4999/10000", "1/2"], "sum_tol": "1e-3"}
        code, _ = run(tmp_path, "check-thermo", problem)
        assert code == 4
        assert "g sums to 9999/10000, not 1" in capsys.readouterr().err


class TestCheckCoherence:
    def test_worked_example(self, tmp_path):
        problem = {
            "psi": ["0.4", "0.4", "0.1", "0.1"],
            "phi": ["0.5", "0.25", "0.25"],
            "probabilities": True,
        }
        code, report = run(tmp_path, "check-coherence", problem)
        payload = json.loads(report)
        assert code == 0
        assert payload["status"] == "trumping_sufficient"
        # the free-coherence rows: H_a(psi) >= H_a(phi) at a in {1/4, ..., 2}
        psi, phi = (make_prob_vector(problem[k]) for k in ("psi", "phi"))
        assert all(renyi_entropy(psi, Fraction(k, 4)) >= renyi_entropy(phi, Fraction(k, 4))
                   for k in range(1, 9))


class TestVerifyAndSearch:
    def test_verify_catalyst_true(self, tmp_path):
        problem = dict(LOCC_PROBLEM, catalyst=["0.48", "0.24", "0.16", "0.12"])
        code, report = run(tmp_path, "verify-catalyst", problem)
        assert code == 0 and json.loads(report)["verified"]

    def test_verify_catalyst_false(self, tmp_path):
        problem = dict(LOCC_PROBLEM, catalyst=["1.0"])
        code, report = run(tmp_path, "verify-catalyst", problem)
        assert code == 2 and not json.loads(report)["verified"]

    def test_search_finds_known_catalyst_region(self, tmp_path):
        problem = dict(LOCC_PROBLEM, dim=4, resolution="1/25")
        code, report = run(tmp_path, "search-catalyst", problem)
        payload = json.loads(report)
        assert code == 0 and payload["found"]

    def test_verify_catalyst_thermo_mode(self, tmp_path):
        problem = {
            "x": ["0.936918", "0.0467542", "0.0159775", "0.000350242"],
            "y": ["0.862942", "0.129846", "0.00558697", "0.00162474"],
            "catalyst": ["0.48", "0.24", "0.16", "0.12"],
            "mode": "thermo",
            "energies": [0, 1, 2, 3],
            "beta": 1.2,
            "sum_tol": "1e-6",
        }
        code, report = run(tmp_path, "verify-catalyst", problem)
        # recorded outcome: the quoted catalyst does not pass the composite
        # Lorenz comparison (see README "Known discrepancies")
        assert code == 2 and not json.loads(report)["verified"]

    def test_verify_catalyst_thermo_mode_keeps_the_basis(self, tmp_path):
        # at abscissa 1/3 the Lorenz curve of x is 0.45 and that of y 0.9, so
        # the trivial catalyst fails; y re-sorted would equal x and pass
        problem = {"mode": "thermo", "x": ["9/10", "1/10"], "y": ["1/10", "9/10"],
                   "g": ["2/3", "1/3"], "catalyst": ["1"]}
        code, report = run(tmp_path, "verify-catalyst", problem)
        assert code == 2 and not json.loads(report)["verified"]

    @pytest.mark.parametrize("top, extra", [(200, []), (100, ["--precision", "128"])])
    def test_thermo_mode_far_apart_weights(self, tmp_path, top, extra):
        # g_2 = e^-top / Z lies below 2^-(P - 7): x's curve, 0.1 at a = g_2,
        # is below y's, 1/2, and no catalyst can lower D(y || g) to D(x || g)
        problem = {"mode": "thermo", "x": ["0.9", "0.1"], "y": ["1/2", "1/2"],
                   "energies": [0, top], "beta": 1, "catalyst": ["1"], "dim": 2,
                   "resolution": "1/4"}
        code, report = run(tmp_path, "verify-catalyst", problem, *extra)
        assert code == 2 and not json.loads(report)["verified"]
        code, report = run(tmp_path, "search-catalyst", problem, *extra)
        assert code == 3 and not json.loads(report)["found"]

    def test_search_catalyst_thermo_mode(self, tmp_path):
        problem = {
            "x": ["0.7", "0.2", "0.1"],
            "y": ["0.5", "0.25", "0.25"],
            "mode": "thermo",
            "g": ["0.5", "0.25", "0.25"],
            "dim": 2,
            "resolution": "1/4",
        }
        code, report = run(tmp_path, "search-catalyst", problem)
        # relaxing toward the Gibbs state is free: the trivial catalyst passes
        payload = json.loads(report)
        assert code == 0 and payload["catalyst"] == ["1"]

    def test_search_catalyst_thermo_mode_with_g_cat(self, tmp_path):
        # the trivial catalyst is checked as thermo_majorizes(x, y, g), not
        # against the dim-3 g_cat; an explicit uniform g_cat is the default
        problem = {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"], "g": ["2/3", "1/3"],
                   "mode": "thermo", "dim": 3, "resolution": "1/4"}
        uniform = run(tmp_path, "search-catalyst", dict(problem, g_cat=["1/3", "1/3", "1/3"]))
        assert uniform == run(tmp_path, "search-catalyst", problem)
        assert uniform[0] in (0, 3)
        skewed = dict(problem, g_cat=["1/2", "1/3", "1/6"])
        code, report = run(tmp_path, "search-catalyst", skewed)
        assert code in (0, 3) and json.loads(report)["dim"] == 3

    def test_bad_precision_exit_four(self, tmp_path):
        code, _ = run(tmp_path, "check-trumping", LOCC_PROBLEM, "--precision", "64")
        assert code == 4

    @pytest.mark.parametrize("dim, resolution, codes", [
        (2000, "1/2", {0, 3}),                  # once one recursion level per entry
        (3, "1/1000000000000", {5}),            # once a 4 x 10^12 count table
        (10**12, "1/2", {5}),                   # once a 10^12 x 3 count table
    ])
    def test_search_is_bounded_before_it_allocates(self, tmp_path, dim, resolution, codes):
        problem = dict(LOCC_PROBLEM, dim=dim, resolution=resolution)
        start = time.perf_counter()
        with address_space_headroom():
            code, _ = run(tmp_path, "search-catalyst", problem)
        assert code in codes and time.perf_counter() - start < 1

    def test_search_nothing_exit_three(self, tmp_path):
        # spreading out is irreversible: no catalyst exists in this direction
        problem = {"x": ["0.9", "0.1"], "y": ["0.5", "0.5"], "dim": 2,
                   "resolution": "1/10"}
        code, report = run(tmp_path, "search-catalyst", problem)
        assert code == 3 and not json.loads(report)["found"]


class TestScan:
    def test_row_count_and_shape(self, tmp_path):
        code, csv_text = run(tmp_path, "scan", LOCC_PROBLEM, "--grid=-5:5:0.1")
        lines = csv_text.strip().splitlines()
        assert code == 0
        assert lines[0] == "p,norm_x,norm_y,renyi_x,renyi_y"
        assert len(lines) - 1 == 99
        # ascending p, first column parses back
        ps = [float(line.split(",")[0]) for line in lines[1:]]
        assert ps == sorted(ps)
        assert 0.0 not in ps and 1.0 not in ps

    def test_worked_example_rows_obey_required_directions(self, tmp_path):
        code, csv_text = run(tmp_path, "scan", LOCC_PROBLEM, "--grid=-5:5:0.5")
        for line in csv_text.strip().splitlines()[1:]:
            p, nx, ny, _, _ = line.split(",")
            if float(p) > 1:
                assert float(nx) < float(ny)
            else:
                assert float(nx) > float(ny)

    def test_single_point_grid(self, tmp_path):
        code, csv_text = run(tmp_path, "scan", LOCC_PROBLEM, "--grid", "2:2:1")
        lines = csv_text.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert lines[1].startswith("2.0,")

    def test_empty_grid_header_only(self, tmp_path):
        # the single candidate point p = 1 is excluded, leaving just the header
        code, csv_text = run(tmp_path, "scan", LOCC_PROBLEM, "--grid", "1:1:1")
        lines = csv_text.strip().splitlines()
        assert code == 0 and lines == ["p,norm_x,norm_y,renyi_x,renyi_y"]

    def test_divergence_scan_variant(self, tmp_path):
        problem = {
            "q_rho": ["0.936918", "0.0467542", "0.0159775", "0.000350242"],
            "q_sigma": ["0.862942", "0.129846", "0.00558697", "0.00162474"],
            "energies": [0, 1, 2, 3],
            "beta": 1.2,
            "sum_tol": "1e-6",
        }
        code, csv_text = run(tmp_path, "scan", problem, "--grid=-2:2:0.5")
        lines = csv_text.strip().splitlines()
        assert code == 0
        assert lines[0] == "p,divergence_rho,divergence_sigma"
        assert len(lines) - 1 == 9 - 2  # 0 and 1 excluded
        for line in lines[1:]:
            _, d_rho, d_sigma = line.split(",")
            assert float(d_rho) > float(d_sigma)


class TestFloatBackend:
    def test_check_trumping_float_mode(self, tmp_path):
        code, report = run(tmp_path, "check-trumping", LOCC_PROBLEM,
                           "--backend", "float", "--precision", "192")
        payload = json.loads(report)
        assert code == 0
        assert payload["status"] == "trumping_sufficient"
        assert payload["exponents"]["r_bar"] == 8


SMALL_GRID = GridSpec.parse("-2:2:1")
FLOAT_CTX = Context(backend="float")


def _rounded(value):
    """`value` with every mpf replaced by its 40-digit report rendering."""
    if isinstance(value, mpf):
        return scalar_from_json(scalar_to_json(value))
    if isinstance(value, tuple):
        return tuple(_rounded(v) for v in value)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: _rounded(getattr(value, f.name))
                                             for f in dataclasses.fields(value) if f.init})
    return value


LOCC_X, LOCC_Y = (make_prob_vector(LOCC_PROBLEM[k]) for k in "xy")
FLOAT_X, FLOAT_Y = (make_prob_vector(LOCC_PROBLEM[k], FLOAT_CTX) for k in "xy")
# the thermal pair is printed to six figures
THERMO_RHO, THERMO_SIGMA = (
    make_prob_vector(v, Context(sum_tol=Fraction(1, 10**6)))
    for v in (["0.936918", "0.0467542", "0.0159775", "0.000350242"],
              ["0.862942", "0.129846", "0.00558697", "0.00162474"]))
HALVES = make_prob_vector(["1/2", "1/2"])
QUARTERS = make_prob_vector(["3/4", "1/4"])
TRUMPING = (trumping_verdict_to_json, trumping_verdict_from_json)
THERMO = (thermo_verdict_to_json, thermo_verdict_from_json)
# name -> (encoder, decoder, verdict maker, context, what the verdict must show)
SHAPES = {
    "coherence": (*TRUMPING, lambda: check_coherent_trumping(
        pure_state_from_probs(["0.4", "0.4", "0.1", "0.1"]),
        pure_state_from_probs(["0.5", "0.25", "0.25"])), DEFAULT_CONTEXT,
        lambda v: v == check_trumping(make_prob_vector(["0.4", "0.4", "0.1", "0.1"]),
                                      make_prob_vector(["0.5", "0.25", "0.25"]))),
    "refuted": (*TRUMPING, lambda: check_trumping(LOCC_Y, LOCC_X), DEFAULT_CONTEXT,
                lambda v: [f.which for f in v.oracle.failures if f.p is None]
                == ["H1 (need >)", "Burg (need >)"]),
    "cap_hit": (*TRUMPING, lambda: check_trumping(LOCC_X, LOCC_Y, Context(degree_cap=16)),
                DEFAULT_CONTEXT, lambda v: v.cap_hit and v.closure_report is None),
    "float_trumping": (*TRUMPING, lambda: check_trumping(FLOAT_X, FLOAT_Y, FLOAT_CTX),
                       FLOAT_CTX, lambda v: v.closure_report is not None),
    "mpf_slack": (*THERMO, lambda: check_thermo(
        HALVES, make_prob_vector(["0.75", "0.25"]), gibbs_vector([0, 1], 1),
        eps=Fraction(1, 10)), DEFAULT_CONTEXT,
        lambda v: v.path == "slack_adjusted" and isinstance(v.slack_used[0], mpf)),
    "divergence_and_kl_failures": (*THERMO, lambda: check_thermo(
        THERMO_SIGMA, THERMO_RHO, gibbs_vector([0, 1, 2, 3], "1.2"), eps=Fraction(1, 10)),
        DEFAULT_CONTEXT,
        lambda v: {f.which for f in v.oracle.failures}
        == {"divergence (need >)", "KL (need >)"}),
    "float_thermo": (*THERMO, lambda: check_thermo(
        FLOAT_Y, FLOAT_X, gibbs_vector([0, 0, 0, 0], 0, FLOAT_CTX), ctx=FLOAT_CTX), FLOAT_CTX,
        lambda v: v.embedding is not None),
}

class TestRoundTrip:
    def test_trumping_verdict_json_round_trip(self):
        x = make_prob_vector(["0.6100", "0.3045", "0.0435", "0.0420"])
        y = make_prob_vector(["0.7315", "0.1211", "0.1374", "0.0100"])
        verdict = check_trumping(x, y)
        blob = json.dumps(trumping_verdict_to_json(verdict))
        parsed = trumping_verdict_from_json(json.loads(blob))
        assert json.dumps(trumping_verdict_to_json(parsed)) == blob
        assert parsed.status == verdict.status
        assert parsed.closure_report == verdict.closure_report
        assert parsed.exponents.r_bar == verdict.exponents.r_bar

    def test_thermo_verdict_json_round_trip(self):
        q_rho = make_prob_vector(["0.7315", "0.1211", "0.1374", "0.0100"])
        q_sigma = make_prob_vector(["0.6100", "0.3045", "0.0435", "0.0420"])
        verdict = check_thermo(q_rho, q_sigma, gibbs_vector([0, 0, 0, 0], 0))
        blob = json.dumps(thermo_verdict_to_json(verdict))
        parsed = thermo_verdict_from_json(json.loads(blob))
        assert json.dumps(thermo_verdict_to_json(parsed)) == blob
        assert parsed.embedding == verdict.embedding
        assert parsed.slack_used == verdict.slack_used

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_report_shape(self, shape):
        to_json, from_json, make, ctx, shows = SHAPES[shape]
        verdict = make()
        assert shows(verdict)
        blob = json.dumps(to_json(verdict))
        parsed = from_json(json.loads(blob), ctx)
        assert json.dumps(to_json(parsed)) == blob
        if ctx.backend == "exact":
            assert parsed == _rounded(verdict)

    def test_missing_key(self):
        data = trumping_verdict_to_json(check_trumping(LOCC_X, LOCC_Y, grid=SMALL_GRID))
        # fields with a dataclass default take it when their key is missing
        del data["cap_hit"]
        parsed = trumping_verdict_from_json(data)
        assert parsed.cap_hit is False
        for key in ("status", "closure_family", "h1"):
            with pytest.raises(KeyError):
                trumping_verdict_from_json({k: v for k, v in data.items() if k != key})
        del data["oracle"]["failures"]
        with pytest.raises(KeyError):
            trumping_verdict_from_json(data)

    def test_derived_keys_are_recomputed_on_decode(self):
        verdict = check_thermo(HALVES, QUARTERS, thermal_from_gibbs(HALVES), grid=SMALL_GRID)
        data = thermo_verdict_to_json(verdict)
        assert data["path"] == "rational_exact" and data["oracle"]["verdict"] == "refuted"
        forged = dict(data, path="slack_adjusted",
                      embedding=dict(data["embedding"], N=7, g_eps=["1"]),
                      oracle=dict(data["oracle"], verdict="consistent", refuted_at=None))
        assert thermo_verdict_from_json(forged) == thermo_verdict_from_json(data)
        del data["path"], data["embedding"]["N"], data["embedding"]["g_eps"]
        del data["oracle"]["verdict"], data["oracle"]["refuted_at"]
        assert thermo_verdict_to_json(thermo_verdict_from_json(data)) == \
            thermo_verdict_to_json(verdict)

    @pytest.mark.parametrize("command, problem", [
        ("check-coherence", {"psi": ["1/2", "1/2"], "phi": ["3/4", "1/4"], "probabilities": True}),
        ("check-coherence", {"psi": ["3/4", "1/4"], "phi": ["1/2", "1/2"], "probabilities": True}),
        ("check-coherence", {"psi": ["0.4", "0.4", "0.1", "0.1"], "phi": ["0.5", "0.25", "0.25"],
                             "probabilities": True}),
        ("check-trumping", LOCC_PROBLEM),
    ], ids=["coherence", "coherence-reversed", "coherence-worked-example", "trumping"])
    @pytest.mark.parametrize("evidence", ["compact", "full"])
    def test_schema_5_coherence_key_is_skipped(self, tmp_path, command, problem, evidence):
        # schema 5 wrote check-coherence's free-coherence report (and all
        # its derived all_non_increasing, forged here) as "coherence", and
        # null there on check-trumping
        code, report = run(tmp_path, command, problem, "--evidence", evidence)
        data = json.loads(report)
        assert code in (0, 2) and data["schema"] == "catamaj/6" and "coherence" not in data
        verdict = trumping_verdict_from_json(data)
        for coherence in (json.loads(COHERENCE_REPORT),
                          dict(json.loads(COHERENCE_REPORT), all_non_increasing=False), None):
            old = dict(data, schema="catamaj/5", coherence=coherence)
            assert trumping_verdict_from_json(old) == verdict
            assert trumping_verdict_to_json(trumping_verdict_from_json(old)) == \
                trumping_verdict_to_json(verdict)

    def test_schema_4_norm_rows_decode(self):
        # schema 4 wrote an LOCC grid row as the two power means and a norm label
        data = json.loads(COMPACT_LOCC_REFUTED)
        data["oracle"]["failures"][0] = ["-2", "0.3354101966249684544613760503096914353161",
                                         "0.5", "norm p<1 (need >)"]
        data["oracle"]["tightest_log2"] = -0.160964
        oracle = trumping_verdict_from_json(data).oracle
        assert (oracle.failures[0].which, oracle.refuted_at, oracle.tightest_log2) == (
            "norm p<1 (need >)", "p=-2", -0.160964)
        assert trumping_verdict_to_json(trumping_verdict_from_json(data)) == data

    def test_schema_2_scans_decode(self):
        # a catamaj/2 scan object also carried h1_ok and burg_ok (LOCC) or
        # kl_ok (thermal), each true iff no dedicated row had that label
        quarter = make_prob_vector(["1/4"] * 4)
        thirds = make_prob_vector(["2/3", "1/3"])
        locc_flags = {"h1_ok": "H1", "burg_ok": "Burg"}
        cases = [(TRUMPING, check_trumping(x, y, grid=SMALL_GRID), locc_flags)
                 for x, y in ((LOCC_X, LOCC_Y), (LOCC_Y, LOCC_X))]
        cases += [(THERMO, check_thermo(x, y, thermal_from_gibbs(g), grid=SMALL_GRID),
                   {"kl_ok": "KL"}) for x, y, g in ((LOCC_Y, LOCC_X, quarter),
                                                    (QUARTERS, HALVES, thirds))]
        seen = set()
        for (to_json, from_json), verdict, flags in cases:
            data = to_json(verdict)
            scan = data["oracle"]
            labels = {row[3].split(" ")[0] for row in scan["failures"] if row[0] is None}
            # ... and listed every grid point, as schema 3 did
            old = {"grid": [str(p) for p in SMALL_GRID], "failures": scan["failures"],
                   **{flag: label not in labels for flag, label in flags.items()},
                   **{k: v for k, v in scan.items() if k not in ("grid", "failures")}}
            seen.update(old[flag] for flag in flags)
            parsed = from_json({"schema": "catamaj/2", **data, "oracle": old})
            assert isinstance(parsed.oracle, ScanReport)
            assert parsed.oracle == from_json(data).oracle
        assert seen == {True, False}

    @pytest.mark.parametrize("text", ["-20:20:1/20", "-2:2:1", "-5:5:1/10", "-1:2:1/2"])
    def test_schema_4_writes_the_grid_as_its_spec(self, text):
        grid = GridSpec.parse(text)
        verdict = check_trumping(LOCC_X, LOCC_Y, grid=grid)
        data = json.loads(json.dumps(trumping_verdict_to_json(verdict)))
        assert data["oracle"]["grid"] == text
        parsed = trumping_verdict_from_json(data)
        assert parsed == _rounded(verdict) and parsed.oracle.grid == grid

    @pytest.mark.parametrize("text", ["-20:20:1/20", "-2:2:1", "-5:5:1/10", "-1:2:1/2"])
    def test_schema_3_point_lists_decode(self, text):
        # a catamaj/3 scan object listed every grid point as a fraction string
        grid = GridSpec.parse(text)
        for (to_json, from_json), verdict in (
                (TRUMPING, check_trumping(LOCC_X, LOCC_Y, grid=grid)),
                (THERMO, check_thermo(HALVES, QUARTERS, thermal_from_gibbs(HALVES), grid=grid))):
            data = to_json(verdict)
            scan = dict(data["oracle"], grid=[str(p) for p in grid])
            parsed = from_json({**data, "schema": "catamaj/3", "oracle": scan})
            assert parsed.oracle == from_json(data).oracle == _rounded(verdict.oracle)
            assert parsed.oracle.grid == grid

    def test_schema_3_point_lists_decode_to_an_equal_spec(self):
        # the points of -20:20.01:1/20 decode to -20:20:1/20, which has them all
        grid = GridSpec.parse("-20:20.01:1/20")
        verdict = check_trumping(LOCC_X, LOCC_Y, grid=grid)
        data = trumping_verdict_to_json(verdict)
        scan = dict(data["oracle"], grid=[str(p) for p in grid])
        parsed = trumping_verdict_from_json({**data, "schema": "catamaj/3", "oracle": scan})
        assert str(parsed.oracle.grid) == "-20:20:1/20"
        assert parsed.oracle == _rounded(verdict.oracle) and parsed.oracle.grid == grid

    def test_a_point_list_that_is_no_grid_is_refused(self):
        data = trumping_verdict_to_json(check_trumping(LOCC_X, LOCC_Y, grid=SMALL_GRID))
        for points in (["-2", "-1", "3/2"], ["-2", "2", "-1"], ["-2", "-1", "-1", "2"],
                       ["2", "-1", "-2"]):
            with pytest.raises(ValueError):
                trumping_verdict_from_json(dict(data, oracle=dict(data["oracle"], grid=points)))
        # a single point and an empty list are grids
        for points in (["3"], []):
            scan = dict(data["oracle"], grid=points)
            assert list(trumping_verdict_from_json(dict(data, oracle=scan)).oracle.grid) == [
                Fraction(p) for p in points]


FULL_CTX = Context(evidence="full")


class TestPinnedFormat:
    """Report JSON under full evidence as the hand-written per-type encoders
    rendered it, key for key, at the ambient precision conftest sets.  Two
    entries a side are decided before any stage that these pins show, so
    the pins of the families and the scans switch that exit off."""

    def test_locc_sufficient(self, past_the_exits):
        verdict = check_trumping(HALVES, QUARTERS, FULL_CTX, grid=SMALL_GRID)
        assert json.dumps(trumping_verdict_to_json(verdict)) == LOCC_SUFFICIENT

    def test_locc_refuted(self, past_the_exits):
        verdict = check_trumping(QUARTERS, HALVES, FULL_CTX, grid=SMALL_GRID)
        assert json.dumps(trumping_verdict_to_json(verdict)) == LOCC_REFUTED

    def test_thermo_refuted(self):
        spec = thermal_from_gibbs(make_prob_vector(["2/3", "1/3"]))
        verdict = check_thermo(QUARTERS, HALVES, spec, ctx=FULL_CTX, grid=SMALL_GRID)
        assert json.dumps(thermo_verdict_to_json(verdict)) == THERMO_REFUTED

    def test_coherence_report(self, past_the_exits):
        # check-coherence writes check-trumping's report on the diagonals
        verdict = check_coherent_trumping(pure_state_from_probs(HALVES.entries),
                                          pure_state_from_probs(QUARTERS.entries),
                                          FULL_CTX, grid=SMALL_GRID)
        assert json.dumps(trumping_verdict_to_json(verdict)) == LOCC_SUFFICIENT


class TestPinnedCompactFormat:
    """Report JSON under compact evidence, the default."""

    def test_locc_sufficient(self, past_the_exits):
        verdict = check_trumping(HALVES, QUARTERS, grid=SMALL_GRID)
        assert json.dumps(trumping_verdict_to_json(verdict)) == COMPACT_LOCC_SUFFICIENT

    def test_locc_refuted(self, past_the_exits):
        verdict = check_trumping(QUARTERS, HALVES, grid=SMALL_GRID)
        assert json.dumps(trumping_verdict_to_json(verdict)) == COMPACT_LOCC_REFUTED

    def test_thermo_refuted(self):
        spec = thermal_from_gibbs(make_prob_vector(["2/3", "1/3"]))
        verdict = check_thermo(QUARTERS, HALVES, spec, grid=SMALL_GRID)
        assert json.dumps(thermo_verdict_to_json(verdict)) == COMPACT_THERMO_REFUTED

    def test_thermo_sufficient(self, past_the_exits):
        # rational path, both families run: relaxing toward g itself
        g = make_prob_vector(["1/2", "1/4", "1/4"])
        verdict = check_thermo(make_prob_vector(["3/5", "1/4", "3/20"]), g,
                               thermal_from_gibbs(g), grid=SMALL_GRID)
        assert json.dumps(thermo_verdict_to_json(verdict)) == COMPACT_THERMO_SUFFICIENT

    def test_locc_majorized(self):
        verdict = check_trumping(HALVES, QUARTERS, grid=SMALL_GRID)
        assert json.dumps(trumping_verdict_to_json(verdict)) == COMPACT_LOCC_MAJORIZED

    def test_locc_refuted_by_a_limit(self):
        # two entries: x_1 > y_1 refutes with no grid
        verdict = check_trumping(QUARTERS, HALVES, grid=SMALL_GRID)
        assert json.dumps(trumping_verdict_to_json(verdict)) == COMPACT_LOCC_TOP_LIMIT

    def test_locc_refuted_by_the_least_entry(self):
        verdict = check_trumping(make_prob_vector(["1/2", "1/2", "0"]),
                                 make_prob_vector(["4/5", "1/10", "1/10"]), grid=SMALL_GRID)
        assert json.dumps(trumping_verdict_to_json(verdict)) == COMPACT_LOCC_LEAST_LIMIT

    def test_thermo_majorized(self):
        g = make_prob_vector(["1/2", "1/4", "1/4"])
        verdict = check_thermo(make_prob_vector(["3/5", "1/4", "3/20"]), g,
                               thermal_from_gibbs(g), grid=SMALL_GRID)
        assert json.dumps(thermo_verdict_to_json(verdict)) == COMPACT_THERMO_MAJORIZED

    def test_thermo_slack_adjusted(self):
        # irrational g within eps = 1/10: the closure family runs with slack 1/A_r
        verdict = check_thermo(make_prob_vector(["7/10", "1/5", "1/10"]),
                               make_prob_vector(["1/2", "3/10", "1/5"]),
                               gibbs_vector([0, 1, 2], Fraction(1, 3)), eps=Fraction(1, 10),
                               grid=SMALL_GRID)
        assert json.dumps(thermo_verdict_to_json(verdict)) == COMPACT_THERMO_SLACK


# As the per-type encoders rendered them at mpmath.mp.prec = 320 (conftest);
# since schema 5 the LOCC grid rows carry H_p(x) and H_p(y) in bits.
LOCC_SUFFICIENT = (
    '{"status": "trumping_sufficient", "reasons": [], '
    '"exponents": {"r": "1.709511291351454776976190262174014140615", "r_bar": 2, '
    '"s": "1.0", "s_bar": 2}, "closure_family": {"relation": "strict_greater", '
    '"k_range": [3, 4], "per_k": [[3, "1/8", "3/32", true], [4, "1/64", "9/1024", '
    'true]], "all_hold": true, "slack": "1"}, '
    '"negative_family": {"relation": "strict_less", "k_range": [1, 2], "per_k": [[1, '
    '"8", "160/9", true], [2, "16", "256/9", true]], "all_hold": true, "slack": "1"}, '
    '"h1": {"x_bits": "1.0", "y_bits": "0.8112781244591328639096957920391376184301", '
    '"holds": true}, "weight_branch": "full_weight", "oracle": {"grid": "-2:2:1", '
    '"failures": [], "verdict": "consistent", '
    '"refuted_at": null}, "cap_hit": false}'
)
LOCC_REFUTED = (
    '{"status": "refuted", '
    '"reasons": ["x_1 = 3/4 > y_1 = 1/2 violates the p->inf limit"], '
    '"exponents": null, "closure_family": null, "negative_family": null, '
    '"h1": {"x_bits": "0.8112781244591328639096957920391376184301", "y_bits": "1.0", '
    '"holds": false}, "weight_branch": "full_weight", "oracle": {"grid": "-2:2:1", '
    '"failures": [["-2", "-1.384001031148349994987613847197919052782", "-1.0", '
    '"renyi (need >)"], ["-1", "-1.20751874963942190927313052802609174562", "-1.0", '
    '"renyi (need >)"], ["2", "0.6780719051126376521296805705106098241352", "1.0", '
    '"renyi (need >)"], [null, '
    '"0.8112781244591328639096957920391376184301", "1.0", "H1 (need >)"], [null, '
    '"-1.20751874963942190927313052802609174562", "-1.0", "Burg (need >)"]], '
    '"verdict": "refuted", "refuted_at": "p=-2"}, '
    '"cap_hit": false}'
)
THERMO_REFUTED = (
    '{"status": "refuted", '
    '"reasons": ["r undefined (adjusted top-entry ratio not > 1)", '
    '"divergence scan refutes a necessary condition at p=-2"], '
    '"path": "rational_exact", "embedding": {"nu": [2, 1], "N": 3, "g_eps": ["2/3", '
    '"1/3"], "eps": "0"}, "slack": ["1", "1"], "exponents": {"r": null, "r_bar": null, '
    '"s": null, "s_bar": null}, "closure_family": null, "negative_family": null, '
    '"h1": {"x_bits": "1.56127812445913286390969579203913761843", "y_bits": "1.5", '
    '"holds": false}, "weight_branch": "full_weight", "oracle": {"grid": "-2:2:1", '
    '"failures": [["-2", "0.05421677921485283366179043035710727007073", '
    '"0.1383458330929479395154203520173944970801", "divergence (need >)"], ["-1", '
    '"0.02623370994706778154037624269419064118079", '
    '"0.0760015467225249924814207707968785791726", "divergence (need >)"], ["2", '
    '"0.04439411935845343765310199067360946746305", '
    '"0.1699250014423123629074778878956330175196", "divergence (need >)"], [null, '
    '"0.02368437626202331754404315190867889032968", '
    '"0.08496250072115618145373894394781650875981", "KL (need >)"]], '
    '"verdict": "refuted", "refuted_at": "p=-2"}, "cap_hit": false}'
)
# The free-coherence report schema 5 wrote under "coherence" for
# check-coherence on psi = (1/2, 1/2), phi = (3/4, 1/4): rows (p, free
# coherence of psi, of phi, non-increasing); schema 6 has no such key.
COHERENCE_REPORT = (
    '{"entries": [["0", "1.0", "0.6780719051126376521296805705106098241352", true], '
    '["1/4", "1.0", "0.7058913351484992978862903432776830071047", true], ["1/2", '
    '"1.0", "0.7372547315067422067642866201649540544288", true], ["3/4", "1.0", '
    '"0.7723590438751525296124135834686570961861", true], ["1", "1.0", '
    '"0.8112781244591328639096957920391376184301", true], ["5/4", "1.0", '
    '"0.8539159179931196329979860354678578534872", true], ["3/2", "1.0", '
    '"0.8999686269529916978423251201247583132715", true], ["7/4", "1.0", '
    '"0.9489084761767820985202533848132516090746", true], ["2", "1.0", "1.0", true]], '
    '"all_non_increasing": true}'
)


# Compact evidence: per_k empty, summary fields, only the first failing
# grid point, and check_thermo stopping once the divergence scan refutes.
COMPACT_LOCC_SUFFICIENT = (
    '{"status": "trumping_sufficient", "reasons": [], '
    '"exponents": {"r": "1.709511291351454776976190262174014140615", '
    '"r_bar": 2, "s": "1.0", "s_bar": 2}, '
    '"closure_family": {"relation": "strict_greater", "k_range": [3, 4], '
    '"per_k": [], "all_hold": true, "slack": "1", "failure_count": 0, '
    '"first_failing": [], "tightest_log2": 0.415037}, '
    '"negative_family": {"relation": "strict_less", "k_range": [1, 2], '
    '"per_k": [], "all_hold": true, "slack": "1", "failure_count": 0, '
    '"first_failing": [], "tightest_log2": 0.830075}, "h1": {"x_bits": "1.0", '
    '"y_bits": "0.8112781244591328639096957920391376184301", "holds": true}, '
    '"weight_branch": "full_weight", "oracle": {"grid": "-2:2:1", '
    '"failures": [], "verdict": "consistent", '
    '"refuted_at": null, "failure_count": 0, "tightest_log2": 0.207519}, '
    '"cap_hit": false}'
)
COMPACT_LOCC_REFUTED = (
    '{"status": "refuted", '
    '"reasons": ["x_1 = 3/4 > y_1 = 1/2 violates the p->inf limit"], '
    '"exponents": null, "closure_family": null, "negative_family": null, '
    '"h1": {"x_bits": "0.8112781244591328639096957920391376184301", '
    '"y_bits": "1.0", "holds": false}, "weight_branch": "full_weight", '
    '"oracle": {"grid": "-2:2:1", "failures": [["-2", '
    '"-1.384001031148349994987613847197919052782", "-1.0", '
    '"renyi (need >)"], [null, '
    '"0.8112781244591328639096957920391376184301", "1.0", "H1 (need >)"], '
    '[null, "-1.20751874963942190927313052802609174562", "-1.0", '
    '"Burg (need >)"]], '
    '"verdict": "refuted", "refuted_at": "p=-2", "failure_count": 5, '
    '"tightest_log2": -0.207519}, "cap_hit": false}'
)
COMPACT_THERMO_REFUTED = (
    '{"status": "refuted", '
    '"reasons": ["condition families skipped: the pair is refuted", '
    '"divergence scan refutes a necessary condition at p=-2"], '
    '"path": "rational_exact", "embedding": {"nu": [2, 1], "N": 3, '
    '"g_eps": ["2/3", "1/3"], "eps": "0"}, "slack": ["1", "1"], '
    '"exponents": null, "closure_family": null, "negative_family": null, '
    '"h1": null, "weight_branch": null, "oracle": {"grid": "-2:2:1", '
    '"failures": [["-2", "0.05421677921485283366179043035710727007073", '
    '"0.1383458330929479395154203520173944970801", "divergence (need >)"], '
    '[null, "0.02368437626202331754404315190867889032968", '
    '"0.08496250072115618145373894394781650875981", "KL (need >)"]], '
    '"verdict": "refuted", "refuted_at": "p=-2", '
    '"failure_count": 4, "tightest_log2": -0.0497678}, "cap_hit": false}'
)
# Thermal verdicts whose condition families run: the rational path with both
# families, and the slack path, whose closure slack 1/A_r has 256 bits.
COMPACT_THERMO_SUFFICIENT = (
    '{"status": "sufficient", "reasons": [], "path": '
    '"rational_exact", "embedding": {"nu": [2, 1, 1], "N": 4, '
    '"g_eps": ["1/2", "1/4", "1/4"], "eps": "0"}, "slack": '
    '["1", "1"], "exponents": {"r": '
    '"7.60356803384786054944275690159812951678", "r_bar": 8, "s": '
    '"2.713830897713448167009246595132733506229", "s_bar": 3}, '
    '"closure_family": {"relation": "strict_less", "k_range": [9, '
    '32], "per_k": [], "all_hold": true, "slack": "1", '
    '"failure_count": 0, "first_failing": [], "tightest_log2": '
    '4.03394e-05}, "negative_family": {"relation": "strict_greater", '
    '"k_range": [1, 4], "per_k": [], "all_hold": true, "slack": '
    '"1", "failure_count": 0, "first_failing": [], "tightest_log2": '
    '0.63269}, "h1": {"x_bits": '
    '"1.952724195624654624812435364156180250329", "y_bits": "2.0", '
    '"holds": true}, "weight_branch": "full_weight", "oracle": '
    '{"grid": "-2:2:1", "failures": [], '
    '"verdict": "consistent", "refuted_at": null, "failure_count": 0, '
    '"tightest_log2": 0.0577386}, "cap_hit": false}'
)

COMPACT_THERMO_SLACK = (
    '{"status": "inconclusive", "reasons": ["embedded family fails at '
    'k in (15, 16, 17, 18, 19, 20, 21, 22)"], "path": "slack_adjusted", '
    '"embedding": {"nu": [14, 10, 7], "N": 31, "g_eps": ["14/31", '
    '"10/31", "7/31"], "eps": '
    '"0.008861529470574518856014277049203626914044"}, "slack": '
    '["1.001722664590335374077412257632552866957", '
    '"1.01570164473156060324061122557531019072"], "exponents": {"r": '
    '"13.16010049668159721120910391354708484129", "r_bar": 14, "s": '
    '"5.560084349840415122557661041342807594378", "s_bar": 6}, '
    '"closure_family": {"relation": "strict_less", "k_range": [15, '
    '434], "per_k": [], "all_hold": false, "slack": '
    '"0.9982802978796133406812166525410732897298", "failure_count": 85, '
    '"first_failing": [15, 16, 17, 18, 19, 20, 21, 22], "tightest_log2": '
    '-9.22811e-05}, "negative_family": null, "h1": {"x_bits": '
    '"4.767049206070595228188580247110451291902", "y_bits": '
    '"4.947202171133865899069512382469448754113", "holds": true}, '
    '"weight_branch": "full_weight", "oracle": {"grid": '
    '"-2:2:1", "failures": [], "verdict": '
    '"consistent", "refuted_at": null, "failure_count": 0, '
    '"tightest_log2": 0.199492}, "cap_hit": false}'
)


class TestAmbientPrecision:
    """Float-backend reports do not depend on mpmath's ambient precision,
    which the CLI leaves at 53 bits and conftest sets to 320."""

    @pytest.mark.parametrize("command, problem, extra", [
        ("check-thermo", THERMO_PROBLEM, ["--eps", "1/10"]),
        ("check-coherence", {"psi": ["0.8", "0.6"], "phi": ["0.96", "0.28"]}, []),
        ("check-trumping", LOCC_PROBLEM, []),
        ("scan", LOCC_PROBLEM, []),
    ])
    def test_53_and_320_bits_print_the_same(self, tmp_path, capsys, command, problem, extra):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        printed = []
        for bits in (53, 320):
            with mpmath.workprec(bits):
                code = main([command, str(path), "--backend", "float", *extra])
            printed.append((code, capsys.readouterr().out))
        assert printed[0] == printed[1]


# Field values a problem file may hold that no command accepts as such.
ODD_VALUES = [None, True, False, [["1/2", "1/2"]], [[]], "", "1/0", "nan", "inf", "-1",
              "1e999999"]
FUZZ_BASES = {
    "check-trumping": {"x": ["2/3", "1/6", "1/6"], "y": ["1/2", "1/2", "0"]},
    "check-thermo": {"q_rho": ["1/2", "1/2"], "q_sigma": ["3/4", "1/4"],
                     "energies": [0, 1], "beta": "1/2", "eps": "1/10"},
    "check-coherence": {"psi": ["1/2", "1/2"], "phi": ["3/4", "1/4"], "probabilities": True},
    "verify-catalyst": {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"], "catalyst": ["1/2", "1/2"]},
    "search-catalyst": {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"], "dim": 2,
                        "resolution": "1/4"},
    "scan": {"x": ["1/2", "1/2"], "y": ["3/4", "1/4"]},
}
SETTINGS = ["sum_tol", "backend", "precision", "degree_cap", "grid"]
FUZZ_FIELDS = {
    "check-trumping": ["x", "y"],
    "check-thermo": ["q_rho", "q_sigma", "g", "energies", "beta", "g_eps", "eps", "mode"],
    "check-coherence": ["psi", "phi", "probabilities", "mode"],
    "verify-catalyst": ["x", "y", "catalyst", "mode", "g", "g_cat", "energies", "beta"],
    "search-catalyst": ["x", "y", "dim", "resolution", "mode", "g", "g_cat"],
    "scan": ["x", "y", "q_rho", "q_sigma", "g", "energies", "beta"],
}

_scalar = st.one_of(st.sampled_from(ODD_VALUES),
                    st.sampled_from(["1/2", "1/4", "0", "1", 1, "float", "thermo"]))
_value = st.one_of(_scalar, st.lists(_scalar, min_size=1, max_size=3))
FUZZ_PROBLEMS = st.sampled_from(sorted(FUZZ_BASES)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.dictionaries(st.sampled_from(FUZZ_FIELDS[command] + SETTINGS), _value,
                    min_size=1, max_size=2)))


class TestProblemFileFuzz:
    """Odd values in the fields a command reads: every call ends in a
    documented exit code other than 6, never in an exception.  Values, not
    sizes: the vectors keep one to three entries, and no plain value makes a
    slow problem (beta = 2 in the thermal base takes seconds in the exact
    coefficient kernel)."""

    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problem=FUZZ_PROBLEMS)
    def test_odd_fields_exit_documented(self, tmp_path_factory, problem):
        command, fields = problem
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps({**FUZZ_BASES[command], **fields}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--grid=-2:2:1"])
        assert code in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()
COMPACT_LOCC_MAJORIZED = (
    '{"status": "trumping_sufficient", "reasons": ["x is majorized by y: no catalyst is '
    'needed"], "exponents": null, "closure_family": null, "negative_family": null, '
    '"h1": {"x_bits": "1.0", "y_bits": "0.8112781244591328639096957920391376184301", '
    '"holds": true}, "weight_branch": "full_weight", "oracle": null, "cap_hit": false}'
)
COMPACT_LOCC_TOP_LIMIT = (
    '{"status": "refuted", "reasons": ["x_1 = 3/4 > y_1 = 1/2 violates the p->inf limit"], '
    '"exponents": null, "closure_family": null, "negative_family": null, '
    '"h1": {"x_bits": "0.8112781244591328639096957920391376184301", "y_bits": "1.0", '
    '"holds": false}, "weight_branch": "full_weight", "oracle": null, "cap_hit": false}'
)
COMPACT_LOCC_LEAST_LIMIT = (
    '{"status": "refuted", "reasons": ["x_min = 0 < y_min = 1/10 violates the p->-inf '
    'limit"], "exponents": null, "closure_family": null, "negative_family": null, '
    '"h1": {"x_bits": "1.0", "y_bits": "0.9219280948873623478703194294893901758648", '
    '"holds": true}, "weight_branch": "full_weight", "oracle": null, "cap_hit": false}'
)
COMPACT_THERMO_MAJORIZED = (
    '{"status": "sufficient", "reasons": ["q_rho thermo-majorizes q_sigma relative to g: '
    'no catalyst is needed"], "path": "rational_exact", "embedding": {"nu": [2, 1, 1], '
    '"N": 4, "g_eps": ["1/2", "1/4", "1/4"], "eps": "0"}, "slack": ["1", "1"], '
    '"exponents": null, "closure_family": null, "negative_family": null, "h1": null, '
    '"weight_branch": null, "oracle": null, "cap_hit": false}'
)
