import argparse
import json
import time
from fractions import Fraction

import mpmath as mp
import pytest

from qchar import certified, characters, decomposition, partial_theta
from qchar.certified import InputError, NearPoleError, PoleNearContourError
from qchar.characters import CharacterParams
from qchar.modular_transform import SL2Matrix
from qchar.cli import build_parser, main
from qchar.exact_series import ExactQSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coeffs_golden_head(capsys):
    code, out = run(capsys, "coeffs", "--ell", "3", "--s", "0",
                    "--trunc", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["coeffs"] == [["0", "1"], ["3", "-20"], ["4", "27"],
                             ["9", "56"], ["10", "-162"]]


def test_char_leading_exponent(capsys):
    code, out = run(capsys, "char", "--ell", "3", "--s", "1", "--trunc", "8")
    assert code == 0
    doc = json.loads(out)
    # h_1 - c/24 = 2/3 + 1/6 = 5/6
    assert doc["leading_exp"] == "5/6"
    assert doc["coeffs"][0][1] == "3"


def test_output_is_deterministic(capsys):
    _, out1 = run(capsys, "char", "--ell", "4", "--s", "2", "--trunc", "10")
    _, out2 = run(capsys, "char", "--ell", "4", "--s", "2", "--trunc", "10")
    assert out1 == out2


def test_verify_appendix_exit_zero(capsys):
    code, out = run(capsys, "verify-appendix", "--ell-max", "10")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_routes_small(capsys):
    code, out = run(capsys, "--prec", "64", "verify-routes", "--ells", "3",
                    "--ss", "0,1", "--trunc", "15")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_routes_reports_a_mismatch(capsys, monkeypatch):
    # verify-routes compares the routes itself: one changed coefficient of
    # the partial-theta route is a failure at that exponent
    series = characters._F_ls_via_H_series

    def off_by_one_at_q7(ell, s, trunc):
        return series(ell, s, trunc) + ExactQSeries(1, {7: 1}, trunc)

    monkeypatch.setattr(characters, "_F_ls_via_H_series", off_by_one_at_q7)
    code, out = run(capsys, "verify-routes", "--ells", "3", "--ss", "0",
                    "--trunc", "15")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failures"] == [{"ell": 3, "s": 0, "first_exponent": "7"}]


def test_verify_routes_fails_a_route_that_stops_short(capsys, monkeypatch):
    # the comparison looks below the shorter order only, so a route that
    # stops 5 short of --trunc agrees with the other there: it must fail
    route = characters.F_ls_via_H
    monkeypatch.setattr(characters, "F_ls_via_H",
                        lambda params: route(params).truncate(params.trunc - 5))
    code, out = run(capsys, "verify-routes", "--ells", "3", "--ss", "0",
                    "--trunc", "15")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failures"] == [{"ell": 3, "s": 0, "route": "F_ls_via_H",
                                "order": "10"}]


@pytest.mark.parametrize("ell,s,trunc", [(5, 12, 50), (4, 27, 60)])
def test_verify_routes_compares_every_requested_coefficient(
        capsys, monkeypatch, ell, s, trunc):
    # the partial-theta route once stopped at order 42 and -17 here, and
    # the comparison then covered only those coefficients
    orders = []
    route = characters.F_ls_via_H

    def record(params):
        series = route(params)
        orders.append(series.trunc)
        return series

    monkeypatch.setattr(characters, "F_ls_via_H", record)
    code, out = run(capsys, "verify-routes", "--ells", str(ell), "--ss",
                    str(s), "--trunc", str(trunc))
    assert code == 0 and json.loads(out)["ok"] is True
    assert orders == [trunc]


@pytest.mark.parametrize("ell,s,t", [(4, 21, "0.5"), (5, 27, "0.6")])
def test_asym_at_large_s_within_its_bound(capsys, ell, s, t):
    # an empty route-2 head once made F_ls_numeric divide by zero here; the
    # printed value must lie within F_ls_numeric's bound of route 1's head
    # to q^150, which is within 2e-25 of its head to q^300 at both points
    code, out = run(capsys, "--prec", "128", "asym", "--ell", str(ell),
                    "--s", str(s), "--t", t, "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    _, bound = characters.F_ls_numeric(ell, s, t, 128)
    head = characters.F_ls_exact(CharacterParams(ell, s, 150))
    with mp.workprec(256):
        q = mp.exp(-mp.mpf(t))
        want = mp.fsum(c * q ** e for e, c in head.coeffs.items())
        assert abs(mp.mpf(row["exact"]) - want) <= bound


# asym's t and expansion columns at ell = 4, 5, 6 and the default t
# 0.1,0.05, as the F_ls_numeric route printed them
ASYM_COLUMNS = {
    4: ["7.24544215610427597941154387136931694586698500711510546810095273735"
        "627506842e-47",
        "6.55257193090232067234638487581052386416338295715220745318459818110"
        "685923108e-102"],
    5: ["3.89118184064465053184315372495986031997552593954689101802761998229"
        "206005923e-89",
        "7.83534687364137304261545669361800130651478984405420637980863599632"
        "507451598e-193"],
    6: ["6.93693205207937982201313663364977102618660636271524542141074195939"
        "655021073e-144",
        "3.20692031217021592220219278563157748682882050842134598624050257658"
        "121369275e-310"],
}


@pytest.mark.parametrize("ell", [4, 5, 6])
def test_asym_takes_the_H_route_with_the_same_columns(capsys, monkeypatch,
                                                      ell):
    def refuse(*args):
        raise AssertionError("asym called F_ls_numeric")

    monkeypatch.setattr(characters, "F_ls_numeric", refuse)
    code, out = run(capsys, "asym", "--ell", str(ell))
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "t,exact,expansion,abs_err"
    assert [row.split(",")[0] for row in rows] == [
        "0.1" + "0" * 74, "0.05" + "0" * 74]
    assert [row.split(",")[2] for row in rows] == ASYM_COLUMNS[ell]


def test_asym_runs_past_the_numeric_order_cap(capsys):
    # F_ls_numeric needs a first head of order 65,797 here, above its cap
    # of 20,000
    code, out = run(capsys, "asym", "--ell", "4", "--t", "0.01")
    assert code == 0 and mp.mpf(out.splitlines()[1].split(",")[1]) > 0


def test_qdim_csv(capsys):
    code, out = run(capsys, "--prec", "80", "qdim", "--t", "0.2,0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,ratio,deviation"
    assert len(lines) == 3


def test_qdim_csv_skips_the_slope(capsys, monkeypatch):
    # CSV prints the rows only, so it must not compute the JSON-only slope
    def unused(*args, **kwargs):
        raise AssertionError("qdim_slope_report called for CSV output")

    monkeypatch.setattr("qchar.asymptotics.qdim_slope_report", unused)
    code, out = run(capsys, "--prec", "80", "qdim", "--t", "0.2,0.1")
    assert code == 0
    assert out.splitlines()[0] == "t,ratio,deviation"


def test_qdim_json_at_s_zero(capsys):
    # at s = 0 the ratio is identically 1 and the reference slope 0: the
    # report holds the absolute deviation, not a division by zero
    code, out = run(capsys, "--prec", "64", "qdim", "--s", "0", "--format",
                    "json")
    assert code == 0
    slope = json.loads(out)["slope"]
    assert mp.mpf(slope["reference_slope"]) == 0
    assert mp.mpf(slope["relative_deviation"]) == \
        abs(mp.mpf(slope["measured_slope"]))


def test_arithmetic_error_is_a_reported_failure(capsys, monkeypatch):
    # any ArithmeticError, not only an OverflowError, is a failed run with a
    # report, not a traceback
    def divides_by_zero(*args, **kwargs):
        return 1 / 0

    monkeypatch.setattr("qchar.asymptotics.verify_appendix", divides_by_zero)
    code = main(["verify-appendix"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["ok"] is False and "division by zero" in doc["error"]


def test_asym_csv(capsys):
    code, out = run(capsys, "--prec", "96", "asym", "--t", "0.5,0.25", "--N",
                    "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,exact,expansion,abs_err"
    rows = [line.split(",") for line in lines[1:]]
    assert [mp.mpf(r[0]) for r in rows] == [mp.mpf("0.5"), mp.mpf("0.25")]
    assert all(len(r) == 4 and float(r[3]) < 1e-3 for r in rows)


def test_asym_json(capsys):
    code, out = run(capsys, "--prec", "96", "asym", "--t", "0.5", "--N", "2",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert float(doc["rows"][0]["abs_err"]) < 1e-3


def test_asym_abs_err_at_working_precision(capsys):
    # abs_err is printed with 36 digits at --prec 128, so it must be the
    # difference of the printed values to that accuracy, not to 53 bits
    code, out = run(capsys, "--prec", "128", "asym", "--t", "0.5", "--N", "0",
                    "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    with mp.workprec(256):
        want = abs(mp.mpf(row["exact"]) - mp.mpf(row["expansion"]))
        assert abs(mp.mpf(row["abs_err"]) - want) <= mp.mpf("1e-30") * want


def test_qdim_deviation_at_working_precision(capsys):
    # deviation is printed with 75 digits at --prec 256, so it must be
    # |1 - ratio| of the printed ratio to that accuracy, not to 53 bits
    code, out = run(capsys, "--prec", "256", "qdim", "--t", "0.2,0.1")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, ratio, deviation = line.split(",")
        with mp.workprec(320):
            want = abs(1 - mp.mpf(ratio))
            assert abs(mp.mpf(deviation) - want) <= mp.mpf("1e-60")


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--ell", "3"])  # missing required --s
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["coeffs", "--ell", "3", "--s", "0", "--trunc", "0"],
    ["coeffs", "--ell", "3", "--s", "-1"],
    ["asym", "--ell", "2"],
    ["verify-modular", "--matrix", "1,1,1,1"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--points", "0"],
    ["verify-decomposition", "--ell", "1", "--s", "0"],
    ["verify-decomposition", "--ell", "3", "--s", "-1"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--tau=-1j"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--tau", "x"],
    ["verify-modular", "--tau=-1j"],
    ["verify-modular", "--eps", "3"],
    ["verify-modular", "--z", "0.1"],
    ["verify-modular", "--z", "0.1+0.001j"],
    ["verify-modular", "--z", "x"],
    ["verify-modular", "--z", "nan"],
    ["verify-modular", "--z", "0.1+infj"],
    ["verify-modular", "--z", "0.1+1e400j"],
    ["verify-modular", "--tau=nan+1j"],
    ["verify-modular", "--tau=0+infj"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--tau=nan+1j"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--z", "0.1+0.1j",
     "nan"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--z", "x", "0.1j"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--z"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--z", "0.1+0.1j"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--z", "0.1+0.1j",
     "0.1+0.4j"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--z", "0.1-0.1j",
     "0.1+0.1j"],
    ["qdim", "--s", "-1"],
    ["qdim", "--ell", "1"],
    ["qdim", "--t", "-1"],
    ["qdim", "--t", "x"],
    ["--prec", "0", "qdim"],
    ["--prec", "-5", "asym"],
    ["asym", "--t", "x"],
    ["asym", "--t", "-1"],
    ["asym", "--t", "0"],
    ["asym", "--N", "-3"],
    ["verify-routes", "--ells", "1"],
    ["verify-routes", "--ells", "x"],
    ["verify-routes", "--ss", "-1"],
    ["verify-routes", "--trunc", "0"],
    ["verify-modular", "--M", "0"],
    ["verify-modular", "--M", "x"],
    ["verify-modular", "--r", "x"],
    ["verify-modular", "--r", "1/0"],
    ["verify-modular", "--tol", "x"],
    ["verify-decomposition", "--ell", "3", "--s", "0", "--tol", "x"],
    ["verify-em", "--tol-order", "x"],
    ["verify-appendix", "--ell-max", "-1"],
    ["verify-appendix", "--ell-max", "0"],
])
def test_invalid_argument_exit_two(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("check", [
    lambda: CharacterParams(1, 0, 1),
    lambda: CharacterParams(2, -1, 1),
    lambda: CharacterParams(2, 0, 0),
    lambda: partial_theta.PartialThetaParams(0, 2, 1),
    lambda: partial_theta.PartialThetaParams(0, 1, Fraction(1, 3)),
    lambda: SL2Matrix(1, 1, 1, 1),
    lambda: SL2Matrix(1, 0, 0, 1),
    lambda: decomposition.MultivarPoint((0.5j,), 1j, 64),
    lambda: decomposition.MultivarPoint((0.1j,), -1j, 64),
])
def test_library_domain_checks_raise_input_error(check):
    # main maps InputError, and nothing else of the library's, to exit 2
    with pytest.raises(InputError):
        check()


def test_failed_evaluations_are_not_input_errors():
    # a pole on the path is the caller's z; a collision or a point next to
    # a pole is a failed verification (exit 1)
    assert issubclass(PoleNearContourError, InputError)
    for cls in (decomposition.DegenerateWVectorError, NearPoleError):
        assert issubclass(cls, ValueError)
        assert not issubclass(cls, InputError)


def test_verification_error_exit_one(capsys):
    # a degenerate w-vector is a failed verification, not a usage error
    code, out = run(capsys, "--prec", "64", "verify-decomposition", "--ell",
                    "3", "--s", "0", "--z", "1e-30j", "0.1+0.1j")
    assert code == 1
    assert "collide" in json.loads(out)["error"]


def test_huge_z_is_a_reported_failure(capsys):
    # finite, so not a usage error; its Gaussian sums cannot be planned in
    # doubles, which is a failed verification, reported without a traceback
    code = main(["verify-modular", "--z", "0.1+1e300j"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["ok"] is False and "overflows" in doc["error"]


@pytest.mark.parametrize("option,value", [("--z", "0.1+1e30j"),
                                          ("--tau", "0+1e300j")])
def test_out_of_range_input_names_its_option(capsys, option, value):
    # mpmath overflows its integers on these; the error names the input
    code = main(["verify-modular", f"{option}={value}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    assert "out of range" in doc["error"] and option in doc["error"]


def test_out_of_range_names_every_complex_input(capsys):
    # the pair bound, about -pi^2/(6 |log q|), overflows the doubles of the
    # quadrature plan at this small Im tau: the report names the complex
    # inputs and does not guess which one overflowed, or that it was too
    # large
    code = main(["verify-modular", "--z=0.1+1e30j"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1 and "--z" in error and "--tau" in error
    code = main(["verify-decomposition", "--ell", "2", "--s", "0",
                 "--points", "1", "--tau", "1e-300j"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1 and "--tau" in error and "too large" not in error


@pytest.mark.parametrize("argv", [
    # q underflows the doubles: the pair kernel plans from log|q|
    ["verify-decomposition", "--ell", "2", "--s", "0", "--points", "1",
     "--tau", "200j"],
    # |theta(w_1 - w_2)| is far below 2^-(prec // 4) here, but so is
    # 2 pi |eta|^3, its slope at the lattice: the w_j do not collide
    ["--prec", "64", "verify-decomposition", "--ell", "3", "--s", "1",
     "--points", "1", "--tau", "0.02j"],
])
def test_decomposition_at_extreme_im_tau(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["ok"] is True


def test_line_trapezoid_refuses_a_plan_of_a_minute_before_it_runs(capsys):
    start = time.perf_counter()
    code = main(["verify-modular", "--tau", "1e-9j"])
    assert time.perf_counter() - start < 1.0
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1 and "55452573 nodes" in error


def test_far_gaussian_sum_fails_at_once(capsys):
    start = time.perf_counter()
    code = main(["verify-modular", "--z=0.1-1e30j"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and json.loads(capsys.readouterr().out)["ok"] is False


def test_verify_modular_diagnostics(capsys):
    code, out = run(capsys, "--prec", "96", "verify-modular", "--matrix",
                    "1,0,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["ok"] is True
    assert float(doc["abs_err"]) < 1e-12
    diag = doc["diagnostics"]
    assert diag["nodes"] > 0
    assert 0 < float(diag["bound"]) < 2.0 ** -96


@pytest.mark.parametrize("matrix", ([], ["--matrix", "1,0,1,1"]))
def test_verify_modular_bound_bounds_its_error(capsys, matrix):
    # the integrals' certificates alone fall below abs_err at both calls;
    # the printed bound also counts the left side, the theta corrections
    # and the rounding
    code, out = run(capsys, "verify-modular", *matrix)
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    assert mp.mpf(doc["abs_err"]) <= mp.mpf(doc["diagnostics"]["bound"]) \
        <= mp.mpf(2) ** -256


def test_verify_decomposition_diagnostics(capsys):
    code, out = run(capsys, "--prec", "96", "verify-decomposition", "--ell",
                    "2", "--s", "1", "--points", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["ok"] is True
    res = doc["results"][0]
    assert {"point", "quadrature", "decomposed", "rel_err"} <= set(res)
    assert res["diagnostics"]["nodes"] > 0
    assert 0 < float(res["diagnostics"]["bound"]) <= 2.0 ** -96


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: the residue sum cancels below its working precision; "
    "it must plan its own bits"))
@pytest.mark.parametrize("argv", [
    # decomposed is 0.0 against a quadrature of 1.0136
    ["--prec", "64", "verify-decomposition", "--ell", "2", "--s", "3",
     "--points", "1", "--tau", "3j"],
    # rel_err 239
    ["verify-decomposition", "--ell", "3", "--s", "1", "--points", "1",
     "--tau", "40j"],
])
def test_residue_route_holds_at_large_im_tau(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_decomposition_plans_each_quadrature_once(capsys, monkeypatch):
    # one strip search per point: the quadrature that runs is the one whose
    # certificate the diagnostics print
    calls = []
    search = certified.least_strip_nodes

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(certified, "least_strip_nodes", counted)
    code, _ = run(capsys, "--prec", "96", "verify-decomposition", "--ell",
                  "3", "--s", "0", "--points", "2")
    assert code == 0 and len(calls) == 2


_ENVELOPE_RUNS = [
    ["coeffs", "--ell", "3", "--s", "0", "--trunc", "5"],
    ["char", "--ell", "3", "--s", "1", "--trunc", "5"],
    ["--prec", "64", "asym", "--t", "0.5", "--N", "0", "--format", "json"],
    ["--prec", "64", "qdim", "--t", "0.5", "--format", "json"],
    ["verify-appendix", "--ell-max", "2"],
    ["verify-routes", "--ells", "3", "--ss", "0", "--trunc", "5"],
    ["--prec", "64", "verify-decomposition", "--ell", "2", "--s", "0",
     "--points", "1"],
    ["--prec", "64", "verify-modular", "--matrix", "1,0,1,1"],
    ["--prec", "64", "verify-em"],
    ["verify-modular", "--z", "0.1+1e300j"],  # the reported-failure path
]


def test_every_report_has_one_envelope(capsys):
    # every JSON report carries schema 1 and its subcommand; every verify-*
    # report and the error report carry a boolean ok that sets the exit code
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    seen = set()
    for argv in _ENVELOPE_RUNS:
        command = parser.parse_args(argv).command
        seen.add(command)
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["command"] == command, argv
        if command.startswith("verify-") or "error" in doc:
            assert isinstance(doc["ok"], bool), argv
            assert (code == 0) == doc["ok"], argv
        else:
            assert code == 0, argv
    assert seen == set(sub.choices)
    assert code == 1 and "error" in doc  # the last run is the failure path


def test_matrix_without_positive_c_is_a_usage_error(capsys):
    # SL2Matrix refuses c <= 0; the CLI turns that into exit 2
    with pytest.raises(SystemExit) as err:
        main(["verify-modular", "--matrix", "1,0,0,1"])
    assert err.value.code == 2
    assert "c > 0" in capsys.readouterr().err
