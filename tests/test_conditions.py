"""Certificate arithmetic: M1, gap conditions, caps, verdicts, and synthesis."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import sddlab as s
import sddlab.conditions
from reference import reference_synthesize
from sddlab.cli import main
from sddlab.conditions import (FLAGS, MAX_GRID_POINTS, evaluate_certificate,
                               search_grid)
from sddlab.errors import ContractViolation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# frozen reference values (high-precision evaluation of the closed forms,
# headline configuration: p=1, L=100, N=1, r=0.5, M_xi=8e-4, 6e-5 / 1.8e-4)
M_B = 0.54134113294645077
L_B = 0.46115879200720347
LAM1 = 9.8696044010893586e-4
LAM2 = 3.9478417604357434e-3
GAP = 2.9608813203268076e-3
MU = 1.4804406601634038e-3
BOUND3 = 3.6965384146782829e-4
M1_P = 3.4756671023291089e-4
M1_FULL = 7.3674618292771885e-4
DELTA_P = 0.47012457499803951
R17_CAP = 0.50098502928202625
R18_CAP = 6.8284824294775008e-5
R19_LOW = 1.3656964858955002e-4
E_FACTOR = 0.99876706014553182
# standalone examples
DELTA_EXAMPLE = 0.13079810922877003     # mu=3.5, M1=0.06558, lam=9, r=0.1
BOUND3_916_R01 = 0.25069169725266634    # lam 9/16, r=0.1
R_THRESHOLD_PI = 1.9224919074284905     # 4 L_b / (M_b sqrt(pi))
R_THRESHOLD_100 = 0.3407528184656318


def test_m1_constant_frozen():
    assert type(s.m1_constant(0.5, L_B, 8e-4, M_B, 6e-5, 100.0)) is float
    assert s.m1_constant(0.5, L_B, 8e-4, M_B, 6e-5, 100.0) == pytest.approx(
        M1_P, rel=1e-13)
    assert s.m1_constant(0.5, L_B, 8e-4, M_B, 1.8e-4, 100.0) == pytest.approx(
        M1_FULL, rel=1e-13)


def test_lipschitz_M1_variants(headline_problem):
    def m1(variant):
        return s.lipschitz_M1(dataclasses.replace(headline_problem,
                                                  variant=variant))

    assert m1("p") == pytest.approx(M1_P, rel=1e-9)
    assert m1("n") == pytest.approx(M1_FULL, rel=1e-9)
    assert m1("full") == pytest.approx(M1_FULL, rel=1e-9)
    # the problem's own variant (full here)
    assert s.lipschitz_M1(headline_problem) == m1("full")
    assert m1("p") < m1("full")


# case -> (lambda_N, lambda_N1, mu, M1, rs, expected at every r in rs); an
# expected value is (value, rel), a flag is a bool
TABLE_CASES = {
    "gap_example": (9.0, 16.0, 3.5, 0.06558, [0.1], {
        "delta_p": (DELTA_EXAMPLE, 1e-13), "bound3": (BOUND3_916_R01, 1e-13),
        "A4_pass": True, "A5_pass_p": True, "bound3_pass_p": True}),
    # A4 fails when mu exceeds half the gap
    "a4_fails": (9.0, 16.0, 3.6, 0.06558, [0.1], {"A4_pass": False}),
    # A5 fails when mu <= 4 M1
    "a5_fails": (9.0, 16.0, 0.2, 0.06558, [0.1],
                 {"A4_pass": True, "A5_pass_p": False}),
    "bound3_example": (9.0, 16.0, 3.5, 0.2, [0.1], {
        "bound3": (BOUND3_916_R01, 1e-13), "bound3_pass_p": True}),
    # exp(-12.5e-18) rounds to 1, so bound3 is gap/8 exactly, dyadic
    "bound3_dyadic": (9.0, 16.0, 3.5, 1.0, [1e-18], {
        "bound3": (0.875, 0.0), "bound3_pass_p": False}),
    "headline_p": (LAM1, LAM2, MU, M1_P, [0.5], {
        "bound3": (BOUND3, 1e-13), "bound3_pass_p": True}),
    "headline_full": (LAM1, LAM2, MU, M1_FULL, [0.5], {"bound3_pass_p": False}),
    "bound3_decreasing_in_r": (9.0, 16.0, 3.5, 0.0,
                               list(np.linspace(0.05, 3.0, 20)), {}),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_certificate_table(case):
    lam_N, lam_N1, mu, M1, rs, expected = TABLE_CASES[case]
    bound3 = []
    for r in rs:
        # M_b = 1, |Omega| = 1/2 and a negligible L_b M_xi give M1 = r l11
        values, flags = evaluate_certificate(
            lambda_N=lam_N, lambda_N1=lam_N1, r=r, mu=mu, M_b=1.0,
            L_b=1e-200, M_xi=1.0, l11_p=M1 / r, l11_n=M1 / r,
            domain_length=0.5)
        assert values["M1_p"] == pytest.approx(M1, rel=1e-15)
        assert list(values)[:3] == ["lambda_N", "lambda_N1", "mu"]
        assert list(flags) == [flag for flag, _ in FLAGS]
        assert all(type(v) is float for v in values.values())
        assert all(type(f) is bool for f in flags.values())
        for key, want in expected.items():
            if isinstance(want, bool):
                assert flags[key] is want, key
            else:
                assert values[key] == pytest.approx(want[0], rel=want[1], abs=0)
        bound3.append(values["bound3"])
    assert np.all(np.diff(bound3) < 0)


def test_remark_caps_headline_frozen():
    caps = s.remark_caps(LAM1, LAM2, 0.5, M_B, L_B, 8e-4, 100.0)
    assert caps["E"] == pytest.approx(E_FACTOR, rel=1e-13)
    assert caps["r_cap"] == pytest.approx(R17_CAP, rel=1e-13)
    assert caps["plus_cap"] == pytest.approx(R18_CAP, rel=1e-13)
    assert caps["minus_floor"] == pytest.approx(R19_LOW, rel=1e-13)
    assert caps["minus_top"] == pytest.approx(2e-4, rel=1e-15)
    # headline parameters sit inside the remark window
    assert 0.5 <= caps["r_cap"]
    assert 6e-5 <= caps["plus_cap"]
    assert 1.8e-4 > caps["minus_floor"]
    assert 1.8e-4 <= caps["minus_top"]


def test_condition_report_headline(headline_problem):
    rep = s.condition_report(headline_problem, 1)
    vals, flags = rep.values, rep.flags
    assert vals["lambda_N"] == pytest.approx(LAM1, rel=1e-13)
    assert vals["lambda_N1"] == pytest.approx(LAM2, rel=1e-13)
    assert vals["mu"] == pytest.approx(MU, rel=1e-13)
    assert vals["bound3"] == pytest.approx(BOUND3, rel=1e-9)
    assert vals["M1_p"] == pytest.approx(M1_P, rel=1e-9)
    assert vals["M1_full"] == pytest.approx(M1_FULL, rel=1e-9)
    assert vals["M1_n"] == pytest.approx(M1_FULL, rel=1e-9)
    assert vals["delta_p"] == pytest.approx(DELTA_P, rel=1e-9)
    assert flags["A4_pass"] and flags["A5_pass_p"]
    assert flags["bound3_pass_p"] and not flags["bound3_pass_full"]
    assert not flags["bound3_pass_n"]
    assert flags["remark17_pass"] and flags["remark18_pass"]
    assert flags["remark19_pass"]
    assert rep.verdict == "PIM_only"
    assert rep.inputs["M_xi"] == 8e-4
    assert rep.inputs["kind"] == "nicholson"


def test_condition_report_im_exists(op_headline, nl):
    ks = s.make_constant_kernel(0.5, 50, 1e-6, 1e-6, 8e-4)
    prob = s.ProblemSpec(operator=op_headline, kernel=ks, nonlinearity=nl)
    rep = s.condition_report(prob, 1)
    assert rep.flags["bound3_pass_full"]
    assert rep.verdict == "IM_exists"


def test_condition_report_neither(op_headline, nl):
    ks = s.make_constant_kernel(0.5, 50, 6e-5, 1.8e-4, 0.5)
    prob = s.ProblemSpec(operator=op_headline, kernel=ks, nonlinearity=nl)
    rep = s.condition_report(prob, 1)
    assert rep.verdict == "neither_certified"
    assert "does not assert nonexistence" in rep.note


def test_forged_constants_negative_control(op_headline, headline_kernel):
    # the p=1 constants on a p=5 spec would certify headline as PIM_only;
    # such a spec cannot be built, and the honest p=5 spec certifies nothing
    with pytest.raises(TypeError):
        s.NonlinearitySpec(p=5.0, M_b=0.5413411329464507,
                           L_b=0.4611587920072035, constants_certified=True)
    prob = s.ProblemSpec(operator=op_headline, kernel=headline_kernel,
                         nonlinearity=s.nicholson(5.0))
    assert s.condition_report(prob, 1).verdict == "neither_certified"


def test_condition_report_mu_override(headline_problem):
    rep = s.condition_report(headline_problem, 1, mu=MU / 2.0)
    assert rep.values["mu"] == pytest.approx(MU / 2.0, rel=1e-15)
    assert rep.flags["A4_pass"]
    with pytest.raises(ContractViolation):
        s.condition_report(headline_problem, 1, mu=MU * 1.5)
    with pytest.raises(ContractViolation):
        s.condition_report(headline_problem, 1, mu=0.0)


def test_condition_report_N_contracts(headline_problem):
    with pytest.raises(ContractViolation):
        s.condition_report(headline_problem, 0)
    with pytest.raises(ContractViolation):
        s.condition_report(headline_problem, headline_problem.operator.modes)
    s.condition_report(headline_problem, headline_problem.operator.modes - 1)


def test_report_verdict_invariants(headline_problem, capsys):
    rep = s.condition_report(headline_problem, 1)
    d = rep.to_dict()
    assert set(d["flags"]) == {
        "A4_pass", "A5_pass_p", "bound3_pass_full", "bound3_pass_p",
        "bound3_pass_n", "remark17_pass", "remark18_pass", "remark19_pass"}
    json.dumps(d)
    # the CSV report of the same operating point, through the CLI
    assert main(["check", str(CONFIGS / "headline.json"), "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
    assert rows["verdict"] == "PIM_only"
    assert float(rows["M1_p"]) == rep.values["M1_p"]
    assert [rows[flag] for flag in rep.flags] == [str(v) for v in rep.flags.values()]
    # the verdict follows from the flags and cannot be passed in
    for verdict in ("IM_exists", "neither_certified", "certified"):
        with pytest.raises(TypeError):
            dataclasses.replace(rep, verdict=verdict)
    with pytest.raises(TypeError):
        dataclasses.replace(rep, note="certified")
    flipped = dataclasses.replace(
        rep, flags={**rep.flags, "bound3_pass_full": True})
    assert flipped.verdict == "IM_exists"


def test_synthesize_feasible_first_hit(nl):
    res = s.synthesize_params(1, nl, 100.0)
    assert res.feasible
    r_grid, mxi_grid = search_grid("r"), search_grid("M_xi")
    assert res.params["r"] == r_grid[38]
    assert res.params["M_xi"] == mxi_grid[51]
    assert res.params["M_xi"] == 0.001
    cert = res.certificate
    assert cert["A4_pass"] and cert["A5_pass_p"] and cert["bound3_pass_p"]
    assert not cert["bound3_pass_full"] and not cert["bound3_pass_n"]
    assert cert["remark17_pass"] and cert["remark18_pass"] and cert["remark19_pass"]
    # integrals follow the margin rule
    caps = s.remark_caps((np.pi / 100.0) ** 2, (2 * np.pi / 100.0) ** 2,
                         res.params["r"], nl.M_b, nl.L_b, res.params["M_xi"],
                         100.0)
    assert res.params["plus_integral"] == pytest.approx(
        0.9 * min(caps["plus_cap"], caps["minus_top"]), rel=1e-12)
    im = 0.9 * caps["minus_top"]
    if im <= caps["minus_floor"]:  # midpoint fallback keeps the window open
        im = 0.5 * (caps["minus_floor"] + caps["minus_top"])
    assert res.params["minus_integral"] == pytest.approx(im, rel=1e-12)
    assert caps["minus_floor"] < res.params["minus_integral"] \
        <= caps["minus_top"]
    assert res.search == {"r_points": 60, "mxi_points": 120}
    # the produced parameters certify PIM_only end to end
    m = 50
    ks = s.make_constant_kernel(res.params["r"], m, res.params["plus_integral"],
                                res.params["minus_integral"], res.params["M_xi"])
    op = s.OperatorSpec(100.0, 4, 64)
    rep = s.condition_report(
        s.ProblemSpec(operator=op, kernel=ks, nonlinearity=nl), 1)
    assert rep.verdict == "PIM_only"


def test_search_grid_defaults():
    assert np.array_equal(search_grid("r"), np.logspace(-3.0, 1.0, 60))
    assert np.array_equal(search_grid("M_xi"), np.logspace(-6.0, 1.0, 120))
    # a partial override keeps the other defaults of its own grid
    assert search_grid("M_xi", points=120)[0] == 1e-6
    assert search_grid("M_xi", hi=10.0).size == 120
    for bad in ({"lo": 0.0}, {"lo": 20.0}, {"points": 0},
                {"points": MAX_GRID_POINTS + 1}):
        with pytest.raises(ContractViolation):
            search_grid("r", **bad)


def test_search_grid_takes_max_grid_points():
    assert search_grid("M_xi", points=MAX_GRID_POINTS).size == MAX_GRID_POINTS


def test_remark_caps_broadcast_bitwise():
    """Caps of a grid row (an M_xi array) and of the squeeze (r = M_xi =
    an array) have the bits of one scalar call per element."""
    lam = ((np.pi / 100.0) ** 2, (2 * np.pi / 100.0) ** 2)
    args = (0.54134113294645077, 0.46115879200720347)
    grid = search_grid("M_xi")
    for r in (0.5, grid):
        row = s.remark_caps(*lam, r, *args, grid, 100.0)
        for key, val in row.items():
            want = [s.remark_caps(*lam, np.broadcast_to(r, grid.shape)[j],
                                  *args, M_xi, 100.0)[key]
                    for j, M_xi in enumerate(grid)]
            got = np.broadcast_to(val, grid.shape)
            assert got.tobytes() == np.array(want).tobytes(), key


@pytest.fixture(scope="module")
def nls():
    return {p: s.nicholson(p) for p in (0.3, 1.0, 2.5)}


SWEEP = [(N, L, p, 0.1, None) for N in (1, 2, 3, 5)
         for L in (float(np.pi), 10.0, 100.0, 1000.0) for p in (0.3, 1.0, 2.5)]
# both README examples, which SWEEP holds at the default margin
SWEEP += [(N, L, 1.0, margin, None) for N, L in ((1, 100.0), (3, float(np.pi)))
          for margin in (0.0, 0.5)]
SWEEP += [(3, float(np.pi), 1.0, 0.1, [0.1, 1.0])]  # r grid below threshold


@pytest.mark.parametrize("N, L, p, margin, r_grid", SWEEP)
def test_synthesize_matches_cellwise_oracle(N, L, p, margin, r_grid, nls):
    got = s.synthesize_params(N, nls[p], L, margin=margin, r_grid=r_grid)
    want = reference_synthesize(N, nls[p], L, margin=margin, r_grid=r_grid)
    assert repr(got.to_dict()) == repr(want.to_dict())


def test_synthesize_caps_one_call_per_row(nl, monkeypatch):
    calls = []
    caps = sddlab.conditions.remark_caps

    def counted(*args):
        calls.append(args)
        return caps(*args)

    def never(**kwargs):
        raise AssertionError("no cell passes the structural caps")

    monkeypatch.setattr(sddlab.conditions, "remark_caps", counted)
    monkeypatch.setattr(sddlab.conditions, "evaluate_certificate", never)
    res = s.synthesize_params(3, nl, float(np.pi))
    assert res.certificate["binding_constraint"] == "xi_minus_window_empty"
    assert len(calls) <= 60 + 1


def test_synthesize_margin_zero_still_feasible(nl):
    res = s.synthesize_params(1, nl, 100.0, margin=0.0)
    assert res.feasible
    assert res.params["margin"] == 0.0


def test_synthesize_infeasible_window(nl):
    res = s.synthesize_params(3, nl, float(np.pi))
    assert not res.feasible
    assert res.params is None
    cert = res.certificate
    assert cert["binding_constraint"] == "xi_minus_window_empty"
    assert cert["r_threshold"] == pytest.approx(R_THRESHOLD_PI, rel=1e-12)
    assert cert["max_M_xi_allowed_above_threshold"] < cert["mxi_grid_floor"]
    assert cert["rejections"]["flags"] == 0
    assert "xi_minus window" in cert["detail"]


def test_synthesize_infeasible_grid_below_threshold(nl):
    res = s.synthesize_params(3, nl, float(np.pi), r_grid=np.array([0.1, 1.0]))
    assert not res.feasible
    assert res.certificate["binding_constraint"] == \
        "delay_span_grid_below_threshold"
    assert res.certificate["r_threshold"] == pytest.approx(R_THRESHOLD_PI,
                                                           rel=1e-12)


def test_synthesize_threshold_long_domain(nl):
    # r grid straddling the L=100 threshold must clear it
    res = s.synthesize_params(1, nl, 100.0, r_grid=np.array([0.3, 0.4]))
    assert res.feasible
    assert res.params["r"] == 0.4
    assert 0.3 < R_THRESHOLD_100 < 0.4


@pytest.mark.parametrize("L", [1e-160, 1e-300, 5e-324])
def test_synthesize_short_domain_is_infeasible(nl, L, monkeypatch):
    # eigenvalues that overflow certify no grid point: like condition_report,
    # the search rejects them before it scans a cell
    monkeypatch.setattr(sddlab.conditions, "remark_caps", None)
    with pytest.raises(ContractViolation, match=f"domain_length {L!r} is too small"):
        s.synthesize_params(1, nl, L)


@pytest.mark.parametrize("N", [10**300, 10**400], ids=["1e300", "1e400"])
def test_synthesize_huge_N_is_rejected(nl, N, monkeypatch):
    # lambda_{N+1} overflows, or N itself is past the float range
    monkeypatch.setattr(sddlab.conditions, "remark_caps", None)
    with pytest.raises(ContractViolation):
        s.synthesize_params(N, nl, 100.0)


def test_synthesize_and_check_share_eigenvalues(nl):
    # one eigenvalue rule: here (pi / L)^2 as a Python float and as a numpy
    # float64 differ in the last bit
    L = 29.34846742337117
    res = s.synthesize_params(1, nl, L)
    ks = s.make_constant_kernel(res.params["r"], 50, res.params["plus_integral"],
                                res.params["minus_integral"], res.params["M_xi"])
    rep = s.condition_report(
        s.ProblemSpec(operator=s.OperatorSpec(L, 4, 64), kernel=ks,
                      nonlinearity=nl), 1)
    for key in ("lambda_N", "lambda_N1"):
        assert res.certificate[key].hex() == rep.values[key].hex(), key
    assert rep.values["lambda_N"] == 0.011458529594081895


def test_synthesize_certificate_flags_branch(nl, monkeypatch, capsys):
    # no cell that passes the structural caps passes every flag
    monkeypatch.setattr(sddlab.conditions, "PIM_ONLY", {})
    cert = s.synthesize_params(1, nl, 100.0).certificate
    assert cert == {
        "binding_constraint": "certificate_flags",
        "r_threshold": R_THRESHOLD_100,
        "detail": ("grid points satisfied the structural caps but no point "
                   "passed every certificate flag"),
        "rejections": {"r_cap": 3496, "window_empty": 3422, "flags": 282},
    }
    assert sum(cert["rejections"].values()) == 60 * 120
    assert main(["synthesize", "-N", "1", "-L", "100"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "feasible": False, "params": None, "certificate": cert,
        "search": {"r_points": 60, "mxi_points": 120}}
    # the CSV keeps the scalar rows, not the rejections
    assert main(["synthesize", "-N", "1", "-L", "100", "--format", "csv"]) == 1
    assert capsys.readouterr().out == (
        "feasible,False\n"
        "binding_constraint,certificate_flags\n"
        f"r_threshold,{R_THRESHOLD_100!r}\n"
        f"detail,{cert['detail']}\n")


def test_synthesize_contracts(nl):
    with pytest.raises(ContractViolation):
        s.synthesize_params(0, nl, 100.0)
    with pytest.raises(ContractViolation):
        s.synthesize_params(1, nl, -1.0)
    with pytest.raises(ContractViolation):
        s.synthesize_params(1, nl, 100.0, margin=1.0)
    with pytest.raises(ContractViolation):
        s.synthesize_params(1, nl, 100.0, margin=-0.1)
    # feasibility follows from the params and cannot be passed in
    with pytest.raises(TypeError):
        s.SynthesisResult(feasible=True, params=None, certificate={},
                          search={})
    assert not s.SynthesisResult(params=None, certificate={}, search={}).feasible


@pytest.mark.parametrize("grid", [
    [-1.0], [0.0], [0.3, float("nan")], [float("inf")], [[0.3, 0.4]], 0.5,
    [], np.full(MAX_GRID_POINTS + 1, 0.5), ["a"], [[0.3], [0.4, 0.5]], [10**400],
], ids=["negative", "zero", "nan", "inf", "2-D", "scalar", "empty",
        "too-long", "text", "ragged", "huge-int"])
def test_synthesize_rejects_explicit_grids_search_grid_cannot_make(nl, grid):
    # r_grid=[-1.0] used to return an infeasible certificate, and
    # [[0.3, 0.4]] a numpy broadcast ValueError from remark_caps
    for key in ("r_grid", "mxi_grid"):
        with pytest.raises(ContractViolation, match=f"^{key} must be 1-D with 1 to "
                           f"MAX_GRID_POINTS = {MAX_GRID_POINTS} values"):
            s.synthesize_params(1, nl, 100.0, **{key: grid})


def test_synthesis_result_serialization(nl):
    res = s.synthesize_params(1, nl, 100.0)
    d = res.to_dict()
    json.dumps(d)
    assert d["feasible"] is True
    assert set(d) == {"feasible", "params", "certificate", "search"}
