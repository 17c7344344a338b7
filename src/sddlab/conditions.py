"""Spectral-gap certificates for low-mode attraction.

All arithmetic here uses the analytic eigenvalues lambda_k = (k pi / L)^2;
time stepping elsewhere uses the discrete ones.  The central constant is

    M1 = r sqrt(2 (L_b^2 M_xi^2 + M_b^2 l11^2 |Omega|))

with l11 the variant's kernel L^{1,1} constant.  Checked conditions:

    A4:      lambda_{N+1} - lambda_N >= 2 mu
    A5:      mu > 4 M1  and  delta = (2/mu) M1 exp((lambda_N + mu) r) <= 1/2
    bound3:  M1 <= (gap/8) exp(-(lambda_N + lambda_{N+1}) r / 2)

bound3 is the mu-free packaging: it holds iff A5 holds at mu = gap/2.
Each flag is a row of the FLAGS table, and ``evaluate_certificate`` computes
every value and flag in one pass.
A verdict is a certificate that the sufficient conditions hold for a variant;
"neither_certified" never asserts nonexistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, require_int, require_real
from .kernel import KernelVariant, l11_constant
from .nonlinear import NonlinearitySpec
from .solver import ProblemSpec
from .spectral import analytic_eigenvalues, dirichlet_eigenvalues


def m1_constant(r: float, L_b: float, M_xi: float, M_b: float, l11: float,
                domain_length: float) -> float:
    """M1 = r sqrt(2 (L_b^2 M_xi^2 + M_b^2 l11^2 L))."""
    return float(r * np.sqrt(2.0 * (L_b * L_b * M_xi * M_xi
                                    + M_b * M_b * l11 * l11 * domain_length)))


def lipschitz_M1(problem: ProblemSpec) -> float:
    """M1 for the problem's kernel/nonlinearity under its own variant."""
    nl = problem.nonlinearity
    l11 = l11_constant(problem.kernel, problem.variant)
    return m1_constant(problem.r, nl.L_b, problem.kernel.M_xi, nl.M_b, l11,
                       problem.operator.domain_length)


def remark_caps(lambda_N: float, lambda_N1: float, r: float, M_b: float,
                L_b: float, M_xi: float, domain_length: float) -> dict:
    """Sufficient per-parameter caps that together imply bound3 for variant p;
    ``r`` and ``M_xi`` may be arrays, and every cap broadcasts over them.

    r_cap:       r <= gap E / (16 L_b M_xi)
    plus_cap:    int|xi_plus| <= gap E / (16 r M_b sqrt(L))
    minus_floor: int|xi_minus| > gap E / (8 r M_b sqrt(L))  (kills the full bound)
    minus_top:   r M_xi / 2, the largest integral the sup cap allows

    with E = exp(-(lambda_N + lambda_{N+1}) r / 2).  A denominator that
    overflows (p near the float limit) or underflows makes its cap 0.0 or
    inf/NaN, and an eigenvalue sum that overflows makes E 0.0, all quietly.
    """
    gap = lambda_N1 - lambda_N
    root = np.sqrt(domain_length)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        E = np.exp(-(lambda_N + lambda_N1) * r / 2.0)
        return {
            "E": E,
            "r_cap": gap * E / (16.0 * L_b * M_xi),
            "plus_cap": gap * E / (16.0 * r * M_b * root),
            "minus_floor": gap * E / (8.0 * r * M_b * root),
            "minus_top": r * M_xi / 2.0,
        }


# flag -> the inequalities (lhs, rhs, strict) it is the AND of, each read as
# lhs < rhs when strict and lhs <= rhs otherwise.  q holds the certificate
# values, the inputs, the gap and the remark caps.  Row order is report order.
FLAGS = (
    ("A4_pass", lambda q: [(2.0 * q["mu"], q["gap"], False)]),
    ("A5_pass_p", lambda q: [(4.0 * q["M1_p"], q["mu"], True),
                             (q["delta_p"], 0.5, False)]),
    ("bound3_pass_full", lambda q: [(q["M1_full"], q["bound3"], False)]),
    ("bound3_pass_p", lambda q: [(q["M1_p"], q["bound3"], False)]),
    ("bound3_pass_n", lambda q: [(q["M1_n"], q["bound3"], False)]),
    ("remark17_pass", lambda q: [(q["r"], q["r_cap"], False)]),
    ("remark18_pass", lambda q: [(q["l11_p"], q["plus_cap"], False)]),
    ("remark19_pass", lambda q: [(q["minus_floor"], q["l11_n"], True)]),
)

# the flags of a PIM-only operating point: every row holds but the bounds of
# the full kernel and of the minus branch
PIM_ONLY = {flag: flag not in ("bound3_pass_full", "bound3_pass_n")
            for flag, _ in FLAGS}


def evaluate_certificate(*, lambda_N: float, lambda_N1: float, r: float,
                         mu: float, M_b: float, L_b: float, M_xi: float,
                         l11_p: float, l11_n: float,
                         domain_length: float) -> tuple[dict, dict]:
    """(values, flags) of the certificate at scalar inputs, in report order."""
    def m1(l11):
        return m1_constant(r, L_b, M_xi, M_b, l11, domain_length)

    gap = lambda_N1 - lambda_N
    caps = remark_caps(lambda_N, lambda_N1, r, M_b, L_b, M_xi, domain_length)
    M1_p = m1(l11_p)
    values = {
        "lambda_N": lambda_N,
        "lambda_N1": lambda_N1,
        "mu": mu,
        "M1_full": m1(max(l11_p, l11_n)),
        "M1_p": M1_p,
        "M1_n": m1(l11_n),
        "delta_p": (2.0 / mu) * M1_p * np.exp((lambda_N + mu) * r),
        "bound3": (gap / 8.0) * caps["E"],
    }
    values = {name: float(val) for name, val in values.items()}
    q = {**values, "gap": gap, "r": r, "l11_p": l11_p, "l11_n": l11_n, **caps}
    flags = {flag: all(lhs < rhs if strict else lhs <= rhs
                       for lhs, rhs, strict in rows(q))
             for flag, rows in FLAGS}
    return values, flags


@dataclass(frozen=True)
class ConditionReport:
    """The certificate at low-mode count N: ``values`` and ``flags`` in
    report order, and the inputs they came from."""

    N: int
    values: dict
    flags: dict
    inputs: dict = field(default_factory=dict)

    note = ("verdict certifies sufficient conditions for the named variant; "
            "'neither_certified' does not assert nonexistence")

    def __post_init__(self):
        gap = self.values["lambda_N1"] - self.values["lambda_N"]
        if not 0.0 < self.values["mu"] <= gap / 2.0:
            raise ContractViolation("mu must lie in (0, gap/2]")

    @property
    def verdict(self) -> str:
        """IM_exists, PIM_only or neither_certified, as the flags imply."""
        if self.flags["A4_pass"] and self.flags["bound3_pass_full"]:
            return "IM_exists"
        if self.flags["A4_pass"] and self.flags["bound3_pass_p"]:
            return "PIM_only"
        return "neither_certified"

    def to_dict(self) -> dict:
        return {"N": self.N, **self.values, "flags": dict(self.flags),
                "verdict": self.verdict, "note": self.note,
                "inputs": self.inputs}


def condition_report(problem: ProblemSpec, N: int, mu: float | None = None) -> ConditionReport:
    """Evaluate every certificate flag for low-mode count N.

    mu defaults to half the spectral gap (the largest value A4 allows).  A
    value that overflows is inf, without a warning, and fails its rows.
    """
    op = problem.operator
    if not require_int("N", N, 1) <= op.modes - 1:
        raise ContractViolation("N must be in 1..K-1 (lambda_{N+1} is needed)")
    lam = analytic_eigenvalues(op)
    lam_N, lam_N1 = float(lam[N - 1]), float(lam[N])
    gap = lam_N1 - lam_N
    mu = gap / 2.0 if mu is None else require_real("mu", mu)

    nl, ks = problem.nonlinearity, problem.kernel
    inputs = {
        "domain_length": op.domain_length,
        "modes": op.modes,
        "r": problem.r,
        "m": problem.m,
        "M_xi": ks.M_xi,
        "l11_p": l11_constant(ks, KernelVariant.P),
        "l11_n": l11_constant(ks, KernelVariant.N),
        "M_b": nl.M_b,
        "L_b": nl.L_b,
        "kind": "nicholson",
        "p": nl.p,
    }
    with np.errstate(over="ignore", invalid="ignore"):
        values, flags = evaluate_certificate(
            lambda_N=lam_N, lambda_N1=lam_N1, mu=mu,
            **{key: inputs[key] for key in ("r", "M_b", "L_b", "M_xi", "l11_p",
                                            "l11_n", "domain_length")})
    return ConditionReport(N=N, values=values, flags=flags, inputs=inputs)


@dataclass(frozen=True)
class SynthesisResult:
    """A feasible point's ``params``, or None with an infeasibility
    ``certificate``."""

    params: dict | None
    certificate: dict
    search: dict

    @property
    def feasible(self) -> bool:
        return self.params is not None

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "params": self.params,
            "certificate": self.certificate,
            "search": self.search,
        }


# synthesis search grid -> (lo, hi, points): by default it is points values
# log-spaced on [lo, hi]; no grid may have more than MAX_GRID_POINTS values
GRIDS = {"r": (1e-3, 10.0, 60), "M_xi": (1e-6, 10.0, 120)}
MAX_GRID_POINTS = 10**6


def search_grid(name: str, lo=None, hi=None, points=None) -> np.ndarray:
    """The log-spaced search grid ``name``; an end or count given as None
    takes its GRIDS default."""
    lo, hi, points = (default if val is None else val
                      for val, default in zip((lo, hi, points), GRIDS[name]))
    if not (lo > 0.0 and hi > lo and 1 <= points <= MAX_GRID_POINTS):
        raise ContractViolation("need 0 < min < max and 1 <= points <= "
                                f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return np.logspace(math.log10(lo), math.log10(hi), points)


def _explicit_grid(name: str, values) -> np.ndarray:
    """A grid passed to synthesize_params as a float array; like one from
    search_grid it must be 1-D with 1 .. MAX_GRID_POINTS values, each finite
    and > 0."""
    try:
        grid = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, text, a huge int
        grid = np.empty(0)
    if not (grid.ndim == 1 and 1 <= grid.size <= MAX_GRID_POINTS
            and np.isfinite(grid).all() and (grid > 0.0).all()):
        raise ContractViolation(
            f"{name} must be 1-D with 1 to MAX_GRID_POINTS = {MAX_GRID_POINTS} "
            "values, each a finite number > 0")
    return grid


def synthesize_params(N: int, nonlinearity: NonlinearitySpec, domain_length: float,
                      margin: float = 0.1, r_grid=None, mxi_grid=None) -> SynthesisResult:
    """Search (r, M_xi) grids for a PIM-only operating point at low-mode count N.

    At each grid point the plus integral is set to (1 - margin) times its
    sufficient cap and the minus integral inside (minus_floor, r M_xi / 2].
    Returns the first feasible point in lexicographic (r, M_xi) order, or an
    infeasibility certificate naming the binding constraint.
    """
    require_int("N", N, 1)
    L = require_real("domain_length", domain_length)
    if not require_real("margin", margin, ">=") < 1.0:
        raise ContractViolation("margin must lie in [0, 1)")
    r_grid = search_grid("r") if r_grid is None else _explicit_grid("r_grid", r_grid)
    mxi_grid = (search_grid("M_xi") if mxi_grid is None
                else _explicit_grid("mxi_grid", mxi_grid))
    search = {"r_points": int(r_grid.size), "mxi_points": int(mxi_grid.size)}

    lam_N, lam_N1 = dirichlet_eigenvalues(L, [N, N + 1]).tolist()
    mu = (lam_N1 - lam_N) / 2.0
    M_b, L_b = nonlinearity.M_b, nonlinearity.L_b
    # the minus window (minus_floor, r M_xi / 2] is nonempty only for r above this
    with np.errstate(over="ignore", divide="ignore"):
        r_threshold = 4.0 * L_b / (M_b * np.sqrt(L))

    rejections = {"r_cap": 0, "window_empty": 0, "flags": 0}

    for r in r_grid:
        # a row at a time: count its cap rejections, certify the rest in order
        caps = remark_caps(lam_N, lam_N1, r, M_b, L_b, mxi_grid, L)
        hi, floor = caps["minus_top"], caps["minus_floor"]
        r_capped = r > caps["r_cap"]
        empty = ~r_capped & (floor >= hi)
        rejections["r_cap"] += int(r_capped.sum())
        rejections["window_empty"] += int(empty.sum())
        ip = (1.0 - margin) * np.minimum(caps["plus_cap"], hi)
        im = (1.0 - margin) * hi
        im = np.where(im <= floor, 0.5 * (floor + hi), im)
        for j in np.flatnonzero(~(r_capped | empty)):
            values, flags = evaluate_certificate(
                lambda_N=lam_N, lambda_N1=lam_N1, r=float(r), mu=mu,
                M_b=M_b, L_b=L_b, M_xi=float(mxi_grid[j]),
                l11_p=ip[j], l11_n=im[j], domain_length=L)
            if flags != PIM_ONLY:
                rejections["flags"] += 1
                continue
            return SynthesisResult(
                params={
                    "N": N,
                    "domain_length": L,
                    "r": float(r),
                    "M_xi": float(mxi_grid[j]),
                    "plus_integral": float(ip[j]),
                    "minus_integral": float(im[j]),
                    "margin": margin,
                },
                certificate={**values, **flags}, search=search)

    # infeasible: name the binding constraint with the numbers that bind
    window = "xi_minus window (minus_floor, r*M_xi/2]"
    rs_above = r_grid[r_grid > r_threshold]
    extra = {}
    if rs_above.size == 0:
        binding = "delay_span_grid_below_threshold"
        detail = (f"the {window} is empty for every r <= {r_threshold!r} and no "
                  "r in the search grid exceeds that threshold")
    elif rejections["flags"] > 0:
        binding = "certificate_flags"
        detail = ("grid points satisfied the structural caps but no point "
                  "passed every certificate flag")
    else:
        # every grid point died on a structural cap; quantify the squeeze: for
        # r above the threshold the r-cap, symmetric in r and M_xi, bounds M_xi
        binding = "xi_minus_window_empty"
        mxi_cap = float(remark_caps(lam_N, lam_N1, rs_above, M_b, L_b,
                                    rs_above, L)["r_cap"].max())
        mxi_floor = float(mxi_grid.min())
        extra = {"rejections": rejections}  # listed first; keeps its place below
        detail = ("every surveyed (r, M_xi) pair fails the r cap or has an "
                  f"empty {window}")
        if mxi_cap < mxi_floor:
            extra.update(max_M_xi_allowed_above_threshold=mxi_cap,
                         mxi_grid_floor=mxi_floor)
            detail = (f"the {window} is nonempty only for r > {r_threshold!r}, and for"
                      " every grid r above that threshold the r-cap forces M_xi <= "
                      f"{mxi_cap!r}, below the smallest grid value {mxi_floor!r}")
    certificate = {"binding_constraint": binding, "r_threshold": float(r_threshold),
                   **extra, "detail": detail, "rejections": rejections}
    return SynthesisResult(params=None, certificate=certificate, search=search)
