"""Randomized verification harnesses for the structural claims of the model.

Four experiments: cone invariance (the flow preserves the sign cones),
exact coincidence (variant p equals full on the positive cone, bitwise),
Lipschitz sampling (the kernel and delay-term bounds hold on random pairs),
and attraction rate (high-mode differences contract exponentially under the
certified variant; the measurable proxy for low-mode attraction).

Trials use per-trial generators seeded base + index, so runs are
reproducible and trial order is irrelevant.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from itertools import islice, tee
from typing import Iterable, Iterator, Optional

import numpy as np

from .conditions import condition_report, lipschitz_M1
from .errors import ContractViolation
from .history import (HistorySegment, norm_C, norm_L1L1, theta_weights)
from .kernel import (KernelVariant, combine_profiles, gates, l11_constant,
                     sign_masses)
from .nonlinear import b_eval
from .solver import ProblemSpec, evolve, steps_for_horizon
from .spectral import (GridField, ModeVector, OperatorSpec, field_l2_norm,
                       forward, inverse)

FAMILIES = ("random_positive_fourier", "random_signed_fourier",
            "gaussian_bumps", "constant")
POSITIVE_FAMILIES = ("random_positive_fourier", "gaussian_bumps", "constant")

BATCH_ROWS = 64  # histories stepped together; bounds memory, results do not depend on it
CONE_TOL = 1e-12
B1_TOL = 1e-8
KERNEL_TOL = 1e-10
NOISE_FLOOR = 1e-13
MIN_FIT_SAMPLES = 10
R2_MIN = 0.9


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int
    seed: int
    horizon: float
    family: str = "random_positive_fourier"
    amplitude: float = 1.0
    stride: int = 10
    alpha_min: Optional[float] = None

    def __post_init__(self):
        if not (isinstance(self.trials, int) and not isinstance(self.trials, bool)
                and self.trials >= 1):
            raise ContractViolation("trials must be an int >= 1")
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool)
                and self.seed >= 0):
            raise ContractViolation("seed must be an int >= 0")
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ContractViolation("horizon must be finite and > 0")
        if self.family not in FAMILIES:
            raise ContractViolation(f"family must be one of {FAMILIES}")
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ContractViolation("amplitude must be finite and >= 0")
        if not (isinstance(self.stride, int) and not isinstance(self.stride, bool)
                and self.stride >= 1):
            raise ContractViolation("stride must be an int >= 1")


@dataclass(frozen=True)
class ExperimentResult:
    """pass/fail plus per-trial metrics; informational results never gate."""

    name: str
    passed: bool
    trials: list
    summary: dict
    informational: bool = False

    def summary_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "informational": self.informational,
            "summary": self.summary,
        }

    def to_dict(self) -> dict:
        out = self.summary_dict()
        out["trials"] = self.trials
        return out


def _fourier_field(op: OperatorSpec, rng: np.random.Generator,
                   amplitude: float, lowest: int = 1) -> np.ndarray:
    """A sine series with N(0, amplitude/k) coefficients on modes lowest..K."""
    k = np.arange(1, op.modes + 1, dtype=float)
    coeffs = np.zeros(op.modes)
    coeffs[lowest - 1:] = rng.normal(0.0, amplitude / k[lowest - 1:])
    return inverse(op, ModeVector(coeffs)).values


def make_initial_history(op: OperatorSpec, r: float, m: int, family: str,
                         amplitude: float, rng: np.random.Generator,
                         sign: float = 1.0) -> HistorySegment:
    """Draw one history segment; draws are independent of m (m only samples
    the underlying theta-smooth object), so refinements share initial data."""
    if family not in FAMILIES:
        raise ContractViolation(f"family must be one of {FAMILIES}")
    if not amplitude >= 0.0:
        raise ContractViolation("amplitude must be >= 0")
    s = (np.arange(m + 1) / m)[:, None]
    if family == "constant":
        rows = np.full((m + 1, op.grid_points), amplitude)
    elif family == "random_signed_fourier":
        f0 = _fourier_field(op, rng, amplitude)
        f1 = _fourier_field(op, rng, amplitude)
        rows = (1.0 - s) * f0 + s * f1
    elif family == "random_positive_fourier":
        # clip then offset: strict interior of the positive cone
        g0 = np.maximum(_fourier_field(op, rng, amplitude), 0.0)
        g1 = np.maximum(_fourier_field(op, rng, amplitude), 0.0)
        rows = (1.0 - s) * g0 + s * g1 + amplitude
    else:  # gaussian_bumps
        x = op.nodes()
        L = op.domain_length
        field = np.zeros(op.grid_points)
        for _ in range(3):
            a = rng.uniform(0.25, 1.0)
            c = rng.uniform(0.2, 0.8) * L
            w = rng.uniform(0.05, 0.15) * L
            field += a * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        rows = (0.7 + 0.3 * s) * (amplitude * field)
    if sign != 1.0:
        rows = rows * sign
    return HistorySegment(operator=op, r=r, m=m, values=rows)


def _draw(problem: ProblemSpec, cfg: ExperimentConfig,
          rng: np.random.Generator, sign: float = 1.0) -> HistorySegment:
    """One initial history of the configured family on the problem's window."""
    return make_initial_history(problem.operator, problem.r, problem.m,
                                cfg.family, cfg.amplitude, rng, sign=sign)


def _summary(cfg: ExperimentConfig, **fields) -> dict:
    """A run's summary: its own fields plus the configuration every run reports."""
    return {**fields, "trials": cfg.trials, "family": cfg.family,
            "amplitude": cfg.amplitude, "seed": cfg.seed}


def cone_sign(family: str, cone: str) -> float:
    """+1.0 or -1.0, the sign that maps draws of ``family`` into ``cone``;
    rejects a cone name or a family that does not give cone members."""
    if cone not in ("positive", "negative"):
        raise ContractViolation("cone must be 'positive' or 'negative'")
    if family not in POSITIVE_FAMILIES:
        raise ContractViolation(
            f"family {family!r} does not produce members of the {cone} cone")
    return 1.0 if cone == "positive" else -1.0


def _evolve_batched(problem: ProblemSpec, phis: Iterable[HistorySegment],
                    steps: int, **kwargs) -> Iterator:
    """``evolve`` over the histories BATCH_ROWS at a time; yields one record
    per history, in order, so a failure surfaces in the order of a loop."""
    it = iter(phis)
    while batch := list(islice(it, BATCH_ROWS)):
        yield from evolve(problem, batch, steps, **kwargs)


def run_cone_invariance(problem: ProblemSpec, cfg: ExperimentConfig,
                        cone: str = "positive") -> ExperimentResult:
    """Evolve cone members and record the worst signed excursion per trial."""
    sign = cone_sign(cfg.family, cone)
    phis = (_draw(problem, cfg, np.random.default_rng(cfg.seed + i), sign)
            for i in range(cfg.trials))
    recs = _evolve_batched(problem, phis,
                           steps_for_horizon(problem.kernel, cfg.horizon),
                           stride=cfg.stride)

    rows = []
    for i, rec in enumerate(recs):
        extreme = rec.min_overall if cone == "positive" else rec.max_overall
        violation = max(0.0, -sign * extreme)
        rows.append({"trial": i, "extreme": extreme, "violation": violation,
                     "passed": violation <= CONE_TOL})
    max_violation = max(row["violation"] for row in rows)
    passed = all(row["passed"] for row in rows)
    summary = _summary(cfg, cone=cone, variant=problem.variant.value,
                       tolerance=CONE_TOL, max_violation=max_violation,
                       horizon=cfg.horizon)
    return ExperimentResult(name=f"cone_invariance_{cone}", passed=passed,
                            trials=rows, summary=summary)


def _negate_node(phi: HistorySegment, amplitude: float) -> HistorySegment:
    """Flip one interior node strictly negative (coincidence witness datum)."""
    rows = phi.values.copy()
    j = phi.m // 2
    i = phi.operator.grid_points // 2
    rows[j, i] = -max(abs(rows[j, i]), amplitude)
    return HistorySegment(operator=phi.operator, r=phi.r, m=phi.m, values=rows)


def run_coincidence(problem: ProblemSpec, cfg: ExperimentConfig,
                    cone: str = "positive",
                    include_witness: bool = True) -> ExperimentResult:
    """Variant full vs the one-sided variant on cone data; distance must be
    exactly zero (both runs take bitwise-identical evaluation paths)."""
    sign = cone_sign(cfg.family, cone)
    one_sided = KernelVariant.P if cone == "positive" else KernelVariant.N
    steps = steps_for_horizon(problem.kernel, cfg.horizon)
    op = problem.operator
    witness = include_witness and cone == "positive"

    def draws() -> Iterator[HistorySegment]:
        """The trials, then the witness datum drawn with seed + trials."""
        for i in range(cfg.trials + witness):
            phi = _draw(problem, cfg, np.random.default_rng(cfg.seed + i), sign)
            yield _negate_node(phi, cfg.amplitude) if i == cfg.trials else phi

    # both variants read one lazy stream; tee holds at most a batch between them
    runs = [_evolve_batched(replace(problem, variant=variant), phis, steps,
                            stride=cfg.stride, record_fields=True)
            for variant, phis in zip((KernelVariant.FULL, one_sided), tee(draws()))]

    def pair_distance(rec_a, rec_b) -> float:
        diff = rec_a.fields - rec_b.fields
        return float(np.sqrt(op.h_x * (diff * diff).sum(axis=1)).max())

    dists = [pair_distance(rec_a, rec_b) for rec_a, rec_b in zip(*runs)]
    rows = [{"trial": i, "distance": dist, "informational": False,
             "passed": dist == 0.0} for i, dist in enumerate(dists[:cfg.trials])]
    witness_distance = None
    if witness:
        witness_distance = dists[-1]
        rows.append({"trial": -1, "distance": witness_distance,
                     "informational": True, "passed": True})
    regular = [row for row in rows if not row["informational"]]
    passed = all(row["passed"] for row in regular)
    summary = _summary(cfg, cone=cone, variants=["full", one_sided.value],
                       tolerance=0.0,
                       max_distance=max(row["distance"] for row in regular),
                       witness_distance=witness_distance, horizon=cfg.horizon)
    return ExperimentResult(name=f"coincidence_{cone}", passed=passed,
                            trials=rows, summary=summary)


def run_lipschitz_sampling(problem: ProblemSpec,
                           cfg: ExperimentConfig) -> ExperimentResult:
    """Sample segment pairs and check the kernel and delay-term bounds.

    Kernel bound:      int |xi(., v1) - xi(., v2)| <= l11 * ||v1 - v2||_L1L1
    Delay-term bound:  ||B1(v1) - B1(v2)||_L2 <= M1 * ||v1 - v2||_C

    per variant with its own constants.  Pair types cycle: independent draws,
    a scaled copy, and a nearby perturbation (covers clipped and unclipped
    gate regimes).  Zero-difference pairs are skipped.  Each segment's sign
    masses and gates are computed once; xi and B1 are then the expressions of
    ``eval_xi`` and ``delay_term``, so every ratio has their bits.
    """
    op = problem.operator
    ks = problem.kernel
    nl = problem.nonlinearity
    tw = theta_weights(ks.r, ks.m)
    m1 = {var: lipschitz_M1(problem, var) for var in KernelVariant}
    l11 = {var: l11_constant(ks, var) for var in KernelVariant}

    def evaluate(values: np.ndarray) -> tuple[dict, np.ndarray]:
        """Every variant's xi on one segment, and the run variant's B1."""
        s_plus, s_minus = gates(tw, sign_masses(values, op.h_x))
        xi = {var: combine_profiles(ks, s_plus, s_minus, var)
              for var in KernelVariant}
        return xi, (tw * xi[problem.variant]) @ b_eval(nl, values)

    def trial(i: int) -> dict:
        rng = np.random.default_rng(cfg.seed + i)
        v1 = _draw(problem, cfg, rng).values
        kind = ("independent", "scaled", "near")[i % 3]
        if kind == "independent":
            v2 = _draw(problem, cfg, rng).values
        elif kind == "scaled":
            v2 = rng.uniform(0.0, 2.0) * v1
        else:
            v2 = v1 + 1e-4 * _draw(problem, cfg, rng).values
        delta = HistorySegment(operator=op, r=problem.r, m=problem.m,
                               values=v1 - v2)
        dC = norm_C(delta)
        if dC == 0.0:
            return {"trial": i, "pair": kind, "status": "skipped",
                    "b1_ratio": None, "kernel_ratio_full": None,
                    "kernel_ratio_p": None, "kernel_ratio_n": None,
                    "passed": True}
        d11 = norm_L1L1(delta)
        (xi1, b1), (xi2, b2) = evaluate(v1), evaluate(v2)
        row = {"trial": i, "pair": kind, "status": "ok"}
        ok = True
        for var in KernelVariant:
            num = float(np.dot(tw, np.abs(xi1[var] - xi2[var])))
            ratio = 0.0 if num == 0.0 else num / (l11[var] * d11)
            row[f"kernel_ratio_{var.value}"] = ratio
            ok = ok and ratio <= 1.0 + KERNEL_TOL
        num = field_l2_norm(op, GridField(b1 - b2))
        ratio = 0.0 if num == 0.0 else num / (m1[problem.variant] * dC)
        row["b1_ratio"] = ratio
        ok = ok and ratio <= 1.0 + B1_TOL
        row["passed"] = ok
        return row

    rows = [trial(i) for i in range(cfg.trials)]
    used = [row for row in rows if row["status"] == "ok"]
    kernel_ratios = [row[f"kernel_ratio_{var.value}"] for row in used
                     for var in KernelVariant]
    b1_ratios = [row["b1_ratio"] for row in used]
    passed = all(row["passed"] for row in rows)
    summary = _summary(
        cfg, variant=problem.variant.value, b1_tolerance=B1_TOL,
        kernel_tolerance=KERNEL_TOL,
        max_b1_ratio=max(b1_ratios) if b1_ratios else None,
        max_kernel_ratio=max(kernel_ratios) if kernel_ratios else None,
        M1=m1[problem.variant], pairs_used=len(used),
        pairs_skipped=len(rows) - len(used),
        **{f"l11_{var.value}": l11[var] for var in KernelVariant})
    return ExperimentResult(name="lipschitz_sampling", passed=passed,
                            trials=rows, summary=summary)


def _fit_log_linear(t: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log q against t; returns (alpha_hat, R2)."""
    y = np.log(q)
    A = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ np.array([slope, intercept])
    ss_res = float(((y - fit) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r2)


def _high_mode_perturbation(op: OperatorSpec, N: int, amplitude: float,
                            rng: np.random.Generator) -> np.ndarray:
    """A field supported on modes N+1..K, sup-normalized to 0.4 * amplitude."""
    field = _fourier_field(op, rng, amplitude, lowest=N + 1)
    peak = np.abs(field).max()
    if peak == 0.0:
        return field
    return field * (0.4 * amplitude / peak)


def run_attraction_rate(problem: ProblemSpec, cfg: ExperimentConfig,
                        N: int) -> ExperimentResult:
    """Fit the exponential decay rate of high-mode trajectory differences.

    Pairs differ by a theta-constant perturbation supported on modes above N,
    so the high-mode component q(t) = ||(1-P_N)(u1-u2)|| starts at the full
    difference norm.  Fit window: samples after one delay span r, above the
    noise floor, before the pair enters the slaving cone q <= ||P_N delta||.
    Pass: median fitted rate >= alpha_min with median R2 >= 0.9, or every
    conclusive pair is slaved.  Too-short windows are inconclusive, not
    failures.
    """
    cone_sign(cfg.family, "positive")
    report = condition_report(problem, N)
    if not (report.flags["A4_pass"] and report.flags["A5_pass_p"]):
        raise ContractViolation(
            "attraction precondition failed: A4/A5 must pass for variant p "
            f"at N={N}")
    op = problem.operator
    mu = report.values["mu"]
    alpha_min = cfg.alpha_min if cfg.alpha_min is not None else mu / 2.0

    def pair(i: int):
        rng = np.random.default_rng(cfg.seed + i)
        phi1 = _draw(problem, cfg, rng)
        pert = _high_mode_perturbation(op, N, cfg.amplitude, rng)
        return phi1, HistorySegment(operator=op, r=problem.r, m=problem.m,
                                    values=phi1.values + pert[None, :])

    recs = _evolve_batched(replace(problem, variant=KernelVariant.P),
                           (phi for i in range(cfg.trials) for phi in pair(i)),
                           steps_for_horizon(problem.kernel, cfg.horizon),
                           stride=cfg.stride, record_fields=True)

    def trial(i: int, rec1, rec2) -> dict:
        diff = rec1.fields - rec2.fields
        full2 = op.h_x * (diff * diff).sum(axis=1)
        row = {"trial": i, "status": "skipped", "alpha_hat": None, "r2": None,
               "q0": 0.0, "cone_entry_t": None, "n_window": 0}
        if full2[0] == 0.0:
            return row
        low = forward(op, GridField(diff)).coeffs[:, :N]
        p2 = (low * low).sum(axis=1)
        q = np.sqrt(np.maximum(full2 - p2, 0.0))
        pn = np.sqrt(p2)
        t = rec1.times
        in_cone = q <= pn
        cone_idx = int(np.argmax(in_cone)) if bool(in_cone.any()) else None
        window = (t >= problem.r - 1e-12) & (q >= NOISE_FLOOR)
        if cone_idx is not None:
            window &= np.arange(t.size) < cone_idx
        n_window = int(window.sum())
        entry_t = None if cone_idx is None else float(t[cone_idx])
        row.update(status="inconclusive", q0=float(q[0]), n_window=n_window)
        if n_window >= MIN_FIT_SAMPLES:
            alpha_hat, r2 = _fit_log_linear(t[window], q[window])
            row.update(status="fit", alpha_hat=alpha_hat, r2=r2,
                       cone_entry_t=entry_t)
        elif cone_idx is not None and bool(in_cone[cone_idx:].all()):
            row.update(status="slaved", cone_entry_t=entry_t)
        return row

    # zip(recs, recs) takes the records two at a time: (phi1, phi2) of a pair
    rows = [trial(i, rec1, rec2) for i, (rec1, rec2) in enumerate(zip(recs, recs))]
    fits = [row for row in rows if row["status"] == "fit"]
    slaved = [row for row in rows if row["status"] == "slaved"]
    inconclusive = [row for row in rows if row["status"] == "inconclusive"]
    median_alpha = float(np.median([row["alpha_hat"] for row in fits])) if fits else None
    median_r2 = float(np.median([row["r2"] for row in fits])) if fits else None
    informational = False
    if fits:
        passed = median_alpha >= alpha_min and median_r2 >= R2_MIN
    elif slaved and not inconclusive:
        passed = True
    else:
        passed = False
        informational = True  # nothing conclusive either way
    summary = _summary(
        cfg, N=N, mu=mu, alpha_min=alpha_min, r2_min=R2_MIN,
        median_alpha=median_alpha, median_r2=median_r2,
        noise_floor=NOISE_FLOOR, min_fit_samples=MIN_FIT_SAMPLES,
        window_policy="samples with t >= r, q >= noise floor, before cone entry",
        n_fit=len(fits), n_slaved=len(slaved), n_inconclusive=len(inconclusive),
        n_skipped=len(rows) - len(fits) - len(slaved) - len(inconclusive),
        variant="p", horizon=cfg.horizon, stride=cfg.stride)
    return ExperimentResult(name="attraction_rate", passed=passed, trials=rows,
                            summary=summary, informational=informational)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(results: list, out_dir: str, format: str = "both") -> list[str]:
    """Write summary.json (summary statistics) and one CSV of per-trial rows
    per experiment into out_dir.  Deterministic: no timestamps, repr floats."""
    if format not in ("json", "csv", "both"):
        raise ContractViolation("format must be 'json', 'csv', or 'both'")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if format in ("json", "both"):
        path = os.path.join(out_dir, "summary.json")
        payload = [res.summary_dict() for res in results]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    if format in ("csv", "both"):
        for res in results:
            path = os.path.join(out_dir, f"{res.name}.csv")
            keys = []
            for row in res.trials:
                for key in row:
                    if key not in keys:
                        keys.append(key)
            lines = []
            if keys:
                lines.append(",".join(keys))
                for row in res.trials:
                    lines.append(",".join(_csv_cell(row.get(key)) for key in keys))
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
            written.append(path)
    return written
