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
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .conditions import condition_report, lipschitz_M1
from .errors import ContractViolation, require_int, require_real
from .history import (HistorySegment, _snapshot_l1, _snapshot_l2, _theta_dot,
                      theta_weights)
from .kernel import (KernelVariant, combine_profiles, gates, l11_constant,
                     sign_masses)
from .nonlinear import b_eval
from .solver import ProblemSpec, evolve, sample_count, steps_for_horizon
from .spectral import (GridField, ModeVector, OperatorSpec, field_l2_norm,
                       forward, inverse)

FAMILIES = ("random_positive_fourier", "random_signed_fourier",
            "gaussian_bumps", "constant")
POSITIVE_FAMILIES = ("random_positive_fourier", "gaussian_bumps", "constant")

# rows per evolve call; results do not depend on it.  It bounds the rings and
# histories of one call: the runners reduce each sample as it is taken and
# keep no sampled states
BATCH_ROWS = 64
# Lipschitz pairs drawn and put through phase 1 together; results do not
# depend on it.  Measured on headline (60-pair jobs): 11.9 ms at 2, against
# 13.6 ms at 1 and 11.2, 11.3, 11.4 and 11.8 ms at 3 to 6; each pair adds 3
# segments (52 KB each) to the draw buffer, 4 to the scratch and 2 to every
# temporary, so 3 would raise a 60-pair job's traced peak from 0.95 to 1.42 MB
PAIR_CHUNK = 2
PAIR_KINDS = ("independent", "scaled", "near")
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
        # checked, not converted: the summaries report the values as given
        require_int("trials", self.trials, 1)
        require_int("seed", self.seed, 0)
        require_real("horizon", self.horizon)
        if self.family not in FAMILIES:
            raise ContractViolation(f"family must be one of {FAMILIES}")
        require_real("amplitude", self.amplitude, ">=")
        require_int("stride", self.stride, 1)
        if self.alpha_min is not None:
            require_real("alpha_min", self.alpha_min)


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


_FOURIER_FAMILIES = ("random_signed_fourier", "random_positive_fourier")


def _fourier_coeffs(op: OperatorSpec, rng: np.random.Generator,
                    amplitude: float, rows: int = 2,
                    lowest: int = 1) -> np.ndarray:
    """(rows, K) sine coefficients, N(0, amplitude/k) on modes lowest..K and
    0 below, with the bits of one ``rng.normal(0.0, amplitude / k)`` call per
    row: that call makes each element 0.0 + scale * z from one standard
    normal z, in C order, which one standard_normal call for all rows does
    too, without normal's check of the scales."""
    k = np.arange(lowest, op.modes + 1, dtype=float)
    coeffs = np.zeros((rows, op.modes))
    coeffs[:, lowest - 1:] = 0.0 + (amplitude / k) * rng.standard_normal(
        (rows, k.size))
    return coeffs


def _draw_params(op: OperatorSpec, family: str, amplitude: float,
                 rng: np.random.Generator) -> np.ndarray:
    """The random parameters of one history, in a fixed rng order: the (2, K)
    sine coefficients of its two end fields, the (3, 3) height, center and
    width of its bumps, or nothing for ``constant``."""
    if family in _FOURIER_FAMILIES:
        return _fourier_coeffs(op, rng, amplitude)
    if family == "gaussian_bumps":
        L = op.domain_length
        return np.array([(rng.uniform(0.25, 1.0), rng.uniform(0.2, 0.8) * L,
                          rng.uniform(0.05, 0.15) * L) for _ in range(3)])
    return np.empty(0)


def _histories(op: OperatorSpec, m: int, family: str, amplitude: float,
               params: np.ndarray, sign: float = 1.0,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """The (P, m+1, n_x) histories of a stack of P draws' parameters, written
    into ``out`` if given.  Every end field comes from one ``inverse`` call,
    whose rows have the bits of per-row calls; the rest is elementwise (in
    place, in the order of the expressions), so each history has the bits of
    a stack of one."""
    if out is None:
        out = np.empty((len(params), m + 1, op.grid_points))
    s = (np.arange(m + 1) / m)[:, None]
    if family == "constant":
        out[...] = amplitude
    elif family in _FOURIER_FAMILIES:
        ends = inverse(op, ModeVector(params.reshape(-1, op.modes))).values
        ends = ends.reshape(len(params), 2, 1, op.grid_points)
        if family == "random_positive_fourier":
            # clip then offset: strict interior of the positive cone
            ends = np.maximum(ends, 0.0)
        # (1 - s) * f0 + s * f1, plus the offset of the positive family
        np.multiply(1.0 - s, ends[:, 0], out=out)
        for rows, end in zip(out, ends[:, 1]):  # no stack-sized temporary
            rows += s * end
        if family == "random_positive_fourier":
            out += amplitude
    else:  # gaussian_bumps
        x = op.nodes()
        field = np.zeros((len(params), op.grid_points))
        for a, c, w in params.transpose(1, 2, 0)[..., None]:
            field += a * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        np.multiply(0.7 + 0.3 * s, amplitude * field[:, None], out=out)
    if sign != 1.0:
        out *= sign
    return out


def make_initial_history(op: OperatorSpec, r: float, m: int, family: str,
                         amplitude: float, rng: np.random.Generator,
                         sign: float = 1.0) -> HistorySegment:
    """Draw one history segment: the parameters from ``rng``, then the
    segment from the same field build that makes a stack of draws.  Draws
    are independent of m (m only samples the underlying theta-smooth
    object), so refinements share initial data."""
    if family not in FAMILIES:
        raise ContractViolation(f"family must be one of {FAMILIES}")
    require_real("amplitude", amplitude, ">=")
    require_int("m", m, 1)
    params = _draw_params(op, family, amplitude, rng)
    rows = _histories(op, m, family, amplitude, params[None], sign)[0]
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


def _evolve_batched(problem: ProblemSpec, cfg: ExperimentConfig,
                    data: Iterable[tuple], variants: tuple,
                    observe: Optional[Callable] = None) -> Iterator[list]:
    """``evolve`` over ``data``, tuples of histories whose position j steps
    under ``variants[j]``, to the horizon and at the stride of ``cfg``: one
    call per BATCH_ROWS rows of data (at least one datum), laid out as
    [position 0 of every datum, then position 1, ...].  Yields each datum's
    records in order; a failure is the one that stepping a batch one
    position at a time would raise first.

    ``observe(data_rows, index, states)``, if given, sees every sample of
    every call: ``data_rows`` is the slice of the call's data in ``data``
    and ``states`` the read-only (len(variants), n, n_x) view of the
    sample's states, position j of datum ``data_rows.start + i`` at [j, i]."""
    steps = steps_for_horizon(problem.kernel, cfg.horizon)
    it, first = iter(data), 0
    while batch := list(islice(it, max(1, BATCH_ROWS // len(variants)))):
        data_rows = slice(first, first + len(batch))

        def observe_call(index: int, states: np.ndarray):
            observe(data_rows, index, states.reshape(len(variants), len(batch), -1))

        recs = evolve(problem, [phi for column in zip(*batch) for phi in column],
                      steps, stride=cfg.stride,
                      variants=[var for var in variants for _ in batch],
                      observe=observe_call if observe else None)
        yield from (recs[i::len(batch)] for i in range(len(batch)))
        first = data_rows.stop


def run_cone_invariance(problem: ProblemSpec, cfg: ExperimentConfig,
                        cone: str = "positive") -> ExperimentResult:
    """Evolve cone members and record the worst signed excursion per trial."""
    sign = cone_sign(cfg.family, cone)
    data = ((_draw(problem, cfg, np.random.default_rng(cfg.seed + i), sign),)
            for i in range(cfg.trials))
    rows = []
    for i, (rec,) in enumerate(_evolve_batched(problem, cfg, data, (problem.variant,))):
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
    exactly zero.  The two variants evaluate different expressions: the
    one-sided one keeps only the term of its cone, and on the cone the other
    term's gate is exactly 0.0, so both give the same bits there.

    Each datum (phi, phi) steps under (full, one-sided), so an ``evolve``
    call steps BATCH_ROWS / 2 data as [full x n, one-sided x n]; the lowest
    failed row is the one a full run ahead of a one-sided run raises first."""
    sign = cone_sign(cfg.family, cone)
    one_sided = KernelVariant.P if cone == "positive" else KernelVariant.N
    witness = include_witness and cone == "positive"

    def data() -> Iterator[tuple]:
        """The trials, then the witness datum drawn with seed + trials."""
        for i in range(cfg.trials + witness):
            phi = _draw(problem, cfg, np.random.default_rng(cfg.seed + i), sign)
            phi = _negate_node(phi, cfg.amplitude) if i == cfg.trials else phi
            yield phi, phi

    # each datum's running max over its samples of the L2 distance
    max_dist = np.zeros(cfg.trials + witness)

    def observe(data_rows: slice, index: int, states: np.ndarray):
        full, one = states
        np.maximum(max_dist[data_rows], _snapshot_l2(full - one, problem.operator.h_x),
                   out=max_dist[data_rows])

    for _ in _evolve_batched(problem, cfg, data(), (KernelVariant.FULL, one_sided),
                             observe):
        pass
    dists = max_dist.tolist()
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


def _pair_scalars(problem: ProblemSpec, pairs: np.ndarray,
                  scratch: np.ndarray) -> tuple:
    """Phase 1 of the Lipschitz check on a (2, P, m+1, n_x) stack of pairs
    (v1, v2), sign_masses and b_eval writing into a (2, >= 2P, m+1, n_x)
    ``scratch``: the (2, 2, P) gates [(+, -)][(v1, v2)], the C and L1L1 norms
    of v1 - v2 and the L2 norm of B1(v1) - B1(v2), each pair with the bits of
    the serial oracles in tests/reference.py."""
    op, ks = problem.operator, problem.kernel
    tw = theta_weights(ks.r, ks.m)
    P = pairs.shape[1]
    both = pairs.reshape(2 * P, *pairs.shape[2:])
    work = scratch[:, :2 * P]
    g = gates(tw, sign_masses(both, op.h_x, scratch=work))
    delta = pairs[0] - pairs[1]
    dC = _snapshot_l2(delta, op.h_x).max(axis=-1)
    d11 = _theta_dot(tw, _snapshot_l1(delta, op.h_x))
    xi = combine_profiles(ks, *g[..., None], problem.variant)
    b1 = np.matmul((tw * xi)[:, None, :],
                   b_eval(problem.nonlinearity, both, scratch=work))[:, 0]
    dB = field_l2_norm(op, GridField(b1[:P] - b1[P:]))
    return g.reshape(2, 2, P), dC, d11, dB


def _pair_columns(problem: ProblemSpec, g: np.ndarray, dC: np.ndarray,
                  d11: np.ndarray, dB: np.ndarray) -> dict:
    """Phase 2: every ratio and check of T pairs from their phase-1 scalars,
    row by row; a ratio with numerator 0 (v1 == v2) is 0."""
    ks, T = problem.kernel, len(dC)
    tw = theta_weights(ks.r, ks.m)

    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.divide(num, den, out=np.zeros_like(num), where=num != 0.0)

    s_plus, s_minus = g.reshape(2, 2 * T, 1)
    cols = {}
    for var in KernelVariant:
        xi = combine_profiles(ks, s_plus, s_minus, var)
        cols[f"kernel_ratio_{var.value}"] = ratio(
            _theta_dot(tw, np.abs(xi[:T] - xi[T:])), l11_constant(ks, var) * d11)
    cols["b1_ratio"] = ratio(dB, lipschitz_M1(problem) * dC)
    cols["passed"] = cols["b1_ratio"] <= 1.0 + B1_TOL
    for var in KernelVariant:
        cols["passed"] &= cols[f"kernel_ratio_{var.value}"] <= 1.0 + KERNEL_TOL
    return cols


def _pair_evaluator(problem: ProblemSpec, pairs: np.ndarray) -> tuple:
    """Phases 1 and 2 on a (2, P, m+1, n_x) stack of pairs, with scratch of
    its size: (C norm of v1 - v2, columns); the caller masks C norm 0 pairs."""
    scratch = np.empty((2, 2 * pairs.shape[1], *pairs.shape[2:]))
    g, dC, d11, dB = _pair_scalars(problem, pairs, scratch)
    return dC, _pair_columns(problem, g, dC, d11, dB)


def _draw_pairs(problem: ProblemSpec, cfg: ExperimentConfig, trials: range,
                work: np.ndarray) -> np.ndarray:
    """The (2, P, m+1, n_x) stack (v1, v2) of the trials' pairs, rows P..3P
    of ``work``.  Trial i's rng draws v1, then v2's data or, for a scaled
    pair, its factor.  One ``_histories`` call builds the second draws into
    the rows just below v1, and v1 in place."""
    op = problem.operator
    first, second = [], []
    for i in trials:
        rng = np.random.default_rng(cfg.seed + i)
        first.append(_draw_params(op, cfg.family, cfg.amplitude, rng))
        second.append(rng.uniform(0.0, 2.0) if PAIR_KINDS[i % 3] == "scaled"
                      else _draw_params(op, cfg.family, cfg.amplitude, rng))
    drawn = [p for p in second if isinstance(p, np.ndarray)]
    P, n = len(first), len(drawn)
    built = _histories(op, problem.m, cfg.family, cfg.amplitude,
                       np.stack(drawn + first), out=work[P - n:2 * P])
    extra = iter(built[:n])
    pairs = work[P:3 * P].reshape(2, P, *work.shape[1:])
    v1, v2 = pairs
    for j, (i, p) in enumerate(zip(trials, second)):
        kind = PAIR_KINDS[i % 3]
        if kind == "independent":
            v2[j] = next(extra)
        elif kind == "scaled":
            v2[j] = p * v1[j]
        else:
            v2[j] = v1[j] + 1e-4 * next(extra)
    return pairs


def run_lipschitz_sampling(problem: ProblemSpec,
                           cfg: ExperimentConfig) -> ExperimentResult:
    """Sample segment pairs and check the kernel and delay-term bounds.

    Kernel bound:      int |xi(., v1) - xi(., v2)| <= l11 * ||v1 - v2||_L1L1
    Delay-term bound:  ||B1(v1) - B1(v2)||_L2 <= M1 * ||v1 - v2||_C

    per variant with its own constants.  Pair types cycle: independent draws,
    a scaled copy, and a nearby perturbation (covers clipped and unclipped
    gate regimes).  Zero-difference pairs are skipped.  Phase 1
    (``_pair_scalars``) runs on pairs drawn (``_draw_pairs``) PAIR_CHUNK at a
    time into the run's one buffer, with its one scratch, and writes the
    run's per-pair scalars; phase 2 (``_pair_columns``) forms every ratio and
    check from them once per run.  Each row has the bits of its pair
    evaluated alone by the serial oracles in tests/reference.py, so the rows
    do not depend on PAIR_CHUNK.
    """
    chunk, T = min(PAIR_CHUNK, cfg.trials), cfg.trials
    # the draw buffer and phase 1's scratch, allocated once per run: fresh
    # ones per chunk are past glibc's mmap threshold unless an earlier large
    # free has raised it, so each chunk would page-fault them again
    work = np.empty((3 * chunk, problem.m + 1, problem.operator.grid_points))
    scratch = np.empty((2, 2 * chunk, problem.m + 1, problem.operator.grid_points))
    # the run's phase-1 scalars: gates, C, L1L1 and B1 norms
    g, dC, d11, dB = np.empty((2, 2, T)), np.empty(T), np.empty(T), np.empty(T)
    for start in range(0, T, chunk):
        at = slice(start, start + chunk)
        g[..., at], dC[at], d11[at], dB[at] = _pair_scalars(
            problem, _draw_pairs(problem, cfg, range(T)[at], work), scratch)
    # phase 2 in blocks of chunk * n_x pairs: a variant's (2, m+1) profiles
    # per pair then fill no more than one plane of phase 1's scratch
    block, cols = chunk * problem.operator.grid_points, {}
    for lo in range(0, T, block):
        part = _pair_columns(problem, *(a[..., lo:lo + block] for a in (g, dC, d11, dB)))
        for key, col in part.items():
            cols.setdefault(key, []).extend(col.tolist())
    rows = []
    for i, dc in enumerate(dC.tolist()):
        row = {"trial": i, "pair": PAIR_KINDS[i % 3]}
        if dc == 0.0:
            row.update(status="skipped", b1_ratio=None,
                       kernel_ratio_full=None, kernel_ratio_p=None,
                       kernel_ratio_n=None, passed=True)
        else:
            row.update(status="ok", **{key: col[i] for key, col in cols.items()})
        rows.append(row)
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
        M1=lipschitz_M1(problem), pairs_used=len(used),
        pairs_skipped=len(rows) - len(used),
        **{f"l11_{var.value}": l11_constant(problem.kernel, var)
           for var in KernelVariant})
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
    coeffs = _fourier_coeffs(op, rng, amplitude, rows=1, lowest=N + 1)
    field = inverse(op, ModeVector(coeffs)).values[0]
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

    # each pair's squared full and low-mode difference norms, per sample
    samples = sample_count(steps_for_horizon(problem.kernel, cfg.horizon), cfg.stride)
    full2, p2 = np.empty((2, cfg.trials, samples))

    def observe(data_rows: slice, index: int, states: np.ndarray):
        diff = states[0] - states[1]
        full2[data_rows, index] = op.h_x * (diff * diff).sum(axis=1)
        low = forward(op, GridField(diff)).coeffs[:, :N]
        p2[data_rows, index] = (low * low).sum(axis=1)

    def trial(i: int, recs) -> dict:
        row = {"trial": i, "status": "skipped", "alpha_hat": None, "r2": None,
               "q0": 0.0, "cone_entry_t": None, "n_window": 0}
        if full2[i, 0] == 0.0:
            return row
        q = np.sqrt(np.maximum(full2[i] - p2[i], 0.0))
        pn = np.sqrt(p2[i])
        t = recs[0].times
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

    recs = _evolve_batched(problem, cfg, map(pair, range(cfg.trials)),
                           (KernelVariant.P, KernelVariant.P), observe)
    rows = [trial(i, pair_recs) for i, pair_recs in enumerate(recs)]
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


def csv_text(lines) -> str:
    """One text line per row of cells: a float by repr, None as an empty
    cell, anything else by str."""
    def cell(value) -> str:
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)
    return "".join(",".join(map(cell, row)) + "\n" for row in lines)


def json_text(obj) -> str:
    """The JSON document of every output: sorted keys, two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit(results: list, out_dir: str, format: str = "both") -> list[str]:
    """Write summary.json (summary statistics) and one CSV of per-trial rows
    per experiment into out_dir.  Deterministic: no timestamps, repr floats."""
    if format not in ("json", "csv", "both"):
        raise ContractViolation("format must be 'json', 'csv', or 'both'")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)

    if format in ("json", "both"):
        write("summary.json", json_text([res.summary_dict() for res in results]))
    if format in ("csv", "both"):
        for res in results:
            keys = list(dict.fromkeys(key for row in res.trials for key in row))
            rows = [[row.get(key) for key in keys] for row in res.trials]
            write(f"{res.name}.csv", csv_text([keys] + rows if keys else []))
    return written
