"""Experiment runner: grid sweeps, run artifacts, pass/fail assertions.

A run takes a validated ``ExperimentConfig``, which alone sets it, and
produces three files in the output directory:

  results.csv   raw per-cell measurements, row order fixed by the grid order
  summary.json  assertions with observed values and pass/fail, plus metrics
  manifest.json config echo, library versions (hermlp's is the
                ``__version__`` of the code that ran), wall-clock timing

``results.csv`` and ``summary.json`` are deterministic functions of the
config and seed: identical inputs at one BLAS setting give byte-identical
bodies (cells run in grid order, and every random draw is keyed by cell
position).  The manifest carries timestamps and is the one artifact
excluded from that guarantee.

``_collect`` is the one row path and the one failure path: a cell returns
or yields its rows, and ``_collect`` writes each with its status column as
it arrives.  A computational failure (a quadrature that cannot converge,
an infeasible tube) follows the rows the cell gave before it as one row,
empty but for the error in its status column.  The run continues and
writes all three artifacts.  An experiment is itself one cell, labelled
with its name, so a failure outside its own cells is contained too.  Any
failure forces exit code 3; failed assertions alone give 1.

The config's ``tolerance_scale`` loosens every assertion limit, in
``_Ctx.check`` alone: a positive ceiling or a negative floor is multiplied
by it, a negative ceiling or a positive floor divided by it.  Measured
values are never rescaled.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import time
from collections import deque
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import (__version__, bounds, construct, hermite, mehler, normquad,
               phase, spectral, stationary)
from ._blas import one_thread
from .config import ConfigError, ExperimentConfig, plot_params

_EPS = float(np.finfo(float).eps)

SATURATE_HEADER = ("kind", "n", "N", "lambda", "j", "delta", "nu", "r", "p",
                   "measured", "Lambda", "ratio", "status")


@dataclass
class Assertion:
    name: str
    observed: float
    limit: float
    op: str  # "<=" or ">="
    passed: bool


@dataclass
class _Ctx:
    params: dict
    seed: int
    scale: float
    header: tuple = ()  # the results.csv columns before "status"
    rows: list = field(default_factory=list)  # results.csv, with status
    assertions: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def check(self, name: str, observed: float, limit: float,
              op: str = "<=") -> None:
        """Assert ``observed op limit``, ``limit`` loosened by the scale."""
        s = self.scale
        limit = limit * s if (op == "<=") == (limit > 0) else limit / s
        ok = observed <= limit if op == "<=" else observed >= limit
        self.assertions.append(
            Assertion(name, float(observed), float(limit), op, bool(ok)))


@dataclass
class RunResult:
    exit_code: int
    csv_path: Path
    summary_path: Path
    manifest_path: Path
    assertions: list
    summary: dict


def _cell_seed(base: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base, spawn_key=tuple(key))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        return "0.0"
    return repr(x)


def _write_csv(path: Path, header: tuple, rows: list) -> None:
    """Write the header and the rows, each value through _fmt."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _fmt_point(vals) -> str:
    return ";".join(repr(float(v)) for v in vals)


def _slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


# ------------------------------------------------------------------- eval

def _run_eval(ctx: _Ctx):
    p = ctx.params
    ctx.header = ("check", "k", "value")

    # The eigensolve and the product are too small for a second BLAS
    # thread to pay; it would only spin on through the next config.
    with one_thread():
        nodes, weights = np.polynomial.hermite.hermgauss(p["quad_points"])
        table = hermite.hermite_batch_grid(p["k_max_ortho"], nodes)
        # hermgauss weights absorb exp(-x^2); the pair h_j h_k carries its own
        gram = (table * (weights * np.exp(nodes * nodes))) @ table.T
    dev = np.abs(gram - np.eye(p["k_max_ortho"] + 1))
    for k in range(p["k_max_ortho"] + 1):
        yield ["orthonormality", k, float(dev[k].max())]
    ctx.check("orthonormality-deviation", float(dev.max()), p["tol_ortho"])

    # Five-point second differences; the step balances the h^4 truncation
    # against roundoff growing like eps/h^2, which keeps the relative
    # residual a couple of decades under the tolerance up to k ~ 500.
    stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    fd_w = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])

    def samples(k: int):
        u = math.sqrt(2.0 * k + 1.0)
        h = (45.0 * _EPS) ** (1.0 / 6.0) / u
        return u, h, np.linspace(-0.75 * u, 0.75 * u, p["eigen_samples"])

    def eigen_residual(k: int, u: float, h: float, xs: np.ndarray,
                       values: np.ndarray) -> float:
        vals = values.reshape(-1, 5)
        second = vals @ fd_w / (12.0 * h * h)
        residual = np.abs(-second + (xs * xs - 2.0 * k - 1.0) * vals[:, 2])
        envelope = hermite.AMP_OSCILLATORY * (u * u - xs * xs) ** -0.25
        return float(np.max(residual / ((2.0 * k + 1.0) * envelope)))

    # every order has its own stencil grid, scaled to its turning point;
    # one recurrence covers all of their grids
    ks = list(range(p["k_max_eigen"] + 1))
    cells = [samples(k) for k in ks]
    values = hermite.hermite_on_grids(
        [[k] for k in ks],
        [(xs[:, None] + h * stencil).ravel() for _, h, xs in cells])
    residuals = [eigen_residual(k, *cell, v[0])
                 for k, cell, v in zip(ks, cells, values)]
    for k, res in zip(ks, residuals):
        yield ["eigen-equation", k, res]
    ctx.check("eigen-equation-residual", max(residuals), p["tol_eigen"])
    ctx.metrics["orthonormality_max"] = float(dev.max())
    ctx.metrics["eigen_residual_max"] = max(residuals)


# --------------------------------------------------------- kernel-compare

_REL_FLOOR = 1e-4  # reference size under which agreement is taken absolutely


def _run_kernel_compare(ctx: _Ctx):
    if ctx.params["mode"] == "bound-check":
        return _kernel_bound_mode(ctx)
    return _kernel_cross_mode(ctx)


def _kernel_cross_mode(ctx: _Ctx):
    p = ctx.params
    ctx.header = ("r", "x", "y", "spectral", "quadrature", "rel_error",
                  "imag_residual", "evals")
    rng = np.random.default_rng(_cell_seed(ctx.seed))
    pairs = []
    while len(pairs) < p["pair_count"]:
        x, y = rng.uniform(-p["box_half_width"], p["box_half_width"], 2)
        if abs(x - y) >= p["min_separation"]:
            pairs.append((float(x), float(y)))

    cells = [(r, sx, sy) for r in p["r_values"] for sx, sy in pairs]
    # every cell's quadrature in one Mehler driver call, each case's
    # failure kept as its cell's value; a failure outside the cases (in
    # the level sums themselves) stops the experiment before any cell
    quads = dict(zip(cells, mehler.kernel_oscillatory_batch(
        [([sx * math.sqrt(r)], [sy * math.sqrt(r)], r) for r, sx, sy in cells],
        tol=p["quad_tol"])))
    direct = {}

    def cell(args):
        r, sx, sy = args
        if r not in direct:
            # the eigenbasis sums of every pair at this r, from one table
            scaled = math.sqrt(r) * np.array(pairs)
            direct[r] = dict(zip(pairs, spectral.projection_kernel_sums(
                (r - 1) // 2, 1, scaled[:, :1], scaled[:, 1:])))
        ref = direct[r][sx, sy]
        kv = quads[args]
        if isinstance(kv, Exception):
            raise kv
        rel = abs(kv.value - ref) / max(abs(ref), _REL_FLOOR)
        return [[r, sx, sy, ref, kv.value, rel, kv.imag_residual, kv.evals]]

    oks = _collect(ctx, cell, cells)
    if oks:
        ctx.check("cross-validation-relative-error",
                  max(row[5] for row in oks), p["tol_rel"])
        ctx.check("cross-validation-imag-residual",
                  max(row[6] for row in oks), p["tol_imag"])


def _kernel_bound_mode(ctx: _Ctx):
    p = ctx.params
    ctx.header = ("n", "r", "mu", "normalizer", "max_ratio", "median_ratio",
                  "diagonal_ratio", "count")

    def cell(args):
        mu_idx, mu, r = args
        # one seed per mu, shared across r, so the trend in r is not
        # re-randomized at every radius
        seed = int(_cell_seed(ctx.seed, mu_idx).generate_state(1)[0])
        spec = mehler.KernelSampleSpec(mu=mu, count=p["sample_count"],
                                       seed=seed)
        rep = mehler.kernel_bound_check(p["n"], r, spec)
        return [[p["n"], r, mu, rep.normalizer, rep.max_ratio,
                 rep.median_ratio, rep.diagonal_ratio, rep.count]]

    cells = [(i, mu, r) for i, mu in enumerate(p["mu_values"])
             for r in p["r_values"]]
    oks = _collect(ctx, cell, cells)
    if oks:
        ctx.check("bound-check-max-ratio", max(row[4] for row in oks),
                  p["ratio_limit"])
    for mu in p["mu_values"]:
        series = [(row[1], row[4]) for row in oks if row[2] == mu]
        if len(series) >= 2:
            slope = _slope([s[0] for s in series], [s[1] for s in series])
            ctx.check(f"bound-check-growth-slope-mu-{mu}", abs(slope),
                      p["slope_limit"])
            ctx.metrics[f"slope_mu_{mu}"] = slope


# ----------------------------------------------------------- sphase-check

def _run_sphase(ctx: _Ctx):
    p = ctx.params
    ctx.header = ("check", "order", "lambda", "value")
    gamma, width = p["cubic_coefficient"], p["bump_half_width"]
    phase_series = np.zeros(31)
    phase_series[2], phase_series[3] = 0.5, gamma
    amp_series = stationary.smooth_bump_series(28, width)

    def phase_fn(t):
        return 0.5 * t * t + gamma * t ** 3

    def amp_fn(t):
        return stationary.smooth_bump(t, width)

    def reference(lam: float) -> complex:
        return stationary.oscillatory_quadrature(
            amp_fn, phase_fn, lam, -width, width,
            panels=max(300, int(3 * lam)), nodes=16)

    refs = [reference(lam) for lam in p["lambda_values"]]
    margins = {1: p["slope_margin_m1"], 2: p["slope_margin_m2"]}
    for m in p["orders"]:
        exp_m = stationary.expand_from_series(phase_series, amp_series, m)
        errs = [abs(exp_m.evaluate(lam) - ref)
                for lam, ref in zip(p["lambda_values"], refs)]
        for lam, err in zip(p["lambda_values"], errs):
            yield ["remainder", m, lam, err]
        slope = _slope(p["lambda_values"], errs)
        ctx.metrics[f"remainder_slope_m{m}"] = slope
        ctx.check(f"remainder-slope-m{m}", slope, -(m - margins[m]))

    # pure quadratic phase: the engine's one-term expansion and the closed
    # Fresnel formula must both land on sqrt(2 pi / lam) e^{i pi/4} exactly
    quad_series = np.zeros(4)
    quad_series[2] = 0.5
    exact_err = 0.0
    for lam in p["lambda_values"]:
        target = math.sqrt(2.0 * math.pi / lam) * complex(
            math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))
        got = stationary.expand_from_series(quad_series, [1.0], 1).evaluate(lam)
        exact_err = max(exact_err, abs(got - target) / abs(target))
        for curv, amp0, ph0 in ((1.0, 1.0, 0.0), (2.5, 0.7, 0.3),
                                (-1.5, 1.3, -0.2)):
            lead = stationary.fresnel_leading(lam, ph0, curv, amp0)
            want = amp0 * math.sqrt(2.0 * math.pi / (lam * abs(curv))) * \
                np.exp(1j * (lam * ph0 + math.copysign(math.pi / 4.0, curv)))
            exact_err = max(exact_err, abs(lead - want) / abs(want))
        yield ["gaussian-exactness", 1, lam, exact_err]
    ctx.check("gaussian-exactness", exact_err, p["gaussian_tol"])

    if p["consistency_r_values"]:
        sx, sy = p["consistency_point"]
        residuals = []
        for r in p["consistency_r_values"]:
            residuals.append(mehler.consistency_residual([sx], [sy], r))
            yield ["kernel-consistency", 0, float(r), residuals[-1]]
        slope = _slope(p["consistency_r_values"], residuals)
        ctx.metrics["kernel_consistency_slope"] = slope
        ctx.check("kernel-consistency-slope", slope,
                  p["consistency_slope_limit"])


# ------------------------------------------------------- phase-identities

def _interior_pair(rng, n: int, bound: float):
    """A coordinate pair whose window holds two clean interior roots."""
    while True:
        x = rng.uniform(-bound, bound, n)
        y = rng.uniform(-bound, bound, n)
        pts = phase.critical_points(x, y).interior()
        if len(pts) == 2 and all(p_.sin2t > 0.1 for p_ in pts):
            return x, y, pts


def _run_phase_identities(ctx: _Ctx):
    p = ctx.params
    ctx.header = ("check", "n", "samples", "max_residual", "tolerance")
    dims = p["dims"]
    t_per_pair = 20
    pair_count = max(1, p["sample_count"] // (len(dims) * t_per_pair))

    def cell(args):
        d_idx, n = args
        rng = np.random.default_rng(_cell_seed(ctx.seed, d_idx))
        worst_fact = 0.0
        worst_curv = 0.0
        worst_closed = 0.0
        worst_fd = 0.0
        hess_done = 0
        for _ in range(pair_count):
            x, y, pts = _interior_pair(rng, n, p["coordinate_bound"])
            t1, t2 = pts[0].t, pts[1].t
            ts = rng.uniform(0.05, 1.45, t_per_pair)
            lhs = phase.phase_derivative(ts, x, y)
            rhs = (-(4.0 / np.sin(2.0 * ts) ** 2)
                   * np.sin(ts + t1) * np.sin(ts - t1)
                   * np.sin(ts + t2) * np.sin(ts - t2))
            worst_fact = max(worst_fact, float(
                np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)))))

            if hess_done >= p["hessian_samples"]:
                continue
            hess_done += 1
            for pt in pts:
                h = 1e-6
                fd_curv = (phase.phase_derivative(pt.t + h, x, y)
                           - phase.phase_derivative(pt.t - h, x, y)) / (2 * h)
                worst_curv = max(worst_curv,
                                 abs(fd_curv - pt.curvature)
                                 / abs(pt.curvature))
                target = np.sort(np.concatenate(
                    [[0.0], np.full(n - 1, -1.0 / pt.sin2t)]))
                closed = phase.mixed_hessian(x, y, pt)
                ev = np.sort(np.real(np.linalg.eigvals(closed)))
                worst_closed = max(worst_closed, float(
                    np.max(np.abs(ev - target))))
                fd_mat = _fd_mixed_hessian(x, y, pt.kind, n)
                ev_fd = np.sort(np.real(np.linalg.eigvals(fd_mat)))
                worst_fd = max(worst_fd, float(
                    np.max(np.abs(ev_fd - target)) /
                    max(1.0, 1.0 / pt.sin2t)))

        samples = pair_count * t_per_pair
        return [[check, n, samples, worst, tol] for check, worst, tol in (
            ("derivative-factorization", worst_fact, p["tol_factorization"]),
            ("curvature-vs-fd", worst_curv, p["tol_curvature"]),
            ("mixed-hessian-closed", worst_closed, p["tol_mixed_closed"]),
            ("mixed-hessian-fd", worst_fd, p["tol_mixed_fd"]))]

    for check, n, _, worst, tol in _collect(ctx, cell, list(enumerate(dims))):
        ctx.check(f"{check}-n{n}", worst, tol)


def _fd_mixed_hessian(x, y, kind: str, n: int) -> np.ndarray:
    def reduced(xv, yv):
        cps = phase.critical_points(xv, yv)
        pt = cps.plus if kind == "plus" else cps.minus
        if pt is None:
            raise ValueError(f"a perturbed stencil point has no {kind} "
                             "critical point")
        return float(phase.phase_value(pt.t, xv, yv))

    h = 1e-5
    fd = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fd[i, j] = (reduced(xp, yp) - reduced(xp, ym)
                        - reduced(xm, yp) + reduced(xm, ym)) / (4 * h * h)
    return fd


# ------------------------------------------------------------ bounds-table

def _run_bounds_table(ctx: _Ctx):
    p = ctx.params
    ctx.header = ("table", "n", "lambda", "r", "mu", "p", "branch",
                  "log_value", "value")
    for n in p["n_values"]:
        for lam in p["lambda_values"]:
            for r in p["r_values"]:
                for pv in p["p_values"]:
                    for mu in p["mu_values"]:
                        b = bounds.lambda_lp_at_mu(n, lam, r, mu, pv)
                        yield ["at-mu", n, lam, r, mu, _fmt(pv),
                               b.branch, b.log_value, b.value]
                    if p["include_max_table"]:
                        b = bounds.max_local_bound(n, lam, r, pv)
                        yield ["max", n, lam, r, b.mu, _fmt(pv),
                               b.branch, b.log_value, b.value]
    _bounds_identities(ctx)


def _bounds_identities(ctx: _Ctx) -> None:
    p = ctx.params
    tol = p["tol_identity"]
    kink_dev = 0.0
    for n in p["n_values"]:
        pc = bounds.sogge_kink(n)
        if math.isfinite(pc):
            lo = 0.5 * (n - 1) * (0.5 - 1.0 / pc)
            hi = 0.5 * (n - 1) - n / pc
            kink_dev = max(kink_dev, abs(lo - hi),
                           abs(bounds.sogge_exponent(n, pc)
                               - 0.5 * (n - 1) / (n + 1)))
        qc = bounds.rho_kink(n)
        v1 = -0.5 + 1.0 / qc
        v2 = (n - 2) / 6.0 - n / (3.0 * qc)
        kink_dev = max(kink_dev, abs(v1 - v2), abs(v1 + 1.0 / (n + 3)))
        sc = bounds.thangavelu_kink(n)
        if math.isfinite(sc):
            kink_dev = max(kink_dev, abs((n - 2) / 6.0 - n / (3.0 * sc)),
                           abs(0.5 * (n - 2) - n / sc))
    ctx.check("exponent-kink-continuity", kink_dev, tol)

    seam_dev = 0.0
    fixed_dev = 0.0
    for n in p["n_values"]:
        for lam in p["lambda_values"]:
            for frac in (0.15, 0.55, 0.95):
                mu = math.exp(frac * math.log(lam ** (-4.0 / 3.0)))
                s = lam * math.sqrt(mu)
                for pv in p["p_values"]:
                    ip = 0.0 if math.isinf(pv) else 1.0 / pv
                    r1 = 1.0 / s
                    point = (0.5 * (n - 2) * math.log(s)
                             + n * ip * math.log(r1))
                    if pv <= bounds.sogge_kink(n):
                        e = 0.25 * (n - 1) - 0.5 * (n + 1) * ip
                        tube = (e * (math.log(s) - math.log(r1))
                                + (ip - 0.5) * math.log(s))
                    else:
                        tube = (0.5 * (n - 2) - n * ip) * math.log(s)
                    got = bounds.lambda_lp_at_mu(n, lam, r1, mu, pv).log_value
                    seam_dev = max(
                        seam_dev,
                        abs(point - tube) / max(1.0, abs(point)),
                        abs(got - point) / max(1.0, abs(point)))
                    r2 = lam * mu
                    if pv < bounds.rho_kink(n) and r2 > r1:
                        e = 0.25 * (n - 1) - 0.5 * (n + 1) * ip
                        tube2 = (e * (math.log(s) - math.log(r2))
                                 + (ip - 0.5) * math.log(s))
                        ec = 0.25 * (n + 3) * ip - 0.125 * (n + 1)
                        cap = (ec * (math.log(r2) - math.log(lam))
                               + (ip - 0.5) * math.log(lam))
                        got2 = bounds.lambda_lp_at_mu(
                            n, lam, r2, mu, pv).log_value
                        seam_dev = max(
                            seam_dev,
                            abs(tube2 - cap) / max(1.0, abs(cap)),
                            abs(got2 - cap) / max(1.0, abs(cap)))
            for pv in p["p_values"]:
                want = (bounds.sogge_exponent(n, pv) - 0.5) * math.log(lam)
                got = bounds.lambda_lp(n, lam, 1.0, 0.0, pv).log_value
                fixed_dev = max(fixed_dev,
                                abs(got - want) / max(1.0, abs(want)))
    ctx.check("envelope-seam-identities", seam_dev, tol)
    ctx.check("fixed-ball-rate-identity", fixed_dev, tol)

    lam = max(max(p["lambda_values"]), 100.0)
    mus = (0.2, 0.35, 0.6, 0.9)
    slope_dev = 0.0
    for n in p["n_values"]:
        vals = [bounds.lambda_lp_at_mu(n, lam, 1.0, m, 2.0) for m in mus]
        for a, b, ma, mb in zip(vals, vals[1:], mus, mus[1:]):
            slope = (b.log_value - a.log_value) / (math.log(mb)
                                                   - math.log(ma))
            slope_dev = max(slope_dev, abs(slope + 0.25))
    ctx.check("quarter-power-mu-slope", slope_dev, p["tol_slope"])


# -------------------------------------------------------------- construct

def _run_construct(ctx: _Ctx):
    p = ctx.params
    ctx.header = ("n", "N", "lambda", "j", "delta", "set_size", "bin_index",
                  "bin_fraction", "target", "measured", "amp_ratio")

    def cell(level: int):
        delta = bounds.tube_delta(p["delta"], p["n"], level, p["j"])
        rep = construct.build_concentrated(p["n"], level, p["j"], delta,
                                           m_bins=p["m_bins"])
        median = construct.median_amplitude(rep)
        return [[p["n"], level, rep.tube.lam, p["j"], delta,
                 len(rep.eigenfunction.indices), rep.bin_index,
                 rep.bin_fraction, rep.target_amplitude, median,
                 median / rep.target_amplitude]]

    oks = _collect(ctx, cell, list(p["levels"]))
    if oks:
        ctx.check("bin-fraction-pigeonhole", min(row[7] for row in oks),
                  1.0 / p["m_bins"], op=">=")
        ratios = [row[10] for row in oks]
        ctx.check("amplitude-ratio-low", min(ratios), p["amp_ratio_min"],
                  op=">=")
        ctx.check("amplitude-ratio-high", max(ratios), p["amp_ratio_max"])


# --------------------------------------------------------------- saturate

def _saturate_ball(case: dict, level: int) -> tuple:
    """The tube, ball center, radius and bound value of one saturate
    cell."""
    tube, nu, r = bounds.saturate_cell(case, level)
    bound = bounds.lambda_lp(len(nu), tube.lam, r, math.hypot(*nu), case["p"])
    return tube, nu, r, bound.value


def _plan_tube_cell(case: dict, level: int):
    """:func:`_saturate_ball`, the construction and the ball quadrature
    axes of one tube cell, or the first exception they raised."""
    try:
        ball = _saturate_ball(case, level)
        tube, nu, r, _ = ball
        rep = construct.build_concentrated(len(nu), level, tube.j, tube.delta)
        dom = construct.ball_domain(rep.eigenfunction, nu, r,
                                    rep.tube.half_width)
        return (*ball, rep, normquad.quadrature_axes(dom))
    except Exception as exc:  # raised again by the level's own cell
        return exc


def _run_saturate(ctx: _Ctx):
    p = ctx.params
    ctx.header = SATURATE_HEADER[:-1]
    plans = deque()  # a tube case's planned cells; each cell drops its own

    def cell(args):
        case_idx, level = args
        case = p["cases"][case_idx]
        if case["kind"] == "random":
            tube, nu, r, bound = _saturate_ball(case, level)
        else:
            plan = plans.popleft()
            if isinstance(plan, Exception):
                raise plan
            tube, nu, r, bound, rep, _ = plan
        n, p_norm = len(nu), case["p"]
        geometry = [n, level, tube.lam, tube.j, tube.delta, _fmt_point(nu), r,
                    p_norm]
        if case["kind"] != "random":
            ratio = construct.saturation_ratio(rep, nu, r, p_norm)
            return [[case["kind"], *geometry, ratio * bound, bound, ratio]]
        # one evaluator per level: every draw reuses its two axis tables
        e = spectral.DenseEigenfunction2D(level, np.zeros(level + 1))
        rows = []
        for i in range(case["per_level"]):
            seed = _cell_seed(ctx.seed, case_idx, level, i)
            coeffs = np.random.default_rng(seed).standard_normal(level + 1)
            coeffs /= np.linalg.norm(coeffs)
            e.coefficients = coeffs
            measured = construct.ball_lp_norm(e, nu, r, p_norm,
                                              tube.half_width)
            rows.append([f"random-{i}", *geometry, measured, bound,
                         measured / bound])
        return rows

    all_ratios, sweep_ratios = [], []
    for case_idx, case in enumerate(p["cases"]):
        cells = [(case_idx, level) for level in case["levels"]]
        if case["kind"] != "random":
            # a tube case plans every level, then builds all their ball
            # axes' tables in one Hermite recurrence; a failure of that
            # shared recurrence fails the experiment
            plans.extend(_plan_tube_cell(case, level)
                         for level in case["levels"])
            spectral.Eigenfunction.tabulate(
                [(plan[4].eigenfunction, plan[5]) for plan in plans
                 if not isinstance(plan, Exception)])
        oks = _collect(ctx, cell, cells)
        ratios = [row[11] for row in oks]
        all_ratios += ratios
        if case["kind"] == "random" or not ratios:
            continue
        sweep_ratios += ratios
        tag = f"{case['kind']}-{case_idx}"
        ctx.check(f"band-ratio-{tag}", max(ratios) / min(ratios),
                  p["band_limit"])
        if len(ratios) >= 2:
            slope = _slope([row[3] for row in oks], ratios)
            ctx.metrics[f"slope_{tag}"] = slope
            ctx.check(f"trend-slope-{tag}", abs(slope), p["slope_limit"])

    if all_ratios:
        ctx.metrics["c_upper"] = p["upper_bound"]
        ctx.metrics["max_ratio"] = max(all_ratios)
        ctx.check("upper-bound", max(all_ratios), p["upper_bound"])
    if sweep_ratios:
        med = float(np.median(sweep_ratios))
        ctx.metrics["sweep_median"] = med
        ctx.check("median-factor", max(all_ratios), p["median_factor"] * med)


# ------------------------------------------------------- failure handling

def _collect(ctx: _Ctx, cell_fn, cells) -> list:
    """Run cells in order, adding their rows to ``ctx.rows`` with a status.

    Each cell returns or yields its rows, without a status; each row gets
    ``"ok"`` as it arrives.  A cell that raises keeps the rows it gave
    before the failure, then leaves one row as wide as ``ctx.header``,
    empty but for ``error: ...`` in the status column, and a
    ``computational_failures`` entry labelled ``str(args)``; the run
    continues.  Returns every row that got ``"ok"``, in order.
    """
    done = []
    for args in cells:
        try:
            for row in cell_fn(args):
                ctx.rows.append(row + ["ok"])
                done.append(row)
        except Exception as exc:  # recorded, run continues
            err = f"{type(exc).__name__}: {exc}"
            ctx.failures.append({"cell": str(args), "error": err})
            ctx.rows.append([""] * len(ctx.header) + [f"error: {err}"])
    return done


_RUNNERS = {
    "eval": _run_eval,
    "kernel-compare": _run_kernel_compare,
    "sphase-check": _run_sphase,
    "phase-identities": _run_phase_identities,
    "bounds-table": _run_bounds_table,
    "construct": _run_construct,
    "saturate": _run_saturate,
}


# ------------------------------------------------------------- entry point

def run(config: ExperimentConfig, out_dir=None) -> RunResult:
    """Execute one experiment and write its artifacts.

    The config alone sets the run, seed and tolerance scale included;
    ``out_dir``, when given, takes the place of its ``out``, in the
    manifest's config echo too.  The experiment is one ``_collect`` cell
    that yields the rows it makes outside its own cells.  Returns a
    RunResult whose exit_code is 0 (all assertions passed), 1 (an
    assertion failed), or 3 (a computational failure, in a cell or
    outside one, occurred).
    """
    started = time.perf_counter()
    stamp = datetime.now(timezone.utc).isoformat()
    if out_dir is not None:
        config = replace(config, out=str(out_dir))
    ctx = _Ctx(params=config.parameters, seed=config.seed,
               scale=config.tolerance_scale)
    _collect(ctx, lambda name: _RUNNERS[name](ctx) or (),
             [config.experiment])

    out = Path(config.out or f"runs/{config.experiment}")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    _write_csv(csv_path, ctx.header + ("status",), ctx.rows)

    passed = all(a.passed for a in ctx.assertions)
    exit_code = 3 if ctx.failures else (0 if passed else 1)
    summary = {
        "experiment": config.experiment,
        "seed": ctx.seed,
        "tolerance_scale": ctx.scale,
        "row_count": len(ctx.rows),
        "assertions": [vars(a) for a in ctx.assertions],
        "metrics": ctx.metrics,
        "computational_failures": ctx.failures,
        "passed": passed and not ctx.failures,
        "exit_code": exit_code,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")

    manifest = {
        "experiment": config.experiment,
        "config": config.echo(),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "hermlp": __version__},
        "timing": {"started_utc": stamp,
                   "duration_seconds": time.perf_counter() - started},
        "artifacts": {"results": "results.csv", "summary": "summary.json"},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    return RunResult(exit_code=exit_code, csv_path=csv_path,
                     summary_path=summary_path, manifest_path=manifest_path,
                     assertions=ctx.assertions, summary=summary)


# -------------------------------------------------------------- plot data

def emit_plot_data(kind: str, *, run_dir=None, params: dict | None = None,
                   out_path=None):
    """Tidy plot-ready CSV data for one figure kind.

    Generator kinds (profiles, exponent curves, envelope slices) compute
    fresh from ``params``; ``saturate-ratios`` reprocesses a completed
    saturate run found in ``run_dir``, which no other kind takes.  Returns
    (header, rows) and writes them to ``out_path`` when given.  Bad input
    raises ConfigError before any work; ``config.plot_params`` checks
    ``params``.
    """
    p = plot_params(kind, params or {})
    if run_dir is not None and kind != "saturate-ratios":
        raise ConfigError(["--run: only saturate-ratios reads a run "
                           f"directory (got kind {kind!r})"])
    if kind == "hermite-profile":
        xs = np.linspace(p["x_min"], p["x_max"], p["points"])
        vals = hermite.hermite_batch([p["k"]], xs)[0]
        approx, envelope, regime = hermite.szego_eval(p["k"], xs)
        header = ("x", "value", "szego", "envelope", "regime")
        rows = [[float(x), float(v), float(a), float(e),
                 hermite.Regime(g).name.lower()]
                for x, v, a, e, g in zip(xs, vals, approx, envelope, regime)]
    elif kind == "rho-sigma":
        n, p_max = p["n"], p["p_max"]
        kinks = [("sogge-kink", bounds.sogge_kink(n)),
                 ("rho-kink", bounds.rho_kink(n)),
                 ("thangavelu-kink", bounds.thangavelu_kink(n))]
        pts = [(float(pv), "") for pv in np.linspace(2.0, p_max, p["points"])]
        pts += [(pk, tag) for tag, pk in kinks if pk <= p_max]
        pts.sort()
        header = ("p", "sigma", "rho", "marker")
        rows = [[pv, bounds.sogge_exponent(n, pv),
                 bounds.global_lp_exponent(n, pv), tag] for pv, tag in pts]
    elif kind == "bound-vs-r":
        n, lam, pv, mu = p["n"], p["lambda"], p["p"], p["mu"]
        rs = np.geomspace(lam ** (-4.0 / 3.0), lam, p["points"])
        header = ("r", "mu", "branch", "log_value", "value")
        rows = []
        for r in rs:
            b = (bounds.lambda_lp_at_mu(n, lam, float(r), mu, pv)
                 if mu is not None
                 else bounds.lambda_lp(n, lam, float(r), p["nu_abs"], pv))
            rows.append([float(r), b.mu, b.branch, b.log_value, b.value])
    elif kind == "bound-vs-mu":
        n, lam, pv, r = p["n"], p["lambda"], p["p"], p["r"]
        mus = np.geomspace(lam ** (-4.0 / 3.0), 1.0, p["points"])
        header = ("mu", "branch", "log_value", "value")
        rows = [[float(mu), b.branch, b.log_value, b.value]
                for mu in mus
                for b in [bounds.lambda_lp_at_mu(n, lam, r, float(mu), pv)]]
    else:
        if run_dir is None:
            raise ConfigError(["saturate-ratios needs a completed run "
                               "directory (--run)"])
        src = Path(run_dir) / "results.csv"
        if not src.is_file():
            raise ConfigError([f"no completed run at {run_dir}"])
        with open(src, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != SATURATE_HEADER:
                raise ConfigError([f"{src} is not a saturate run"])
            header = ("kind", "n", "lambda", "r", "p", "ratio")
            rows = [[rec[0], rec[1], rec[3], rec[7], rec[8], rec[11]]
                    for rec in reader if rec[-1] == "ok"]

    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out_path, header, rows)
    return header, rows
