"""Oscillatory-integral evaluation of the spectral projection kernel.

The projection onto the eigenvalue-R eigenspace of -Laplacian + |x|^2 has
an exact half-period integral form.  After folding the full period into
t in (0, pi/2) and splitting it with a smooth taper, everything reduces
to one window integral per sign of y:

    A(x, y) = integral over (0, 3 pi/8) of
              taper(t) * (sin 2t)^(-n/2) * exp(i R psi(t; x, y)) dt

with psi from :mod:`hermlp.phase`, and the kernel assembles as

    K_R(x, y) = c_n * 2 Re[ e^{-i n pi/4} (A(x, y) + i^R conj(A(x, -y))) ]

with c_n = pi^{-1} (2 pi)^{-n/2} and i^R computed exactly from R mod 4.

The quadrature walks dyadic levels [T/2, T] toward t = 0, resolving the
1/t^2 phase blowup with span-proportional Gauss-Legendre panels, and
closes the remaining tail with the integration-by-parts boundary term
f exp(i R psi) / (i R psi') once every stationary point and the taper
seam are safely above.  Near the diagonal in dimension two and higher
the tail stops converging (the representation only holds in a limiting
sense there), so the evaluator refuses and points to the exact
eigenbasis sum instead.

One driver, :func:`_half_integrals`, computes every window integral.  It
takes many pairs, each an (x, y, R) point with its sign of y, and runs
dyadic level k for all pairs still descending together; a pair leaves
once its own stop rule fires, or once a pair it follows has failed (the
other half of a failed kernel value).  Every descent starts at
``WINDOW_END``, so a level's interval and its 33-point probe are shared,
while each pair keeps its own panels, gemv rows and sum over them: its
level sums are those it would get alone.  A level's pairs are cut into fixed
blocks, which :func:`hermlp._blas.on_two_workers` hands to the calling
thread and the process's helper thread, each computing in its own
buffers, all under one one-thread BLAS scope the caller holds around the
whole call.  No bit depends on which worker computed a block.  The
public functions are thin calls of the driver,
:func:`kernel_oscillatory_batch` for many kernel values at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phase as ph
from ._blas import on_two_workers, one_thread
from .spectral import projection_kernel_sums
from .stationary import fresnel_leading

WINDOW_END = 3.0 * math.pi / 8.0
FLAT_END = math.pi / 8.0
_MAX_LEVELS = 80  # dyadic levels one window integral descends at most
_PANEL_CAP = 200_000  # Gauss-Legendre panels allowed on one level
_CONSISTENCY_TOL = 1e-9  # quadrature tolerance of consistency_residual
_BLOCK_PANELS = 2048  # panels of one block, unless a single pair has more

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


class NearDiagonalError(ValueError):
    """Oscillatory route refused; use the eigenbasis sum for this pair."""


class TailConvergenceError(RuntimeError):
    def __init__(self, message: str, best: complex, achieved: float):
        super().__init__(message)
        self.best = best
        self.achieved = achieved


def _step_poly(s):
    return s**8 * (
        6435.0
        + s * (-40040.0
               + s * (108108.0
                      + s * (-163800.0
                             + s * (150150.0
                                    + s * (-83160.0
                                           + s * (25740.0 - 3432.0 * s))))))
    )


def smoothstep7(s):
    """C^7 monotone step: 0 below 0, 1 above 1, degree-15 polynomial between.

    Evaluated on whichever side of 1/2 is closer and reflected, so the
    partition identity smoothstep7(s) + smoothstep7(1 - s) = 1 holds
    exactly in floating point (the raw polynomial loses it to
    cancellation near s = 1).
    """
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return np.where(s <= 0.5, _step_poly(s), 1.0 - _step_poly(1.0 - s))


def cutoff_taper(t):
    """Window taper: 1 on [0, pi/8], 0 beyond 3 pi/8, C^7 in between.

    Satisfies cutoff_taper(t) + cutoff_taper(pi/2 - t) = 1, which is what
    makes the two half-window integrals an exact partition of the fold.

    For t <= pi/8 the step argument clips to 0.0, _step_poly(0.0) is
    0.0 and the taper is exactly 1.0, so multiplying by it changes no
    bit.  The quadrature therefore applies it only on dyadic levels
    reaching above pi/8 (the first two); every deeper level, which holds
    almost all the nodes, skips it.
    """
    t = np.asarray(t, dtype=float)
    return 1.0 - smoothstep7((t - FLAT_END) / (0.25 * math.pi))


def _i_power(r: int) -> complex:
    return (1 + 0j, 1j, -1 + 0j, -1j)[r % 4]


@dataclass(frozen=True)
class HalfIntegral:
    value: complex
    achieved: float  # internal estimate of the absolute error
    levels: int
    evals: int


def _panel_counts(lo: float, hi: float, a2, b, r) -> list[int]:
    """Panels of level [lo, hi] for each pair: r times the largest |psi'|
    on the shared 33-point probe times the level width, in steps of 5,
    at least 4.  ``a2`` and ``b`` are arrays over the pairs."""
    probe = np.linspace(lo, hi, 33)
    speed = np.abs(ph._derivative(probe, a2[:, None], b[:, None])).max(axis=1)
    return [int(max(4, math.ceil(ri * float(v) * (hi - lo) / 5.0)))
            for ri, v in zip(r, speed)]


class _Scratch:
    """One worker's buffers for ``panels`` panels of nodes, made by the
    caller once a call and reused by every block the worker computes.
    ``w`` holds t and 2 sin 2t side by side, and then, once psi is
    built, the complex integrand over both."""

    def __init__(self, panels: int):
        nodes = panels * _GL_X.size
        self.panels = panels
        self.w = np.empty(2 * nodes)
        self.s = np.empty(nodes)  # sin 2t, then the amplitude
        self.c = np.empty(nodes)  # 2t, then cos 2t, then r psi
        self.rows = np.empty(panels, dtype=complex)


def _level_block(lo: float, hi: float, a2, b, r, n: int, panels,
                 buf: _Scratch) -> list[complex]:
    """Level [lo, hi] of a block of whole pairs of dimension n; returns
    each pair's sum.

    ``a2`` = |x|^2 + |y|^2, ``b`` = x.y, ``r`` and ``panels`` are arrays
    over the pairs.  Pair i's panel edges are those of np.linspace(lo, hi,
    panels[i] + 1), by its formula: j * step + lo, with hi as the last
    edge.  Per-pair scalars enter as per-panel columns broadcast over the
    panel's nodes, which gives the bits of the product by a scalar, and
    each pair's gemv rows and its sum over them are those of the pair
    alone.  A block of more panels than ``buf`` holds (one pair) goes
    through it in even chunks of at least half its size: no chunk is a
    one-row gemv, which numpy would run as a dot that rounds differently.

    The integrand amp * exp(i r psi) is built without complex
    temporaries: cos(r psi) and sin(r psi) go into the real and imaginary
    views of one complex buffer, and amp scales each view in place.  This
    has the bits of the complex form.  The complex i r psi has real part
    +-0.0, so its exp is exp(+-0.0) = 1 times the real cosine and sine of
    r psi.  Multiplying by amp as a complex number only adds amp*0 terms,
    which change no nonzero part; a zero part may differ in sign, and a
    zero adds nothing to the panel sums.
    """
    first = np.cumsum(panels) - panels
    count = int(first[-1] + panels[-1])
    step = (hi - lo) / panels
    half = 0.5 * ((step + lo) - lo)  # half a panel: edges[1] - edges[0]
    rows = (buf.rows[:count] if count <= buf.panels
            else np.empty(count, dtype=complex))
    chunks = -(-count // buf.panels)
    for k in range(chunks):
        start, stop = count * k // chunks, count * (k + 1) // chunks
        pair = np.searchsorted(first, np.arange(start, stop), "right") - 1
        j = (np.arange(start, stop) - first[pair]).astype(float)
        left = j * step[pair] + lo
        right = (j + 1.0) * step[pair] + lo
        right[j + 1.0 == panels[pair]] = hi
        mids = 0.5 * (left + right)
        m = (stop - start) * _GL_X.size
        ts = np.multiply(half[pair, None], _GL_X,
                         out=buf.w[:m].reshape(-1, _GL_X.size))
        ts += mids[:, None]
        c = np.multiply(ts, 2.0, out=buf.c[:m].reshape(ts.shape))
        s = np.sin(c, out=buf.s[:m].reshape(ts.shape))
        two_s = np.multiply(s, 2.0, out=buf.w[m:2 * m].reshape(ts.shape))
        # a Python-scalar exponent: numpy picks its loop (reciprocal,
        # sqrt or pow) from the exponent's value
        s **= -0.5 * n
        if hi > FLAT_END:
            s *= cutoff_taper(ts)
        np.cos(c, out=c)
        rpsi = ph._value(ts, a2[pair, None], b[pair, None], two_s, c, out=c)
        rpsi *= r[pair, None]
        vals = buf.w[:2 * m].view(complex)
        np.cos(rpsi.ravel(), out=vals.real)
        np.sin(rpsi.ravel(), out=vals.imag)
        vals.real *= s.ravel()
        vals.imag *= s.ravel()
        np.dot(vals.reshape(ts.shape), _GL_W, out=rows[start:stop])
    return [complex(h * rows[f:f + p].sum())
            for h, f, p in zip(half, first, panels)]


def _level_sums(scratch: list, lo: float, hi: float, descents: list,
                panels: list[int]) -> list[complex]:
    """Every pair's sum on level [lo, hi].  The pairs are cut, in order,
    into blocks of one dimension and at most ``_BLOCK_PANELS`` panels
    (or one pair); :func:`on_two_workers` runs block k on worker k mod 2,
    which computes it in ``scratch[k % 2]``.  The caller is worker 0 and
    computes its half of the blocks itself.  The helper thread and the
    malloc arena its allocations use live for the process: a seed-0
    ``checks`` pass peaks about 0.5 MB higher than with a thread started
    per level."""
    a2 = np.array([d.a2 for d in descents])
    b = np.array([d.b for d in descents])
    r = np.array([d.r for d in descents], dtype=float)
    panels = np.array(panels)
    blocks, start, size = [], 0, 0
    for k, d in enumerate(descents):
        if size and (size + panels[k] > _BLOCK_PANELS
                     or d.n != descents[start].n):
            blocks.append((start, k))
            start, size = k, 0
        size += int(panels[k])
    if size:
        blocks.append((start, len(descents)))
    sums = [None] * len(blocks)

    def compute(k, w):
        a, e = blocks[k]
        sums[k] = _level_block(lo, hi, a2[a:e], b[a:e], r[a:e],
                               descents[a].n, panels[a:e], scratch[w])

    on_two_workers(compute, len(blocks))
    return [value for block in sums for value in block]


class _Descent:
    """One window integral, descending a dyadic level at a time: its
    pair, its running sums and its stop rules."""

    def __init__(self, x, y, r: float, tol: float):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        self.n, self.r, self.tol = x.size, r, tol
        pts = ph.stationary_points_in(x, y, WINDOW_END)
        guard = min(0.4 * pts[0].t, FLAT_END) if pts else FLAT_END
        c_dist = float(np.dot(x - y, x - y))
        self.a2 = float(np.dot(x, x) + np.dot(y, y))
        self.b = float(np.dot(x, y))
        if c_dist > 0.0:
            # below this the singular phase part c/(4 t^2) dominates the rest
            guard = min(guard, 0.3 * math.sqrt(
                c_dist / (4.0 * max(abs(1.0 - self.b), 1e-3))))
        else:
            guard = 0.0
        self.guard = guard
        self.total, self.evals, self.small = 0j, 0, 0
        self.prev_running: complex | None = None

    def step(self, level: int, t_lo: float, contrib: complex,
             used: int) -> HalfIntegral | None:
        """Add the level down to ``t_lo``; the result once a stop rule
        fires, else None."""
        a2, b, r, n, tol = self.a2, self.b, self.r, self.n, self.tol
        self.total += contrib
        self.evals += used
        can_ibp = t_lo <= self.guard
        corr = 0j
        if can_ibp:
            # two integration-by-parts orders of the tail below t_lo
            dpsi = float(ph._derivative(t_lo, a2, b))
            ddpsi = float(ph._second_derivative(t_lo, a2, b))
            s2 = math.sin(2.0 * t_lo)
            f_lo = s2 ** (-0.5 * n)
            df_lo = -n * math.cos(2.0 * t_lo) * s2 ** (-0.5 * n - 1.0)
            osc = np.exp(1j * r * float(ph._value(t_lo, a2, b)))
            corr = osc * (f_lo / (1j * r * dpsi)
                          + (df_lo * dpsi - f_lo * ddpsi)
                          / (r * r * dpsi**3))
        running = self.total + corr
        if self.prev_running is not None:
            delta = abs(running - self.prev_running)
            if can_ibp and delta < 0.25 * tol:
                self.small += 1
                if self.small >= 2:
                    return HalfIntegral(value=running, achieved=delta,
                                        levels=level + 1, evals=self.evals)
            else:
                self.small = 0
        self.prev_running = running if can_ibp else None
        if n == 1:
            tail_bound = math.sqrt(math.pi * t_lo)
            if tail_bound < tol:
                return HalfIntegral(value=self.total, achieved=tail_bound,
                                    levels=level + 1, evals=self.evals)
        return None

    def exhausted(self) -> TailConvergenceError:
        prev, total = self.prev_running, self.total
        return TailConvergenceError(
            f"no tail convergence in {_MAX_LEVELS} dyadic levels "
            f"(tol {self.tol:g})",
            best=prev if prev is not None else total,
            achieved=abs((prev or total) - total) + self.tol,
        )


def _half_integrals(cases, tol: float, leads=None) -> list:
    """The window integral A(x, y) of every (x, y, r) case to absolute
    accuracy ~tol: a HalfIntegral per case, or the exception its descent
    ended in (a TailConvergenceError, as a rule), in case order.

    ``leads[i]``, where given and not None, is the index of an earlier
    case whose failure makes case i moot: once it fails, case i stops
    descending and takes its exception.

    Each descent goes down the dyadic levels toward t = 0; once below
    every stationary point, below the taper seam, and inside the region
    where the 1/t^2 part of the phase dominates, the remaining tail is
    closed with the integration-by-parts boundary term.  It stops after
    two consecutive levels change its running answer by less than tol/4,
    or, in dimension one, when the crude absolute tail bound sqrt(pi t)
    is already below tol.  A level needing more than ``_PANEL_CAP``
    panels ends it, and so do ``_MAX_LEVELS`` levels without a stop.
    """
    out = [None] * len(cases)
    live = []
    for i, (x, y, r) in enumerate(cases):
        try:
            live.append((i, _Descent(x, y, r, tol)))
        except Exception as exc:  # kept as the case's value
            out[i] = exc
    scratch = [_Scratch(_BLOCK_PANELS) for _ in range(2)]  # one per worker
    t_hi = WINDOW_END
    # one BLAS thread for every level gemv: a second one would spin on
    # after each call for no speed-up; the level sums keep their bits
    with one_thread():
        for level in range(_MAX_LEVELS):
            if not live:
                break
            t_lo = 0.5 * t_hi
            counts = _panel_counts(t_lo, t_hi,
                                   np.array([d.a2 for _, d in live]),
                                   np.array([d.b for _, d in live]),
                                   [d.r for _, d in live])
            kept, panels = [], []
            for (i, d), p in zip(live, counts):
                lead = None if leads is None else leads[i]
                if lead is not None and isinstance(out[lead], Exception):
                    out[i] = out[lead]  # on an earlier level or just above
                elif p > _PANEL_CAP:
                    out[i] = TailConvergenceError(
                        f"level [{t_lo:.3e}, {t_hi:.3e}] needs {p} panels "
                        f"(cap {_PANEL_CAP})", best=0j, achieved=math.inf)
                else:
                    kept.append((i, d))
                    panels.append(p)
            sums = _level_sums(scratch, t_lo, t_hi,
                               [d for _, d in kept], panels)
            live = []
            for (i, d), contrib, p in zip(kept, sums, panels):
                out[i] = d.step(level, t_lo, contrib, p * _GL_X.size)
                if out[i] is None:
                    live.append((i, d))
            t_hi = t_lo
    for i, d in live:
        out[i] = d.exhausted()
    return out


def _raised(value):
    """``value``, or raise it if it is an exception kept as data."""
    if isinstance(value, Exception):
        raise value
    return value


@dataclass(frozen=True)
class KernelValue:
    value: float
    imag_residual: float  # roundoff leakage when the four parts are summed
    error_estimate: float
    parts: tuple[complex, complex, complex, complex]
    evals: int


def _norm_const(n: int) -> float:
    return (2.0 * math.pi) ** (-0.5 * n) / math.pi


def _check_spectrum(r: int, n: int) -> None:
    if int(r) != r or r < n or (int(r) - n) % 2:
        raise ValueError(
            f"r={r} is not an eigenvalue of the {n}-d oscillator (need r = 2N + {n})"
        )


def _rescaled(x, y, r: int):
    """The pair in units of lambda = sqrt(r), after the checks of
    :func:`kernel_oscillatory`."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = x.size
    _check_spectrum(r, n)
    if n >= 4:
        raise ValueError("tail closure implemented for dimensions 1..3 only")
    if n >= 2:
        c_near = min(float(np.dot(x - y, x - y)), float(np.dot(x + y, x + y)))
        if c_near < 1.0:
            raise NearDiagonalError(
                f"min(|x-y|, |x+y|)^2 = {c_near:.3g} < 1: too close to the "
                "diagonal or antidiagonal for the oscillatory route; evaluate "
                "the eigenbasis sum instead"
            )
    lam = math.sqrt(r)
    return x / lam, y / lam


def _assemble(r: int, n: int, a_plus: HalfIntegral,
              a_minus: HalfIntegral) -> KernelValue:
    c_n = _norm_const(n)
    rot = np.exp(-0.25j * math.pi * n)
    i0 = c_n * rot * a_plus.value
    i1m = c_n * rot * _i_power(int(r)) * np.conj(a_minus.value)
    parts = (complex(i0), complex(np.conj(i0)), complex(np.conj(i1m)), complex(i1m))
    total = parts[0] + parts[1] + parts[2] + parts[3]
    err = 2.0 * c_n * (a_plus.achieved + a_minus.achieved)
    return KernelValue(
        value=float(total.real),
        imag_residual=abs(total.imag),
        error_estimate=err,
        parts=parts,
        evals=a_plus.evals + a_minus.evals,
    )


def kernel_oscillatory_batch(cases, tol: float = 1e-8) -> list:
    """:func:`kernel_oscillatory` of every (x, y, r) case, through one
    driver call over all their window integrals.

    Each entry is the case's KernelValue, or the exception it raised
    (a refusal, a panel cap hit, no tail convergence), kept as data so
    that one case cannot stop the others.
    """
    halves, slots, leads = [], [], []
    for x, y, r in cases:
        try:
            x, y = _rescaled(x, y, r)
        except Exception as exc:  # kept as the case's value
            slots.append(exc)
            continue
        slots.append(len(halves))
        # the (x, y) half's failure is the case's, so it stops the other
        leads += [None, len(halves)]
        halves += [(x, y, r), (x, -y, r)]
    values = _half_integrals(halves, tol, leads)
    out = []
    for (x, y, r), slot in zip(cases, slots):
        if isinstance(slot, Exception):
            out.append(slot)
            continue
        a_plus, a_minus = values[slot], values[slot + 1]
        failed = [v for v in (a_plus, a_minus) if isinstance(v, Exception)]
        out.append(failed[0] if failed else
                   _assemble(r, halves[slot][0].size, a_plus, a_minus))
    return out


def kernel_oscillatory(x, y, r: int, tol: float = 1e-8) -> KernelValue:
    """Projection kernel K_r(x, y) through the window integrals.

    ``x`` and ``y`` are physical points (same convention as the
    eigenbasis sum); internally they are rescaled by lambda = sqrt(r) so
    the turning sphere sits at radius one.  ``r`` is the eigenvalue
    lambda^2 = 2N + n; it must lie in the spectrum since the fold relies
    on exp(i pi r / 2) being a power of i.  For n >= 2, pairs closer
    than physical distance one to the diagonal or antidiagonal are
    refused (the tail of the representation stops converging there):
    use the eigenbasis sum instead.  Dimensions n >= 4 are not supported
    by the tail closure.
    """
    return _raised(kernel_oscillatory_batch([(x, y, r)], tol)[0])


def _stationary_sum(x, y, r: float, n: int) -> complex:
    acc = 0j
    for p in ph.stationary_points_in(x, y, WINDOW_END):
        amp = float(cutoff_taper(p.t)) * p.sin2t ** (-0.5 * n)
        if amp == 0.0:
            continue
        psi_val = float(ph.phase_value(p.t, x, y))
        acc += fresnel_leading(r, psi_val, p.curvature, amp)
    return acc


def kernel_stationary_model(x, y, r: int) -> float:
    """Leading stationary-phase model of the kernel.

    Each window integral is replaced by the sum of its half-power
    stationary contributions; physical coordinates, assembly, and
    normalization match :func:`kernel_oscillatory`.  Expected accuracy
    is a relative O(1/r) against the full evaluation, degrading near
    the diagonal and near stationary-point collisions where curvatures
    degenerate.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = x.size
    _check_spectrum(r, n)
    lam = math.sqrt(r)
    x = x / lam
    y = y / lam
    s_plus = _stationary_sum(x, y, r, n)
    s_minus = _stationary_sum(x, -y, r, n)
    c_n = _norm_const(n)
    rot = np.exp(-0.25j * math.pi * n)
    return float(2.0 * (c_n * rot * (s_plus + _i_power(int(r)) * np.conj(s_minus))).real)


# ------------------------------------------------------- bound check ----

@dataclass(frozen=True)
class KernelSampleSpec:
    """Sampling recipe for the uniform kernel bound on a caustic shell.

    Points are drawn in rescaled coordinates at distance about mu from
    the turning sphere (relative jitter 25 percent), paired as exact
    diagonal, antidiagonal, and two nearby on-shell companions at unit
    and few-wavelength physical separation, cycling through the four
    kinds across draws.
    """

    mu: float
    count: int = 16
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        if self.count < 4:
            raise ValueError("need at least 4 sample pairs")


@dataclass(frozen=True)
class KernelBoundReport:
    n: int
    r: int
    mu: float
    normalizer: float
    max_ratio: float
    median_ratio: float
    diagonal_ratio: float
    count: int


def _on_shell(direction: np.ndarray, radius: float,
              turn: float) -> np.ndarray:
    """Rotate `direction` by angle `turn` within a coordinate plane and
    scale to `radius`; 1-d degenerates to a radial shift."""
    if direction.size == 1:
        return np.array([max(radius - abs(turn), 0.0) * np.sign(direction[0])])
    out = direction.copy()
    c, s = math.cos(turn), math.sin(turn)
    a, b = out[0], out[1]
    out[0] = c * a - s * b
    out[1] = s * a + c * b
    return radius * out


def kernel_bound_check(n: int, r: int,
                       sample: KernelSampleSpec) -> KernelBoundReport:
    """Empirical check of |K_r| <= C (r mu)^{(n-2)/2} on a mu-shell.

    Kernel values come from the exact eigenbasis sum (valid at and near
    the diagonal, where the oscillatory route refuses and where the
    bound actually peaks).  The report carries the worst and median
    ratio to the normalizer; a constant that stays put while r sweeps
    upward is what the sharp bound predicts.
    """
    _check_spectrum(r, n)
    level = (int(r) - n) // 2
    lam = math.sqrt(r)
    rng = np.random.default_rng(sample.seed)
    normalizer = (r * sample.mu) ** (0.5 * (n - 2))
    # every pair is drawn first (no draw depends on a kernel value, so the
    # stream is unchanged), then one Hermite table covers all their points
    pairs = []
    for i in range(sample.count):
        direction = rng.standard_normal(n)
        direction /= math.hypot(*direction)
        rho_x = max(1.0 - sample.mu * (1.0 + 0.5 * (rng.random() - 0.5)), 0.0)
        x = rho_x * direction
        kind = i % 4
        if kind == 0:
            y = x
        elif kind == 1:
            y = -x
        elif kind == 2:
            y = _on_shell(direction, rho_x, 1.0 / lam)
        else:
            rho_y = max(1.0 - sample.mu * (1.0 + 0.5 * (rng.random() - 0.5)),
                        0.0)
            y = _on_shell(direction, rho_y, 4.0 / lam)
        pairs.append((lam * x, lam * y))
    values = projection_kernel_sums(level, n, [x for x, _ in pairs],
                                    [y for _, y in pairs])
    ratios = []
    diag_ratio = 0.0
    for i, value in enumerate(values):
        ratio = abs(value) / normalizer
        ratios.append(ratio)
        if i % 4 == 0:
            diag_ratio = max(diag_ratio, ratio)
    return KernelBoundReport(
        n=n, r=int(r), mu=sample.mu, normalizer=normalizer,
        max_ratio=float(max(ratios)), median_ratio=float(np.median(ratios)),
        diagonal_ratio=diag_ratio, count=len(ratios),
    )


def _physical(x, y, r):
    """consistency_residual's rescaled pair (x, y) in physical units."""
    lam = math.sqrt(r)
    return (lam * np.atleast_1d(np.asarray(x, dtype=float)),
            lam * np.atleast_1d(np.asarray(y, dtype=float)))


def consistency_top_panels(x, y, r) -> int:
    """Panels the top level [3 pi/16, 3 pi/8] of consistency_residual(x,
    y, r) needs, the more of its two window integrals', counted by the
    driver's own code.  config refuses a consistency radius by this
    count, exactly where the driver would refuse it on its top level; a
    deeper level may need more."""
    x, y = _rescaled(*_physical(x, y, r), r)
    halves = [_Descent(x, y, r, _CONSISTENCY_TOL),
              _Descent(x, -y, r, _CONSISTENCY_TOL)]
    return max(_panel_counts(0.5 * WINDOW_END, WINDOW_END,
                             np.array([d.a2 for d in halves]),
                             np.array([d.b for d in halves]),
                             [d.r for d in halves]))


def consistency_residual(x, y, r) -> float:
    """Gap between quadrature and the leading model at eigenvalue r.

    Coordinates are rescaled (turning sphere at radius one), so over an
    eigenvalue sweep at fixed (x, y) the gap isolates the next-order
    stationary-phase corrections.  Its log-log slope in r near -1 (one
    extra half-power per order, squared against the leading R^{-1/2})
    certifies the expansion; anything at or below -0.4 rules out a
    stalled remainder.  The gap is floored at 1e-300, so its log is
    finite.
    """
    x, y = _physical(x, y, r)
    quad = kernel_oscillatory(x, y, r, tol=_CONSISTENCY_TOL).value
    return max(abs(quad - kernel_stationary_model(x, y, r)), 1e-300)
