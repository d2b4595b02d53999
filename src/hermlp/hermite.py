"""Stable evaluation of normalized Hermite functions and their WKB profile.

The functions evaluated here are the L2-normalized eigenfunctions of
-d^2/dx^2 + x^2 on the line, generated by the three-term recurrence

    f_0(x)     = pi**-0.25 * exp(-x**2 / 2)
    f_{k+1}(x) = x*sqrt(2/(k+1))*f_k(x) - sqrt(k/(k+1))*f_{k-1}(x)

carried in log-scaled form so that orders in the thousands and arguments
far outside the classically allowed region neither overflow nor lose the
exponential tail to premature underflow.

One private driver, :func:`_tables`, steps that recurrence for every
table this package builds.  It takes (orders, grid) requests, runs one
recurrence over their grids concatenated, and lets each grid drop out
once its highest order is read, so a grid that needs only low orders
costs no more than on its own.  The rescale is per point, so every value
is the one a recurrence over that grid alone gives, bit for bit.  The
public evaluators (:func:`hermite_batch_grid`, :func:`hermite_batch`,
:func:`hermite_on_grids`) are thin shells over it.

The second half of the module provides the semiclassical profile for a
single order k: turning point, phase/decay actions, regime classification
around the turning point, and a pointwise asymptotic approximation with
nominal amplitude constants.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from ._blas import one_thread

_LOG_PI = math.log(math.pi)

# Rescale the recurrence state once it exceeds this magnitude; the factor
# is folded into the per-point log scale.
_RESCALE_LIMIT = 1.0e120
# Below this sum of squares no point can exceed the limit: a point above
# 1e120 makes the true sum exceed 1e240, and the computed dot product of a
# grid under 2^49 points is at least 14/15 of the true sum (or inf), above
# 9.33e239.  The closer to that the bar, the fewer steps pay the exact
# test: on a seed-0 sweep-tube pass, 3,592 of 28,740 steps at 9e239,
# against 14,646 at 1e239.
_RESCALE_DOT = 9.0e239
# Elements per chunk of the in-place row conversion of _to_values.
_CONVERT_CHUNK = 1 << 16


def _as_grid(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("expected a 1-d grid of points")
    if xs.size and not np.all(np.isfinite(xs)):
        raise ValueError("grid contains non-finite points")
    return xs


def _request(orders, xs) -> tuple[list[int], np.ndarray]:
    orders = [int(k) for k in orders]
    if any(k < 0 for k in orders):
        raise ValueError("orders must be >= 0")
    return orders, _as_grid(xs)


def _to_values(table: np.ndarray, rows, log_scale: np.ndarray) -> None:
    """Turn the raw recurrence rows ``rows`` of ``table`` into values in
    place: sign(f) * exp(log_scale + log|f|), zero where f is zero.

    The operations are elementwise, so a chunk of rows gets the bits each
    row gets on its own.  Rows go in chunks of about ``_CONVERT_CHUNK``
    elements; a run of consecutive rows is converted as a view, any other
    set through a gathered copy.
    """
    rows = np.unique(np.asarray(rows, dtype=np.intp))
    step = max(1, _CONVERT_CHUNK // max(1, table.shape[1]))
    for start in range(0, rows.size, step):
        at = rows[start:start + step]
        run = at[-1] - at[0] + 1 == at.size
        block = table[at[0]:at[-1] + 1] if run else table[at]
        sign = np.sign(block)  # +0.0 at -0.0 too, so zeros come out +0.0
        with np.errstate(divide="ignore", under="ignore"):
            np.abs(block, out=block)
            np.log(block, out=block)
            block += log_scale
            np.exp(block, out=block)
        block *= sign
        if not run:
            table[at] = block


def _tables(requests) -> list[np.ndarray]:
    """One (len(orders), len(grid)) table per validated (orders, grid)
    request; row r holds order ``orders[r]`` on the grid.

    The grids are concatenated in descending order of their highest order,
    so the points still stepping are always a prefix: a grid leaves it once
    its last order is read.  Each step writes into preallocated buffers in
    the operation order (x*sqrt(2/(k+1)))*f_k - sqrt(k/(k+1))*f_{k-1}, and
    renormalizes any point whose state exceeds 1e120, which keeps orders in
    the tens of thousands and |x| up to several hundred stable.  One dot
    product rules a rescale out on most steps; only when it cannot does
    the exact max/min test run.  The steps run under one ``one_thread()``
    scope, so the dot product does not wake a thread pool.

    A row is stored raw, as the recurrence state f with the point's log
    scale kept apart.  The rows read since the last conversion turn into
    values sign(f) * exp(log_scale + log|f|) in chunked passes
    (:func:`_to_values`): before each rescale changes a log scale, and once
    at the end.  A grid that has left the prefix keeps its last log scale
    in the full-length array, so its rows convert with that.  Every value
    is the one converting its row as it is read would give, bit for bit.
    """
    out = [np.empty((len(orders), xs.size)) for orders, xs in requests]
    stop = {i: max(orders) for i, (orders, xs) in enumerate(requests)
            if orders and xs.size}
    if not stop:
        return out
    live = sorted(stop, key=stop.get, reverse=True)
    stops = [stop[i] for i in live]
    ends = np.cumsum([requests[i][1].size for i in live]).tolist()
    want: dict[int, list] = {}
    parts = {}
    for i, end in zip(live, ends):
        orders, xs = requests[i]
        parts[i] = slice(end - xs.size, end)
        rows: dict[int, list[int]] = {}
        for row, k in enumerate(orders):
            rows.setdefault(k, []).append(row)
        for k, at in rows.items():
            want.setdefault(k, []).append((i, at[0] if len(at) == 1 else at, at))

    xs = np.concatenate([requests[i][1] for i in live])
    log_scale = -0.5 * xs * xs - 0.25 * _LOG_PI
    scales = log_scale  # full length: a grid past the prefix keeps its own
    read: dict[int, list[int]] = {}  # request -> rows read, still raw

    def convert():
        for i, rows in read.items():
            _to_values(out[i], rows, scales[parts[i]])
        read.clear()

    prev = np.zeros(xs.size)
    cur = np.ones(xs.size)
    nxt = np.empty(xs.size)
    last = len(live) - 1
    with one_thread():
        for k in range(stops[0] + 1):
            for i, index, at in want.get(k, ()):
                out[i][index] = cur[parts[i]]
                read.setdefault(i, []).extend(at)
            if k == stops[0]:
                break
            if stops[last] == k:  # the grids that stop here leave the prefix
                while stops[last] == k:
                    last -= 1
                xs, log_scale, prev, cur, nxt = (
                    a[:ends[last]] for a in (xs, log_scale, prev, cur, nxt))
            np.multiply(xs, math.sqrt(2.0 / (k + 1)), out=nxt)
            nxt *= cur
            # f_{k-1} is not read again: its buffer takes f_{k+2} next step
            nxt -= np.multiply(prev, math.sqrt(k / (k + 1)), out=prev)
            prev, cur, nxt = cur, nxt, prev
            if (np.dot(cur, cur) > _RESCALE_DOT
                    and (cur.max() > _RESCALE_LIMIT
                         or cur.min() < -_RESCALE_LIMIT)):
                convert()  # the rows read so far use the old log scales
                big = np.flatnonzero(np.abs(cur) > _RESCALE_LIMIT)
                factor = np.abs(cur[big])
                cur[big] /= factor
                prev[big] /= factor
                log_scale[big] += np.log(factor)
    convert()
    return out


def hermite_batch_grid(k_max: int, xs) -> np.ndarray:
    """Evaluate all orders 0..k_max on a grid.

    Returns an array of shape (k_max + 1, len(xs)) whose row k holds the
    normalized order-k Hermite function on ``xs``.  Values whose true
    magnitude is below the smallest positive float are returned as 0.0;
    this is the documented behaviour deep in the forbidden region rather
    than an error.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return _tables([_request(range(k_max + 1), xs)])[0]


def hermite_batch(orders, xs) -> np.ndarray:
    """Evaluate selected orders on a grid without storing all lower rows.

    ``orders`` is a sequence of non-negative ints (duplicates allowed);
    result has shape (len(orders), len(xs)).
    """
    return _tables([_request(orders, xs)])[0]


def hermite_on_grids(orders, grids) -> list[np.ndarray]:
    """Evaluate the orders ``orders[i]`` on ``grids[i]``, for every i.

    ``orders[i]`` is a sequence of non-negative ints (duplicates allowed);
    entry i of the result has shape (len(orders[i]), len(grids[i])).  All
    grids share one recurrence, and every value is bit for bit
    ``hermite_batch(orders[i], grids[i])``'s.
    """
    orders, grids = list(orders), list(grids)
    if len(orders) != len(grids):
        raise ValueError("need one grid per order list")
    return _tables([_request(o, g) for o, g in zip(orders, grids)])


def turning_point(k: int) -> float:
    """Classical turning point sqrt(2k+1) of the order-k oscillator state."""
    if k < 0:
        raise ValueError("order must be >= 0")
    return math.sqrt(2.0 * k + 1.0)


def phase_action(x: float, u: float) -> float:
    """Integral of sqrt(u^2 - t^2) from 0 to x, clipped at the turning points.

    Odd in x; saturates at +-pi*u^2/4 for |x| >= u.
    """
    if u <= 0.0:
        raise ValueError("turning point must be positive")
    ax = abs(x)
    if ax >= u:
        s = 0.25 * math.pi * u * u
    else:
        s = 0.5 * (ax * math.sqrt((u - ax) * (u + ax)) + u * u * math.asin(ax / u))
    return math.copysign(s, x) if x != 0.0 else 0.0


# Coefficients of the edge expansion of the decay action:
#   integral = u^2*sqrt(2)*d^{3/2} * sum(coef[m] * d^m),  d = x/u - 1,
# valid to ~1e-14 relative for d < 0.01 where the closed form cancels.
_EDGE_SERIES = (2.0 / 3.0, 1.0 / 10.0, -1.0 / 112.0, 1.0 / 576.0,
                -5.0 / 11264.0, 7.0 / 53248.0)
_EDGE_DELTA = 0.01


def decay_action(x: float, u: float) -> float:
    """Integral of sqrt(t^2 - u^2) from u to |x|; zero inside the well.

    Even in x.  Uses a series in (|x|-u)/u close to the turning point, the
    closed form elsewhere; both good to ~1e-12 relative.
    """
    if u <= 0.0:
        raise ValueError("turning point must be positive")
    ax = abs(x)
    if ax <= u:
        return 0.0
    d = (ax - u) / u
    if d < _EDGE_DELTA:
        acc = 0.0
        for c in reversed(_EDGE_SERIES):
            acc = acc * d + c
        return u * u * math.sqrt(2.0) * d ** 1.5 * acc
    return 0.5 * ax * math.sqrt((ax - u) * (ax + u)) - 0.5 * u * u * math.acosh(ax / u)


class Regime(IntEnum):
    OSCILLATORY = 0
    TRANSITION = 1
    DECAY = 2


def classify_regime(k: int, xs) -> np.ndarray:
    """Regime codes for grid points relative to the order-k turning point.

    The transition band is ||x| - u| <= u^(-1/3); inside of it is
    oscillatory, outside decaying.
    """
    u = turning_point(k)
    band = u ** (-1.0 / 3.0)
    ax = np.abs(_as_grid(xs))
    codes = np.full(ax.shape, Regime.TRANSITION, dtype=np.int8)
    codes[ax < u - band] = Regime.OSCILLATORY
    codes[ax > u + band] = Regime.DECAY
    return codes


# Nominal amplitude constants of the semiclassical profile.  The first two
# follow from matching the Airy transition layer; the transition constant
# is the measured peak ratio |f_k| / u^(-1/6) near the turning point and is
# only meant to be trusted to ~20%.
AMP_OSCILLATORY = math.sqrt(2.0 / math.pi)
AMP_DECAY = 0.5 * math.sqrt(2.0 / math.pi)
AMP_TRANSITION = 0.68


def szego_eval(k: int, xs):
    """Pointwise semiclassical approximation of the order-k function.

    Returns (values, envelope, regimes).  ``envelope`` is a positive bound
    profile valid in all three regimes.  ``values`` carries the signed
    approximation in the oscillatory and decay regimes and NaN in the
    transition band, where no closed-form model is provided.
    """
    xs = _as_grid(xs)
    u = turning_point(k)
    regimes = classify_regime(k, xs)
    values = np.full(xs.shape, np.nan)
    envelope = np.empty(xs.shape)

    osc = regimes == Regime.OSCILLATORY
    if np.any(osc):
        xo = xs[osc]
        shape = ((u - np.abs(xo)) * (u + np.abs(xo))) ** -0.25
        phi = np.array([0.25 * math.pi * u * u - phase_action(x, u) for x in xo])
        values[osc] = AMP_OSCILLATORY * shape * np.cos(phi - 0.25 * math.pi)
        envelope[osc] = AMP_OSCILLATORY * shape

    trans = regimes == Regime.TRANSITION
    envelope[trans] = AMP_TRANSITION * u ** (-1.0 / 6.0)

    dec = regimes == Regime.DECAY
    if np.any(dec):
        xd = xs[dec]
        shape = ((np.abs(xd) - u) * (np.abs(xd) + u)) ** -0.25
        damp = np.exp(-np.array([decay_action(x, u) for x in xd]))
        mag = AMP_DECAY * shape * damp
        sign = np.where(xd < 0, (-1.0) ** k, 1.0)
        values[dec] = sign * mag
        envelope[dec] = mag
    return values, envelope, regimes
