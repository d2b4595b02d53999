"""Local L^p norms of eigenfunctions over balls.

Quadrature is deliberately boring: tensor Gauss-Legendre over the
bounding box with a sharp ball indicator, block-evaluated so large
grids stay in memory budget, and an exact reduction: each block's sum is
the correctly rounded sum of its terms, the value ``math.fsum`` gives,
so repeated runs produce bit-identical sums whatever the term order.
``_exact_chunk_sum`` gets that value from a few numpy passes: it splits
every term through its bit pattern into two exactly representable
halves, adds the halves per exponent field, where no addition can
round, and hands ``math.fsum`` only the nonzero bin sums (the binning
idea of Demmel & Nguyen, "Parallel Reproducible Summation", IEEE TC
2015).  Its bins persist across the chunks of a stream, so a block is
reduced a few lead rows at a time: ball mask, gathered values and
weight products exist only per chunk, and a block's peak memory is
about its one tile.

An integrand takes tensor axes: ``f(*axes, lead=slice(start, stop))``
gets the full 1-D node array of every axis and returns the tensor tile
of values on ``axes[0][lead] x axes[1] x ...`` (``lead`` defaults to the
whole axis).  Every lead-axis block gets the same full axes, so an
evaluator with per-axis tables builds each once per grid and never sees
a meshgrid.

The grid-spacing guard is the load-bearing contract: an eigenfunction
at energy lambda^2 oscillates on scale 1/lambda, and concentrated
examples carry features on a scale delta of their own, so the effective
node spacing must resolve min(1/lambda, delta)/4 or the norm value
would be quietly meaningless.  Violations raise instead of degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np
from numpy.polynomial.legendre import legcompanion, legder, legval

from ._blas import one_thread, tridiagonal_eigvalsh

__all__ = [
    "Domain",
    "NormValue",
    "TensorGrid",
    "local_lp_norm",
    "quadrature_axes",
]

_BLOCK = 1 << 20
# Each block is reduced in chunks of whole lead rows of about this many
# nodes.  On sweep-tube (2-vCPU Xeon), chunks of 2^14, 2^15, 2^16 and 2^17
# nodes gave peak RSS of 44.8, 45.1, 46.2 and 48.8 MB at the same wall
# time; a 2048 x 2048 grid reduced fastest at 2^13 to 2^16 (55-70 ms),
# and took 83 ms at 2^12.
_ROW_CHUNK = 1 << 14

# _exact_chunk_sum: chunk length, the mask that clears the low 27 of the
# 52 stored mantissa bits, and the largest exponent field it bins.  A
# field up to 2017 is a magnitude below 2^995 (field 2047 is inf or nan);
# below that and 2^26 terms, no bin sum and no partial sum of math.fsum
# can overflow.  Chunks of 2^13 and 2^14 terms were the fastest measured;
# of the two, only 2^14 left the peak memory of a saturate sweep where
# math.fsum had it.
_SUM_CHUNK = 1 << 14
_HI_MASK = np.int64(-(1 << 27))
_SUM_MAX_FIELD, _SUM_MAX_LEN = 2017, 1 << 26


@dataclass(frozen=True)
class TensorGrid:
    points_per_axis: int

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("tensor grid needs at least 2 points per axis")


@dataclass(frozen=True)
class Domain:
    """The ball of radius ``scale`` about ``center``."""

    center: tuple[float, ...]
    scale: float
    quad: TensorGrid

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("domain scale must be positive")
        if len(self.center) == 0:
            raise ValueError("domain needs at least one dimension")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class NormValue:
    value: float
    error_estimate: float | None
    nodes: int


_PANEL_ORDER = 33
_PLAIN_MAX = 1024
_rule_cache: dict = {}


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``leggauss(m)``, bit for bit, without its dense eigensolve.

    The steps and their operation order are leggauss's (numpy 2.x): the
    eigenvalues of the symmetric companion matrix, one Newton step, the
    weights from the scaled derivative, symmetrization and the scaling to
    total 2.  The companion matrix is tridiagonal with a zero diagonal
    (Golub & Welsch, Math. Comp. 1969), so its eigenvalues come from
    LAPACK ``dsterf`` in O(m^2), the bits ``eigvalsh`` gets from the same
    library (see ``_blas``).  Without a ``dsterf``, or when it fails, the
    dense ``eigvalsh`` runs as in leggauss, on one BLAS thread: its bits
    do not depend on the count, and a second thread saves less wall time
    than the CPU time it spins away.
    """
    c = np.array([0] * m + [1])
    scl = 1. / np.sqrt(2 * np.arange(m) + 1)
    x = tridiagonal_eigvalsh(np.zeros(m),
                             np.arange(1, m) * scl[:m - 1] * scl[1:m])
    if x is None:
        with one_thread():
            x = np.linalg.eigvalsh(legcompanion(c))
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def _axis_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights on [-1, 1] with about m points.

    Plain Gauss-Legendre up to 1024 points; beyond that, where a plain
    rule's O(m^2) cost keeps growing, the interval splits into equal
    panels with a fixed 33-point rule each (at least m points total,
    spectrally accurate per panel), taken from the cache like any other
    size.  Every caller of a size shares one cached pair of arrays, so
    they are read-only.
    """
    rule = _rule_cache.get(m)
    if rule is not None:
        return rule
    if m <= _PLAIN_MAX:
        rule = _gauss_legendre(m)
    else:
        panels = math.ceil(m / _PANEL_ORDER)
        bx, bw = _axis_rule(_PANEL_ORDER)
        half = 1.0 / panels
        mids = -1.0 + half * (2.0 * np.arange(panels) + 1.0)
        rule = ((mids[:, None] + half * bx[None, :]).ravel(),
                np.tile(half * bw, panels))
    for a in rule:
        a.flags.writeable = False
    if len(_rule_cache) > 32:
        _rule_cache.clear()
    _rule_cache[m] = rule
    return rule


def _check_spacing(dom: Domain, m: int, osc_scale: float,
                   feature_scale: float | None) -> None:
    need = 1.0 / osc_scale
    if feature_scale is not None:
        need = min(need, feature_scale)
    spacing = 2.0 * dom.scale / m
    if spacing > 0.25 * need:
        m_req = math.ceil(8.0 * dom.scale / need)
        raise ValueError(
            f"grid spacing {spacing:.3e} too coarse for oscillation scale "
            f"{need:.3e}/4; need at least {m_req} points per axis")


def _outer(vectors, op) -> np.ndarray:
    """Combine 1-D arrays into a tensor tile with op, left to right."""
    tile = vectors[0]
    for v in vectors[1:]:
        tile = op(tile[..., None], v)
    return tile


def _exact_chunk_sum(chunks) -> float:
    """math.fsum of every term of the 1-D float arrays chunks() yields.

    The bins persist across chunks, so the terms need never be in memory
    at once.  Each term x splits through its bit pattern into hi, x with
    the low 27 of its 52 stored mantissa bits cleared, and lo = x - hi,
    both exact, and both go to the bin of x's exponent field E.  A term of
    field E >= 1 lies in [2^e, 2^(e+1)) for e = E - 1023, and one of field
    0 (a subnormal or a zero) below 2^-1022, as if e = -1022: in one bin,
    the hi parts are multiples of 2^(e-25) below 2^(e+1) and the lo parts
    multiples of 2^(e-52) below 2^(e-25), so up to 2^26 terms keep every
    bin sum below 2^53 quanta: each bin sum is exact, with mixed signs
    too, and fsum of the bins is the correctly rounded total.  A term of
    field above 2017 (|x| >= 2^995, inf and nan included), more than 2^26
    terms or no nonzero bin (the sign of a zero total is fsum's call) send
    every term, yielded again by a second chunks() in the same order, to
    fsum itself, so inf, nan and overflow behave as there.
    """
    acc = np.zeros((2, _SUM_MAX_FIELD + 1))
    count = 0
    for a in chunks():
        count += a.size
        if count > _SUM_MAX_LEN:
            return math.fsum(chain.from_iterable(chunks()))
        for start in range(0, a.size, _SUM_CHUNK):
            x = a[start:start + _SUM_CHUNK]
            bits = x.view(np.int64)
            field = (bits >> 52) & 0x7ff
            if field.max() > _SUM_MAX_FIELD:
                return math.fsum(chain.from_iterable(chunks()))
            hi = (bits & _HI_MASK).view(np.float64)
            acc[0] += np.bincount(field, weights=hi,
                                  minlength=_SUM_MAX_FIELD + 1)
            acc[1] += np.bincount(field, weights=x - hi,
                                  minlength=_SUM_MAX_FIELD + 1)
    bins = acc[acc != 0.0]
    if bins.size == 0:
        return math.fsum(chain.from_iterable(chunks()))
    return math.fsum(bins.tolist())


def _ball_terms(tile, sq, wts, rows: int, r2: float, p: float):
    """Yield one block's terms, ``rows`` lead rows at a time.

    ``sq`` and ``wts`` hold, per axis, the squared offsets from the
    centre and the weights of the block's nodes.  Only the ball's nodes
    are gathered from the tile, which is only read (the others would add
    exact zeros); each term is |f|^p times its weight product (|f| alone
    for p = inf).
    """
    for start in range(0, len(sq[0]), rows):
        lead = slice(start, start + rows)
        inside = _outer([sq[0][lead]] + sq[1:], np.add) <= r2
        vals = tile[lead][inside]
        np.abs(vals, out=vals)
        if p != math.inf:
            vals **= p
            vals *= _outer([wts[0][lead]] + wts[1:], np.multiply)[inside]
        yield vals


def quadrature_axes(dom: Domain, m: int | None = None) -> list[np.ndarray]:
    """The node array of every axis of the tensor rule on ``dom``'s
    bounding box with about ``m`` points per axis (the grid's
    ``points_per_axis`` by default): the axes ``local_lp_norm`` hands its
    integrand, so tables built on them ahead of the norm are its own."""
    x, _ = _axis_rule(dom.quad.points_per_axis if m is None else m)
    return [c + dom.scale * x for c in dom.center]


def _tensor_value(f, dom: Domain, p: float, m: int) -> tuple[float, int]:
    n = dom.dim
    axes = quadrature_axes(dom, m)
    w = _axis_rule(m)[1]
    m = len(w)
    sq = [(a - c) ** 2 for a, c in zip(axes, dom.center)]
    wts = dom.scale * w
    r2 = dom.scale * dom.scale

    # block over leading-axis indices; each block is one tensor tile,
    # reduced in chunks of whole lead rows
    row = max(1, m ** (n - 1))
    lead_block = max(1, _BLOCK // row)
    rows = max(1, _ROW_CHUNK // row)
    parts = []  # each block's exact sum, or its max for p = inf
    for start in range(0, m, lead_block):
        lead = slice(start, min(m, start + lead_block))
        terms = partial(_ball_terms, np.asarray(f(*axes, lead=lead),
                                                dtype=float),
                        [sq[0][lead]] + sq[1:], [wts[lead]] + [wts] * (n - 1),
                        rows, r2, p)
        if p == math.inf:
            parts.append(np.max([v.max(initial=0.0) for v in terms()],
                                initial=0.0))
        else:
            parts.append(_exact_chunk_sum(terms))
        # free the tile before the next f call, or two blocks' tiles share
        # the heap
        del terms
    if p == math.inf:
        # np.max keeps a nan, where the builtin max would drop it
        return float(np.max(parts, initial=0.0)), m ** n
    return math.fsum(parts) ** (1.0 / p), m ** n


def local_lp_norm(f, dom: Domain, p: float, *, osc_scale: float,
                  feature_scale: float | None = None,
                  with_error: bool = True) -> NormValue:
    """L^p norm of f over the ball dom.

    ``f(*axes, lead=s)`` maps the full node array of every axis to the
    tensor tile on ``axes[0][s] x axes[1] x ...``.  The norm integrates
    |f|^p against Gauss-Legendre weights on the ball's bounding box,
    masked to the ball; p = inf takes the max over the nodes in the ball
    instead.  ``nodes`` counts the bounding-box nodes evaluated.
    osc_scale is the oscillation frequency of the integrand (lambda for
    eigenfunctions at energy lambda^2); feature_scale is the finest
    structural width when that is smaller.
    The error estimate comes from a once-doubled grid.
    """
    if not (p >= 1.0):
        raise ValueError(f"p={p} out of range: need p >= 1 (inf allowed)")
    if osc_scale <= 0.0:
        raise ValueError("osc_scale must be positive")
    m = dom.quad.points_per_axis
    _check_spacing(dom, m, osc_scale, feature_scale)
    coarse, n1 = _tensor_value(f, dom, p, m)
    if not with_error:
        return NormValue(coarse, None, n1)
    fine, n2 = _tensor_value(f, dom, p, 2 * m + 1)
    return NormValue(fine, abs(fine - coarse), n1 + n2)
