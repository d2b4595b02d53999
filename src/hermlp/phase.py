"""Phase geometry of the half-period projection-kernel integral.

The oscillatory representation of the spectral projection integrates

    psi(t; x, y) = t + ((|x|^2 + |y|^2) cos 2t - 2 x.y) / (2 sin 2t)

over t in (0, pi/2).  Writing a2 = |x|^2 + |y|^2 and b = x.y, interior
stationary points of psi solve the quadratic

    cos(2t)^2 - 2 b cos(2t) + (a2 - 1) = 0,

so cos 2t = b +- sqrt(disc) with disc = b^2 - a2 + 1.  This module
evaluates psi and its t-derivatives on arrays of t, locates the
stationary points with their curvatures, and assembles the mixed
second-derivative matrix in (x, y) of the reduced two-point phase at a
stationary point, whose spectrum is {0} union {-1/sin 2t} with the
latter repeated n-1 times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# cos values this close to +-1 are treated as a boundary collision rather
# than rejected, absorbing roundoff in b + sqrt(disc)
_CLAMP_TOL = 1e-12


def _pair(x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d points of equal dimension")
    a2 = float(np.dot(x, x) + np.dot(y, y))
    b = float(np.dot(x, y))
    return x, y, a2, b


# The kernels below take a2 = |x|^2 + |y|^2 and b = x.y directly, for
# callers that evaluate one pair at many t; the public functions are thin
# wrappers, so each formula exists once.

def _value(t, a2: float, b: float, two_s=None, c=None, out=None):
    """psi at t, as t + (a2 c - 2 b) / (2 s) in that operation order.

    ``two_s`` and ``c`` are 2 sin 2t and cos 2t when the caller already
    has them.  ``out`` receives psi and may be ``c`` itself.  Each step is
    an elementwise operation, in place on arrays, so the bits are those of
    the plain expression.
    """
    if two_s is None:
        two_s = 2.0 * np.sin(2.0 * t)
    if c is None:
        c = np.cos(2.0 * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.multiply(a2, c, out=out)
        psi -= 2.0 * b
        psi /= two_s
        psi += t
    return psi


def _derivative(t, a2: float, b: float):
    s = np.sin(2.0 * t)
    c = np.cos(2.0 * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -(a2 - 1.0 - 2.0 * b * c + c * c) / (s * s)


def _second_derivative(t, a2: float, b: float):
    s = np.sin(2.0 * t)
    c = np.cos(2.0 * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 4.0 * (a2 * c - b * (1.0 + c * c)) / (s * s * s)


def _on_t(kernel, t, x, y):
    _, _, a2, b = _pair(x, y)
    val = kernel(np.asarray(t, dtype=float), a2, b)
    return val if val.ndim else float(val)


def phase_value(t, x, y):
    """psi(t; x, y); vectorized over t.  Infinite where sin 2t = 0."""
    return _on_t(_value, t, x, y)


def phase_derivative(t, x, y):
    """d psi / dt; vectorized over t."""
    return _on_t(_derivative, t, x, y)


def phase_second_derivative(t, x, y):
    """d^2 psi / dt^2; vectorized over t."""
    return _on_t(_second_derivative, t, x, y)


@dataclass(frozen=True)
class CriticalPoint:
    t: float
    cos2t: float
    sin2t: float
    curvature: float  # psi'' there: +4 sqrt(disc)/sin 2t on the plus root
    kind: str  # "plus" or "minus" by the sign in front of sqrt(disc)
    at_boundary: bool  # collided with t = 0 or t = pi/2
    degenerate: bool  # double root, curvature 0


def _make_point(c_raw: float, kind: str, disc: float) -> CriticalPoint | None:
    if c_raw > 1.0 + _CLAMP_TOL or c_raw < -1.0 - _CLAMP_TOL:
        return None
    c = min(1.0, max(-1.0, c_raw))
    t = 0.5 * math.acos(c)
    s = math.sin(2.0 * t)
    boundary = s == 0.0
    degenerate = disc == 0.0
    if boundary:
        curv = math.inf if not degenerate else math.nan
    else:
        curv = 4.0 * math.sqrt(disc) / s
        if kind == "minus":
            curv = -curv
    return CriticalPoint(
        t=t, cos2t=c, sin2t=s, curvature=curv, kind=kind,
        at_boundary=boundary, degenerate=degenerate,
    )


@dataclass(frozen=True)
class CriticalPoints:
    a_sq: float
    b: float
    disc: float
    plus: CriticalPoint | None  # cos 2t = b + sqrt(disc)
    minus: CriticalPoint | None  # cos 2t = b - sqrt(disc), kept when b >= sqrt(disc)

    def interior(self) -> list[CriticalPoint]:
        return [p for p in (self.plus, self.minus)
                if p is not None and not p.at_boundary]


def critical_points(x, y) -> CriticalPoints:
    """Stationary points of the phase under the first-quadrant convention.

    The plus root is reported whenever disc >= 0 puts it in range; the
    minus root is reported only when it lies at or before the quarter
    period, i.e. b >= sqrt(disc).  Roots landing on t = 0 or t = pi/2
    (which happens exactly for y = x resp. y = -x) are flagged
    at_boundary with infinite curvature.
    """
    _, _, a2, b = _pair(x, y)
    disc = b * b - a2 + 1.0
    if disc < 0.0:
        return CriticalPoints(a_sq=a2, b=b, disc=disc, plus=None, minus=None)
    rt = math.sqrt(disc)
    plus = _make_point(b + rt, "plus", disc)
    minus = _make_point(b - rt, "minus", disc) if b >= rt else None
    return CriticalPoints(a_sq=a2, b=b, disc=disc, plus=plus, minus=minus)


def stationary_points_in(x, y, t_max: float) -> list[CriticalPoint]:
    """Every interior stationary point with 0 < t < t_max.

    Unlike :func:`critical_points` this drops the quarter-period
    convention on the minus root, since integration windows extending
    past pi/4 see that root wherever it lands.
    """
    _, _, a2, b = _pair(x, y)
    disc = b * b - a2 + 1.0
    pts: list[CriticalPoint] = []
    if disc < 0.0:
        return pts
    rt = math.sqrt(disc)
    for c_raw, kind in ((b + rt, "plus"), (b - rt, "minus")):
        p = _make_point(c_raw, kind, disc)
        if p is not None and not p.at_boundary and 0.0 < p.t < t_max:
            pts.append(p)
    pts.sort(key=lambda p: p.t)
    return pts


def mixed_hessian(x, y, point: CriticalPoint) -> np.ndarray:
    """Mixed x-y second derivatives of the reduced phase at a stationary point.

    Eliminating t near a nondegenerate interior stationary point leaves a
    two-point phase whose mixed Hessian is

        -I/sin 2t - (4 / (sin 2t)^4 / psi'') * outer(x - y cos 2t, y - x cos 2t).

    Its eigenvalues are 0 (once) and -1/sin 2t (n-1 times).
    """
    x, y, _, _ = _pair(x, y)
    if point.at_boundary or point.degenerate:
        raise ValueError("mixed Hessian needs a nondegenerate interior point")
    c, s = point.cos2t, point.sin2t
    n = x.size
    outer = np.outer(x - y * c, y - x * c)
    return -np.eye(n) / s - (4.0 / (s**4 * point.curvature)) * outer
