"""Stationary-phase expansion engine for one interior nondegenerate point.

For I(lam) = integral of a(t) exp(i lam phi(t)) dt with phi'(c) = 0 and
phi''(c) != 0 at a single interior point c, expanding exp(i lam g) with
g = phi - phi(c) - phi''(c)(t-c)^2/2 and integrating the Gaussian moments
term by term gives

    I(lam) ~ exp(i lam phi(c)) * sum over (k, j) of
        i^(k+j) sqrt(2 pi) / (j! k! 2^j) * sgn^j * exp(i pi sgn / 4)
        * lam^(k-j-1/2) * |phi''(c)|^(-j-1/2) * d^(2j)/dt^(2j)[g^k a](c)

with sgn = sign(phi''(c)); the (k, j) range keeps k <= 2m-1 and
j <= M-1 with M = 3m+1 for an order-m truncation, and g^k = O(t^3k)
kills everything below j = ceil(3k/2).

Derivatives of g^k a are extracted by exact power-series arithmetic from
supplied Taylor coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
PANEL_BLOCK = 1024  # panels per amplitude/phase call in the reference quadrature
_STATIONARITY_TOL = 1e-9  # first-order term allowed, relative to the largest


# ---------------------------------------------------------------- series ----

def series_mul(a, b, order: int) -> np.ndarray:
    """Product of two power series, truncated to the given order."""
    out = np.convolve(np.asarray(a, float), np.asarray(b, float))[: order + 1]
    if out.size < order + 1:
        out = np.pad(out, (0, order + 1 - out.size))
    return out


def series_exp(u, order: int) -> np.ndarray:
    """exp of a power series with u[0] arbitrary, truncated to order."""
    u = np.asarray(u, dtype=float)
    if u.size < order + 1:
        u = np.pad(u, (0, order + 1 - u.size))
    b = np.zeros(order + 1)
    b[0] = math.exp(u[0])
    for n in range(1, order + 1):
        b[n] = sum(k * u[k] * b[n - k] for k in range(1, n + 1)) / n
    return b


def smooth_bump(t, half_width: float = 1.0):
    """exp(-s/(1-s)) with s = (t/half_width)^2: C-infinity, supported on
    [-half_width, half_width], value 1 at the origin.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    s = np.atleast_1d((t / half_width) ** 2)
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(-s[inside] / (1.0 - s[inside]))
    return float(out[0]) if scalar else out


def smooth_bump_series(order: int, half_width: float = 1.0) -> np.ndarray:
    """Taylor coefficients of the bump at 0 up to t^order."""
    m = order // 2
    u = np.zeros(m + 1)
    u[1:] = -1.0  # -s/(1-s) = -(s + s^2 + ...)
    es = series_exp(u, m)
    out = np.zeros(order + 1)
    for i in range(m + 1):
        out[2 * i] = es[i] / half_width ** (2 * i)
    return out


# ---------------------------------------------------------------- engine ----

@dataclass(frozen=True)
class SPTerm:
    k: int
    j: int
    power: float  # exponent of lam carried by the term
    coefficient: complex


@dataclass(frozen=True)
class SPExpansion:
    order: int  # truncation order m
    phase_at_center: float
    curvature: float
    terms: tuple[SPTerm, ...]

    def evaluate(self, lam: float) -> complex:
        acc = 0j
        for term in self.terms:
            acc += term.coefficient * lam**term.power
        return acc * complex(math.cos(lam * self.phase_at_center),
                             math.sin(lam * self.phase_at_center))


def fresnel_leading(lam: float, phase_value: float, curvature: float,
                    amp_value: float) -> complex:
    """The (k, j) = (0, 0) term alone: the classical half-power law."""
    if curvature == 0.0 or not math.isfinite(curvature):
        raise ValueError("leading term needs finite nonzero curvature")
    sgn = 1.0 if curvature > 0 else -1.0
    mag = _SQRT_2PI / math.sqrt(lam * abs(curvature)) * amp_value
    ang = lam * phase_value + 0.25 * math.pi * sgn
    return mag * complex(math.cos(ang), math.sin(ang))


def expand_from_series(phase_coeffs, amp_coeffs, m: int) -> SPExpansion:
    """Build the order-m expansion from Taylor coefficients at the point.

    ``phase_coeffs[i]`` is the coefficient of t^i of the phase about the
    stationary point (so phase_coeffs[1] must vanish up to roundoff and
    phase_coeffs[2] must not), and similarly for the amplitude.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    big_m = 3 * m + 1
    need = 2 * (big_m - 1)
    phase = np.asarray(phase_coeffs, dtype=float)
    amp = np.asarray(amp_coeffs, dtype=float)
    if phase.size < 3:
        raise ValueError("phase series needs at least the quadratic term")
    if phase.size < need + 1:
        phase = np.pad(phase, (0, need + 1 - phase.size))
    if amp.size < need + 1:
        amp = np.pad(amp, (0, need + 1 - amp.size))
    scale = np.max(np.abs(phase)) or 1.0
    if abs(phase[1]) > _STATIONARITY_TOL * scale:
        raise ValueError("phase series has a first-order term: not a stationary point")
    curvature = 2.0 * phase[2]
    if curvature == 0.0:
        raise ValueError("degenerate stationary point: zero curvature")
    sgn = 1.0 if curvature > 0 else -1.0
    phase_rot = complex(math.cos(0.25 * math.pi * sgn), math.sin(0.25 * math.pi * sgn))

    g = phase.copy()
    g[0] = 0.0
    g[1] = 0.0
    g[2] = 0.0

    terms: list[SPTerm] = []
    a_k = amp[: need + 1]
    for k in range(2 * m):
        if k > 0:
            a_k = series_mul(a_k, g, need)
        for j in range(math.ceil(1.5 * k), big_m):
            if 2 * j > need:
                break
            deriv = a_k[2 * j] * math.factorial(2 * j)
            if deriv == 0.0:
                continue
            c = (
                1j ** (k + j)
                * (_SQRT_2PI / (math.factorial(j) * math.factorial(k) * 2.0**j))
                * sgn**j
                * phase_rot
            )
            coeff = c * abs(curvature) ** (-j - 0.5) * deriv
            terms.append(SPTerm(k=k, j=j, power=k - j - 0.5, coefficient=coeff))
    terms.sort(key=lambda t: (-t.power, t.k))
    return SPExpansion(order=m, phase_at_center=float(phase_coeffs[0]),
                       curvature=curvature, terms=tuple(terms))


# ------------------------------------------------------------- reference ----

def oscillatory_quadrature(amplitude, phase, lam: float, lo: float, hi: float,
                           panels: int = 200, nodes: int = 24) -> complex:
    """Composite Gauss-Legendre value of the full oscillatory integral.

    Panel count must resolve the fastest oscillation: lam * phase change
    per panel of a few radians.  ``amplitude`` and ``phase`` are called
    on 1-D node arrays covering up to ``PANEL_BLOCK`` panels at a time
    (the bound keeps memory flat at large lam), and must act elementwise;
    the panel sums are added one at a time in panel order.  Meant as an
    independent reference for the expansion, not as a fast path.
    """
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    total = 0j
    for start in range(0, panels, PANEL_BLOCK):
        block = slice(start, start + PANEL_BLOCK)
        ts = (mids[block, None] + halves[block, None] * base_x).ravel()
        vals = amplitude(ts) * np.exp(1j * lam * phase(ts))
        for half, row in zip(halves[block], vals.reshape(-1, nodes)):
            total += half * np.dot(base_w, row)
    return complex(total)
