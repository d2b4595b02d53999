"""Local L^p bound formulas for oscillator eigenfunctions.

Everything here is closed-form exponent arithmetic: the local L^2 and
L^p growth envelopes over a dilated ball B(nu, r), the global growth
exponents, the dyadic-annulus classification of space relative to the
turning sphere |x| = lambda, the per-annulus bounds, and the geometry
of the thin tubes inside one annulus that the sharpness examples
concentrate on.  Values are
computed in log space so parameter sweeps cannot overflow, and every
piecewise seam is an exact algebraic identity checked by the test
suite.

Conventions: p ranges over [2, inf] with 1/inf = 0; the distance
parameter mu = max(lambda^{-4/3}, 1 - |nu|/lambda) measures how far the
ball center sits from the turning sphere (floored at the boundary
resolution scale), and mu_tilde = max(lambda^{-4/3}, mu - r/lambda)
measures the distance of the ball itself.  Regime seams are
disjointified half-open: the small-r regime takes r <= (lambda
sqrt(mu))^{-1}, the large-r regime takes r >= lambda*mu, the middle
takes what remains.  Inside the large-r regime mu_tilde always sits at
its floor, so the two formulas quoting it degenerate to pure powers of
lambda there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LocalBound",
    "Region",
    "TubeSpec",
    "annulus_lp_bound",
    "classify_region",
    "global_lp_exponent",
    "lambda_lp",
    "lambda_lp_at_mu",
    "max_local_bound",
    "mu_params",
    "rho_kink",
    "saturate_cell",
    "sogge_exponent",
    "sogge_kink",
    "thangavelu_kink",
    "tube_delta",
]


def sogge_kink(n: int) -> float:
    """p at which the fixed-ball exponent changes slope: (2n+2)/(n-1)."""
    return math.inf if n == 1 else (2.0 * n + 2.0) / (n - 1.0)


def rho_kink(n: int) -> float:
    """p at which the global growth exponent is minimized: (2n+6)/(n+1)."""
    return (2.0 * n + 6.0) / (n + 1.0)


def thangavelu_kink(n: int) -> float:
    """p beyond which fixed compact sets stop helping: 2n/(n-2)."""
    return math.inf if n <= 2 else 2.0 * n / (n - 2.0)


def _inv(p: float) -> float:
    if p == math.inf:
        return 0.0
    return 1.0 / p


def _check_p(p: float) -> float:
    if not (p >= 2.0):
        raise ValueError(f"p={p} out of range: need p >= 2 (inf allowed)")
    return _inv(p)


def sogge_exponent(n: int, p: float) -> float:
    """Classical sharp L^p exponent sigma(p) for frequency-one balls."""
    ip = _check_p(p)
    if p < sogge_kink(n):
        return 0.5 * (n - 1) * (0.5 - ip)
    return 0.5 * (n - 1) - n * ip


def global_lp_exponent(n: int, p: float) -> float:
    """Whole-space L^p growth exponent rho(p), all dimensions.

    Piecewise in p with kinks at (2n+6)/(n+1) (its minimum) and
    2n/(n-2); continuous at both.
    """
    ip = _check_p(p)
    if p < rho_kink(n):
        return -0.5 + ip
    if p <= thangavelu_kink(n):
        return (n - 2.0) / 6.0 - n * ip / 3.0
    return 0.5 * (n - 2.0) - n * ip


def mu_params(n: int, lam: float, r: float, nu_abs: float) -> tuple[float, float]:
    """Distance parameters (mu, mu_tilde) of the ball B(nu, r)."""
    if lam <= 0.0:
        raise ValueError(f"lambda={lam} must be positive")
    if not (0.0 < r <= lam):
        raise ValueError(f"r={r} out of range (0, lambda={lam}]")
    if not (0.0 <= nu_abs <= lam):
        raise ValueError(f"|nu|={nu_abs} out of range [0, lambda={lam}]")
    floor = lam ** (-4.0 / 3.0)
    mu = max(floor, 1.0 - nu_abs / lam)
    mu_tilde = max(floor, mu - r / lam)
    return mu, mu_tilde


@dataclass(frozen=True)
class LocalBound:
    value: float
    log_value: float
    branch: str
    mu: float
    mu_tilde: float


def _bound(log_value: float, branch: str, mu: float, mu_tilde: float) -> LocalBound:
    return LocalBound(value=math.exp(log_value), log_value=log_value,
                      branch=branch, mu=mu, mu_tilde=mu_tilde)


def _lp_log(n: int, lam: float, r: float, mu: float, mu_tilde: float,
            ip: float, p: float) -> tuple[float, str]:
    log_lam = math.log(lam)
    log_r = math.log(r)
    log_s = log_lam + 0.5 * math.log(mu)  # log(lambda mu^{1/2})
    r_point = 1.0 / (lam * math.sqrt(mu))
    r_tube = lam * mu
    if r <= r_point:
        return 0.5 * (n - 2) * log_s + n * ip * log_r, "point"
    if r < r_tube:
        if p <= sogge_kink(n):
            expo = 0.25 * (n - 1) - 0.5 * (n + 1) * ip
            return expo * (log_s - log_r) + (ip - 0.5) * log_s, "tube-low-p"
        return (0.5 * (n - 2) - n * ip) * log_s, "tube-high-p"
    log_t = log_lam + 0.5 * math.log(mu_tilde)  # log(lambda mu_tilde^{1/2})
    if p < rho_kink(n):
        expo = 0.25 * (n + 3) * ip - 0.125 * (n + 1)
        return expo * (log_r - log_lam) + (ip - 0.5) * log_lam, "cap-low-p"
    if p <= sogge_kink(n):
        expo = 0.25 * (n + 3) * ip - 0.125 * (n + 1)
        return 2.0 * expo * (log_t - log_lam) + (ip - 0.5) * log_lam, "cap-mid-p"
    if p <= thangavelu_kink(n):
        return (0.5 * (n - 2) - n * ip) * log_t, "cap-high-p"
    return (0.5 * (n - 2) - n * ip) * 0.5 * (log_lam + log_r), "cap-top-p"


def lambda_lp_at_mu(n: int, lam: float, r: float, mu: float, p: float) -> LocalBound:
    """Local L^p growth envelope with mu supplied directly.

    mu must already respect the lambda^{-4/3} floor; mu_tilde is derived.
    """
    ip = _check_p(p)
    floor = lam ** (-4.0 / 3.0)
    if mu < floor * (1.0 - 1e-12):
        raise ValueError(f"mu={mu} below the floor lambda^(-4/3)={floor}")
    mu = max(mu, floor)
    mu_tilde = max(floor, mu - r / lam)
    log_value, branch = _lp_log(n, lam, r, mu, mu_tilde, ip, p)
    return _bound(log_value, branch, mu, mu_tilde)


def lambda_lp(n: int, lam: float, r: float, nu_abs: float, p: float) -> LocalBound:
    """Local L^p growth envelope over B(nu, r), sharp up to constants.

    Piecewise in three r-regimes (point / tube / cap scale) and in p
    within the latter two; every seam where the exponents genuinely
    agree is an exact identity.
    """
    mu, mu_tilde = mu_params(n, lam, r, nu_abs)
    ip = _check_p(p)
    log_value, branch = _lp_log(n, lam, r, mu, mu_tilde, ip, p)
    return _bound(log_value, branch, mu, mu_tilde)


# ------------------------------------------------------------- regions ----

@dataclass(frozen=True)
class Region:
    kind: str  # "interior" | "boundary" | "exterior"
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("interior", "boundary", "exterior"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if (self.kind == "interior") != (self.j is not None):
            raise ValueError("interior regions need j; others must not carry one")


BOUNDARY = Region("boundary")
EXTERIOR = Region("exterior")


def classify_region(lam: float, x_abs: float) -> Region:
    """Which dyadic annulus of the turning-sphere decomposition holds |x|.

    Disjointified: exterior wins first (|x| > lambda + lambda^{-1/3}/2),
    then the boundary layer (||x| - lambda| <= lambda^{-1/3}), then the
    interior annulus j >= 0 whose center depth lambda 2^{-2j} is nearest
    to lambda - |x| on the log scale (factor-4-wide half-open bins, so
    the annuli tile the interior without gaps), clamped to
    2^j <= lambda^{2/3}.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda={lam} must be positive")
    if x_abs < 0.0:
        raise ValueError(f"|x|={x_abs} must be nonnegative")
    width = lam ** (-1.0 / 3.0)
    if x_abs > lam + 0.5 * width:
        return EXTERIOR
    if abs(x_abs - lam) <= width:
        return BOUNDARY
    depth = (lam - x_abs) / lam
    q = -math.log2(depth)
    j = max(0, math.ceil(0.5 * q - 0.5))
    j_max = math.floor(2.0 * math.log2(lam) / 3.0)
    return Region("interior", min(j, max(j_max, 0)))


def annulus_lp_bound(n: int, lam: float, region: Region, p: float) -> float:
    """Per-annulus L^p bound (relative to the global L^2 norm).

    Interior annuli switch formula at p = (2n+2)/(n-1) where the two
    expressions meet exactly; the boundary layer and the exterior share
    a single formula for all p.
    """
    ip = _check_p(p)
    log_lam = math.log(lam)
    if region.kind in ("boundary", "exterior"):
        return math.exp((-1.0 / 3.0 + (n / 3.0) * (0.5 - ip)) * log_lam)
    j = region.j
    if not (0 <= j and 2.0**j <= lam ** (2.0 / 3.0)):
        raise ValueError(f"annulus index j={j} out of range for lambda={lam}")
    if p <= sogge_kink(n):
        expo_j = 0.25 * (n + 1) - 0.5 * (n + 3) * ip
        return math.exp((ip - 0.5) * log_lam + expo_j * j * math.log(2.0))
    return math.exp((0.5 * (n - 2) - n * ip) * (log_lam - j * math.log(2.0)))


# --------------------------------------------------------------- tubes ----

TUBE_C1 = 0.125
TUBE_C2 = 0.125


@dataclass(frozen=True)
class TubeSpec:
    """Geometry of one concentration tube.

    The tube is the box |x1 - x1_star| <= half_length, |x'| <= half_width
    (per transverse coordinate), sitting inside the dyadic interior
    annulus of index j at distance ~ lam * 2**(-2j) from the caustic.
    """

    j: int
    delta: float
    x1_star: float
    lam: float

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("dyadic index must be nonnegative")
        if self.lam <= 0.0:
            raise ValueError("eigenvalue parameter must be positive")
        if not 2.0 ** self.j <= self.lam ** (2.0 / 3.0) * (1.0 + 1e-12):
            raise ValueError(
                f"2**j = {2 ** self.j} exceeds lam**(2/3) = "
                f"{self.lam ** (2 / 3):.6g}; the annulus is empty"
            )
        lo = 2.0 ** self.j / self.lam
        hi = 2.0 ** (-0.5 * self.j)
        if not lo * (1.0 - 1e-12) <= self.delta <= hi * (1.0 + 1e-12):
            raise ValueError(
                f"delta={self.delta:.6g} outside the admissible "
                f"window [{lo:.6g}, {hi:.6g}] for j={self.j}"
            )
        if not 0.0 < self.x1_star < self.lam:
            raise ValueError("tube center must lie inside the caustic")

    @classmethod
    def from_level(cls, n: int, level: int, j: int, delta: float) -> "TubeSpec":
        """Tube for the eigenspace of total order `level` in n dimensions.

        Centers at lam * (1 - 2**(-2j)) for j >= 1.  At j = 0 that point
        degenerates to the origin and lam / 2 sits exactly on the seam
        between the first two annuli, so the center moves to lam / 4:
        distance 0.75 * lam from the caustic, mid-bin with margin on
        both sides.
        """
        lam = math.sqrt(2 * level + n)
        x1_star = lam / 4.0 if j == 0 else lam * (1.0 - 2.0 ** (-2 * j))
        return cls(j=j, delta=delta, x1_star=x1_star, lam=lam)

    @property
    def half_length(self) -> float:
        return TUBE_C1 * self.lam * 2.0 ** (-self.j) * self.delta**2

    @property
    def half_width(self) -> float:
        return TUBE_C2 * self.delta


def tube_delta(rule: dict, n: int, level: int, j: int) -> float:
    """Tube width from a config rule: ``{"type": "fixed", "value": d}``
    gives d; ``{"type": "case2", "r": r}`` gives the width whose tube
    matches a radius-r ball at the center's distance mu from the caustic,
    (lam * mu**(1/2) / r)**(-1/2), with mu = 2**(-2j) (0.75 at j = 0,
    where the center sits at lam / 4)."""
    if rule["type"] == "fixed":
        return rule["value"]
    lam = math.sqrt(2 * level + n)
    mu = 0.75 if j == 0 else 2.0 ** (-2 * j)
    return (lam * math.sqrt(mu) / rule["r"]) ** -0.5


def saturate_cell(case: dict, level: int) -> tuple[TubeSpec, tuple, float]:
    """Tube, ball center nu and radius r of one saturate cell.

    case3 puts a width-2**(-k/2) tube in annulus k of the line and the
    radius-lam*2**(-2k) ball just inside the turning point; case2 and
    random take the case2 width of the case's radius r and center the
    ball on the tube.  Raises ValueError when the tube is infeasible.
    """
    if case["kind"] == "case3":
        k = case["k"]
        tube = TubeSpec.from_level(1, level, k, 2.0 ** (-0.5 * k))
        r = tube.lam * 2.0 ** (-2 * k)
        return tube, (tube.lam - r,), r
    n, j, r = case["n"], case["j"], case["r"]
    delta = tube_delta({"type": "case2", "r": r}, n, level, j)
    tube = TubeSpec.from_level(n, level, j, delta)
    return tube, (tube.x1_star,) + (0.0,) * (n - 1), r


# ------------------------------------------------- max over translations ----

def max_local_bound(n: int, lam: float, r: float, p: float) -> LocalBound:
    """sup over centers nu of the local L^p envelope, with its argmax.

    Closed forms for n >= 2, split at r ~ lambda^{-1/3} and
    r ~ lambda^{-1} and by p against the two kinks.  The returned mu is
    a representative maximizing location; branch records which cell of
    the max table fired.  Verified in tests against brute-force
    maximization of lambda_lp_at_mu over a dense mu grid.
    """
    if n < 2:
        raise ValueError("max table is stated for n >= 2")
    ip = _check_p(p)
    if not (0.0 < r <= lam):
        raise ValueError(f"r={r} out of range (0, lambda={lam}]")
    log_lam = math.log(lam)
    log_r = math.log(r)
    floor = lam ** (-4.0 / 3.0)
    mu_origin = max(floor, 1.0 - r / lam)
    if r <= 1.0 / lam:
        # point-concentration cell: centered near the origin, mu ~ 1
        log_value = 0.5 * (n - 2) * log_lam + n * ip * log_r
        return _bound(log_value, "max:origin", 1.0, mu_origin)
    if p > thangavelu_kink(n):
        # beyond the top kink the origin keeps winning for every r
        log_value = (0.5 * (n - 2) - n * ip) * log_lam
        return _bound(log_value, "max:origin-top", 1.0, mu_origin)
    if r <= lam ** (-1.0 / 3.0):
        # mu ~ (lambda r)^{-2}: ball comparable to the point scale there
        mu = (lam * r) ** -2.0
        log_value = (n * ip - 0.5 * (n - 2)) * log_r
        return _bound(log_value, "max:point-scale", mu, floor)
    if p < rho_kink(n):
        # cap regime, any center with lambda mu <= r
        mu = min(1.0, r / lam)
        expo = 0.125 * (n + 1) - 0.25 * (n + 3) * ip
        log_value = expo * (log_lam - log_r) + (ip - 0.5) * log_lam
        return _bound(log_value, "max:cap", mu, floor)
    # ball just reaching the boundary layer: global growth recovered
    mu = min(1.0, r / lam)
    log_value = ((n - 2.0) / 6.0 - n * ip / 3.0) * log_lam
    return _bound(log_value, "max:boundary-touch", mu, floor)
