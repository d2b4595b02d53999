"""Concentrated eigenfunction construction on thin tubes.

Builds combinations of oscillator eigenfunctions whose amplitude is
coherent on a tube near the first coordinate axis: pick every
transverse order inside a fixed window around delta**-2, then keep the
subset whose first-axis action values agree modulo 2 pi (pigeonhole
over phase bins).  On the tube all selected terms then add in phase,
so the combination reaches amplitude lam**-0.5 * 2**(j/2) *
delta**(-(n-1)/2) per unit of global L2 mass.

The saturate experiment divides ball_lp_norm per unit L2 mass by the
closed-form growth envelope; a lam-independent band near 1 is what "the
envelope is attained" means at desk scale.

Parity note: every transverse order in the window is even, so the
first-axis order has the parity of the total level across the whole
index set.  The keep-larger-parity filter in phase_bin is therefore a
no-op for sets produced by index_set; it only acts on hand-built
mixed-parity input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import TubeSpec
from .hermite import decay_action, phase_action
from .normquad import Domain, TensorGrid, local_lp_norm
from .spectral import Eigenfunction

DEFAULT_BINS = 8
DEFAULT_WINDOW = 2.0

_AXIS_POINTS = 41
_CROSS_POINTS = 21


@dataclass(frozen=True)
class BinSelection:
    """All phase bins plus the index of the selected (largest) one."""

    bins: tuple
    selected_index: int

    @property
    def selected(self) -> tuple:
        return self.bins[self.selected_index]

    @property
    def fraction(self) -> float:
        total = sum(len(b) for b in self.bins)
        return len(self.selected) / total


@dataclass(frozen=True)
class ConstructionReport:
    eigenfunction: Eigenfunction
    tube: TubeSpec
    bin_index: int
    bin_fraction: float
    target_amplitude: float


def index_set(n: int, level: int, delta: float) -> list:
    """All level-`level` multi-indices with even transverse orders in
    the window [delta**-2 / DEFAULT_WINDOW, DEFAULT_WINDOW * delta**-2].

    The first coordinate absorbs the remainder of the level; indices
    that would need a negative remainder are dropped.  An infeasible
    window gives an empty list, not an error.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if level < 0:
        raise ValueError("level must be nonnegative")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if n == 1:
        return [(level,)]
    lo = delta**-2 / DEFAULT_WINDOW
    hi = DEFAULT_WINDOW * delta**-2
    # round(., 9) snaps float noise so intended integer endpoints stay in
    first_even = 2 * math.ceil(round(lo / 2.0, 9))
    last_even = 2 * math.floor(round(hi / 2.0, 9))
    if first_even > last_even:
        return []
    window = range(first_even, last_even + 1, 2)
    out = []
    for rest in itertools.product(window, repeat=n - 1):
        first = level - sum(rest)
        if first >= 0:
            out.append((first, *rest))
    return out


def first_axis_action(alpha1: int, x: float) -> float:
    """Accumulated action of the order-alpha1 factor from 0 to x.

    Oscillatory phase inside the classically allowed region, continued
    monotonically by the decay action beyond the turning point, so the
    value is defined for every center position.
    """
    u = math.sqrt(2.0 * alpha1 + 1.0)
    return phase_action(x, u) + decay_action(x, u)


def phase_bin(indices, x1_star: float,
              m_bins: int = DEFAULT_BINS) -> BinSelection:
    """Pigeonhole the index set by first-axis action modulo 2 pi.

    Keeps the larger parity class of first-coordinate orders (mixed
    cos/sin envelopes half-cancel), then bins the action values at the
    tube center into m_bins equal arcs and selects the fullest bin.
    The selected bin always holds at least 1/m_bins of the input.
    """
    if m_bins < 4:
        raise ValueError("need at least 4 phase bins")
    if x1_star <= 0.0:
        raise ValueError("tube center must be positive")
    indices = [tuple(alpha) for alpha in indices]
    if not indices:
        raise ValueError("cannot bin an empty index set")
    even = [a for a in indices if a[0] % 2 == 0]
    odd = [a for a in indices if a[0] % 2 == 1]
    kept = even if len(even) >= len(odd) else odd
    width = 2.0 * math.pi / m_bins
    bins = [[] for _ in range(m_bins)]
    for alpha in kept:
        s = first_axis_action(alpha[0], x1_star) % (2.0 * math.pi)
        bins[min(int(s / width), m_bins - 1)].append(alpha)
    selected = max(range(m_bins), key=lambda k: len(bins[k]))
    return BinSelection(bins=tuple(tuple(b) for b in bins),
                        selected_index=selected)


def _oscillatory_at(alpha1: int, x: float) -> bool:
    u = math.sqrt(2.0 * alpha1 + 1.0)
    return x < u - u ** (-1.0 / 3.0)


def tube_axes(tube: TubeSpec, n: int) -> list:
    """Tensor sample axes covering the tube: the first-axis nodes, then
    the cross nodes once per transverse coordinate (n axes in all)."""
    ax1 = np.linspace(tube.x1_star - tube.half_length,
                      tube.x1_star + tube.half_length, _AXIS_POINTS)
    cross = np.linspace(-tube.half_width, tube.half_width, _CROSS_POINTS)
    return [ax1] + [cross] * (n - 1)


def build_concentrated(n: int, level: int, j: int, delta: float,
                       m_bins: int = DEFAULT_BINS) -> ConstructionReport:
    """Construct a coherent unit-coefficient combination on a tube.

    Enumerates the even-window index set, drops indices whose
    first-axis factor is evanescent at the tube center, pigeonholes by
    action phase, and assembles the fullest bin with coefficients 1.
    """
    tube = TubeSpec.from_level(n, level, j, delta)
    candidates = index_set(n, level, delta)
    if not candidates:
        raise ValueError(
            f"empty index window at level {level}, delta {delta:.6g}"
        )
    oscillatory = [a for a in candidates if _oscillatory_at(a[0], tube.x1_star)]
    if not oscillatory:
        raise ValueError(
            "no index in the window oscillates at the tube center; "
            "the width is too close to its lower extreme"
        )
    selection = phase_bin(oscillatory, tube.x1_star, m_bins)
    chosen = selection.selected
    if not chosen:
        raise ValueError("phase binning selected an empty bin")
    e = Eigenfunction(n, level, chosen,
                      [1.0] * len(chosen))
    target = (tube.lam ** -0.5) * 2.0 ** (0.5 * j) * delta ** (-0.5 * (n - 1))
    return ConstructionReport(
        eigenfunction=e,
        tube=tube,
        bin_index=selection.selected_index,
        bin_fraction=selection.fraction,
        target_amplitude=target,
    )


def median_amplitude(report: ConstructionReport) -> float:
    """Median of |e| / ||e||_2 over a grid in the tube, to set against
    the report's target amplitude."""
    e = report.eigenfunction
    tile = e(*tube_axes(report.tube, e.dim))
    return float(np.median(np.abs(tile))) / e.global_l2_norm()


def ball_domain(e, nu: tuple, r: float, half_width: float) -> Domain:
    """The quadrature domain of :func:`ball_lp_norm` for the
    eigenfunction e: the ball B(nu, r), with a grid that resolves both the
    oscillation scale 1 / lambda and the tube's transverse width (capped
    at 1)."""
    m_req = math.ceil(8.0 * r * max(e.eigenvalue,
                                    1.0 / min(half_width, 1.0)))
    return Domain(center=nu, scale=r,
                  quad=TensorGrid(points_per_axis=m_req + 1))


def ball_lp_norm(e, nu: tuple, r: float, p: float,
                 half_width: float) -> float:
    """Local p-norm of the eigenfunction e over the ball B(nu, r), on the
    grid of :func:`ball_domain`; no error estimate is made."""
    return local_lp_norm(e, ball_domain(e, nu, r, half_width), p,
                         osc_scale=e.eigenvalue,
                         feature_scale=min(half_width, 1.0),
                         with_error=False).value
