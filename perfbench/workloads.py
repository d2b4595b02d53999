"""The runner configs each benchmark workload sends to hermlp.

The benchmark seed selects one of ``VARIANTS`` input variants, and the
variant alone decides the configs, so every seed maps onto a variant whose
reference artifacts are recorded in ``reference/``.  Variants change the
numbers a workload computes (random draws, point pairs, levels shifted by a
few units) but keep its amount of work, so timings from different seeds
measure the same workload.

``size="tiny"`` shrinks every workload to a fraction of a second; only the
self-check uses it.
"""

from __future__ import annotations

VARIANTS = 8

WORKLOADS = ("sweep-random", "sweep-tube", "checks")


def variant(seed: int) -> int:
    return seed % VARIANTS


def configs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """Config dicts for one workload, in the order they run."""
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    build = {"sweep-random": _sweep_random, "sweep-tube": _sweep_tube,
             "checks": _checks}[workload]
    return build(variant(seed), size == "tiny")


def _saturate(seed: int, *cases) -> dict:
    return {"experiment": "saturate", "seed": seed,
            "parameters": {"cases": list(cases)}}


def _sweep_random(v: int, tiny: bool) -> list[dict]:
    # Every draw at a level reuses the (level, grid) pair of the first, so
    # 1 - 1/per_level of the Hermite calls repeat an earlier one.
    levels = [50, 100] if tiny else [200, 400, 800, 1600, 3200]
    per_level = 2 if tiny else 10
    return [_saturate(v, {"kind": "random", "n": 2, "j": 0, "r": 1.0,
                          "p": 2.0, "per_level": per_level,
                          "levels": levels})]


def _sweep_tube(v: int, tiny: bool) -> list[dict]:
    # Levels shift by 2v: a different measurement per variant, the same
    # grid sizes to within a percent.  The n=3 levels stay fixed because a
    # shift there would change the 3-D work by tens of percent; each is its
    # own one-level case, since no trend across low n=3 levels is claimed.
    n2 = [400] if tiny else [200, 400, 800, 1600, 3200, 6400, 12800, 25600]
    n1 = [200, 400] if tiny else [200, 400, 800, 1600, 3200]
    n3 = [6] if tiny else [16, 48]
    return [
        _saturate(v, {"kind": "case2", "n": 2, "j": 0, "r": 1.0, "p": 2.0,
                      "levels": [lv + 2 * v for lv in n2]}),
        _saturate(v, {"kind": "case3", "n": 1, "k": 1, "p": 2.0,
                      "levels": [lv + 2 * v for lv in n1]}),
        _saturate(v, *({"kind": "case2", "n": 3, "j": 0, "r": 1.0, "p": 2.0,
                        "levels": [lv]} for lv in n3)),
    ]


def _checks(v: int, tiny: bool) -> list[dict]:
    # phase-identities runs the shipped config at its own seed 0 for every
    # variant: at other seeds its finite-difference Hessian check fails or
    # raises (see README.md), and a workload must not fail at the seed code.
    cross = {"mode": "cross-validate",
             "r_values": [21] if tiny else [21, 41, 81, 161],
             "pair_count": 4 if tiny else 80}
    bound = {"mode": "bound-check", "n": 3,
             "r_values": [43] if tiny else [43, 83, 163, 323],
             "mu_values": [0.2, 0.4], "sample_count": 4 if tiny else 16}
    sphase = ({"lambda_values": [100.0, 215.443469003188],
               "consistency_r_values": [101, 201]} if tiny else
              {"consistency_r_values": [101, 201, 401, 801, 1601]})
    phase = ({"sample_count": 400, "hessian_samples": 4} if tiny else
             {"sample_count": 10000, "hessian_samples": 40})
    evals = ({"k_max_ortho": 20, "k_max_eigen": 20, "quad_points": 64}
             if tiny else {"k_max_ortho": 200, "k_max_eigen": 500})
    bounds_table = {"n_values": [2, 3],
                    "lambda_values": [300.0, 1000.0, 3000.0]}
    return [
        {"experiment": "kernel-compare", "seed": v, "parameters": cross},
        {"experiment": "kernel-compare", "seed": v, "parameters": bound},
        {"experiment": "sphase-check", "seed": 0, "parameters": sphase},
        {"experiment": "phase-identities", "seed": 0, "parameters": phase},
        {"experiment": "eval", "seed": 0, "parameters": evals},
        {"experiment": "bounds-table", "seed": 0,
         "parameters": bounds_table},
    ]
