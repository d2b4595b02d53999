"""Experiment configuration: typed schema, defaults, all-violations validation.

A config is a single JSON document.  ``load_config`` parses and validates it
in one pass and raises ``ConfigError`` carrying every violation found, each
tagged with the dotted path of the offending entry, so a bad file is fixed in
one round trip.  The command line's ``--seed`` and ``--tolerance-scale``
replace the file's entries of those names before validation, so a bad flag
is reported as that entry, in the same list.  Validation is complete before
any computation starts: grid shapes, enum membership, cross-field
feasibility (tube windows, mu floors, radius versus eigenvalue) are all
checked here.

The normalized result is an ``ExperimentConfig`` whose ``parameters`` dict has
all defaults filled in; the runner never re-interprets raw input.
``plot_params`` checks the parameters of an emit-plot figure the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from .bounds import TubeSpec, saturate_cell, tube_delta

_MISSING = object()


class ConfigError(ValueError):
    """Invalid configuration; ``violations`` lists every problem found."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "\n".join("  " + v for v in self.violations)
        super().__init__("invalid config:\n" + lines)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    threads: int = 1  # accepted and ignored; see parse_config
    tolerance_scale: float = 1.0
    out: str | None = None

    def echo(self) -> dict:
        """JSON-ready copy of the normalized config (for run manifests)."""
        return _jsonable(asdict(self))


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


# ---------------------------------------------------------------- checkers
#
# A checker maps a raw value to (normalized, None) or (None, "problem").

def _int_in(lo=None, hi=None):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, int):
            return None, f"must be an integer (got {v!r})"
        if lo is not None and v < lo:
            return None, f"must be >= {lo} (got {v})"
        if hi is not None and v > hi:
            return None, f"must be <= {hi} (got {v})"
        return v, None
    return check


def _num_in(lo=None, hi=None, *, lo_open=False, hi_open=False):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None, f"must be a number (got {v!r})"
        x = float(v)
        if not math.isfinite(x):
            return None, f"must be finite (got {v!r})"
        if lo is not None and (x <= lo if lo_open else x < lo):
            op = ">" if lo_open else ">="
            return None, f"must be {op} {lo} (got {v})"
        if hi is not None and (x >= hi if hi_open else x > hi):
            op = "<" if hi_open else "<="
            return None, f"must be {op} {hi} (got {v})"
        return x, None
    return check


def _p_norm(allow_inf=True):
    base = _num_in(2.0)

    def check(v):
        if v == "inf" and allow_inf:
            return math.inf, None
        x, err = base(v)
        if err:
            suffix = ' or the string "inf"' if allow_inf else ""
            return None, err + suffix
        return x, None
    return check


def _bool(v):
    if isinstance(v, bool):
        return v, None
    return None, f"must be true or false (got {v!r})"


def _choice(options):
    def check(v):
        # same type too: true and 1.0 are not the option 1
        if any(type(v) is type(o) and v == o for o in options):
            return v, None
        shown = ", ".join(repr(o) for o in options)
        return None, f"must be one of {shown} (got {v!r})"
    return check


def _list_of(elem_check, min_len=1, *, increasing=False, distinct=False):
    def check(v):
        if not isinstance(v, list):
            return None, f"must be a list (got {v!r})"
        if len(v) < min_len:
            return None, f"needs at least {min_len} entries (got {len(v)})"
        out = []
        for i, item in enumerate(v):
            x, err = elem_check(item)
            if err:
                return None, f"[{i}]: {err}"
            out.append(x)
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            return None, "entries must be strictly increasing"
        # where each entry names an assertion, a repeat would reuse a name
        for i, x in enumerate(out if distinct else ()):
            if x in out[:i]:
                return None, f"[{i}]: repeats [{out.index(x)}] (got {x!r})"
        return out, None
    return check


class _Scope:
    """One mapping under validation; records violations with dotted paths."""

    def __init__(self, data: dict, path: str, violations: list):
        self.data = data
        self.path = path
        self.violations = violations
        self.seen: set = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def flag(self, key: str, problem: str) -> None:
        self.violations.append(f"{self._at(key)}: {problem}")

    def take(self, key: str, check: Callable, default=_MISSING):
        self.seen.add(key)
        if key not in self.data:
            if default is _MISSING:
                self.flag(key, "missing required entry")
                return None
            return default
        value, err = check(self.data[key])
        if err:
            self.flag(key, err)
            return None
        return value

    def reject_unknown(self) -> None:
        for key in self.data:
            if key not in self.seen:
                self.flag(key, "unknown entry")


# ------------------------------------------------- per-experiment schemas

def _params_eval(s: _Scope) -> dict:
    out = {
        "k_max_ortho": s.take("k_max_ortho", _int_in(1, 240), 200),
        "k_max_eigen": s.take("k_max_eigen", _int_in(0, 2000), 500),
        "eigen_samples": s.take("eigen_samples", _int_in(1, 64), 6),
        # node count is capped so exp(node^2) stays finite in the weights
        "quad_points": s.take("quad_points", _int_in(8, 300), 256),
        "tol_ortho": s.take("tol_ortho", _num_in(0.0, lo_open=True), 1e-8),
        "tol_eigen": s.take("tol_eigen", _num_in(0.0, lo_open=True), 1e-6),
    }
    k, q = out["k_max_ortho"], out["quad_points"]
    if k is not None and q is not None and q <= k:
        s.flag("quad_points",
               f"must exceed k_max_ortho={k} for exact pair integrals")
    return out


def _spectrum_r(n: int | None):
    base = _int_in(1)

    def check(v):
        r, err = base(v)
        if err:
            return None, err
        if n is not None and (r < n or (r - n) % 2):
            return None, f"must be 2*level + {n} for dimension {n} (got {r})"
        return r, None
    return check


def _params_kernel_compare(s: _Scope) -> dict:
    mode = s.take("mode", _choice(("cross-validate", "bound-check")),
                  "cross-validate")
    out: dict[str, Any] = {"mode": mode}
    if mode == "bound-check":
        n = s.take("n", _int_in(1, 4), 2)
        out.update({
            "n": n,
            "r_values": s.take("r_values", _list_of(_spectrum_r(n)),
                               [102, 202, 402] if n == 2 else None),
            "mu_values": s.take("mu_values",
                                _list_of(_num_in(0.0, 1.0, lo_open=True),
                                         distinct=True),
                                [0.2, 0.4]),
            "sample_count": s.take("sample_count", _int_in(4, 4096), 16),
            "ratio_limit": s.take("ratio_limit",
                                  _num_in(0.0, lo_open=True), 50.0),
            "slope_limit": s.take("slope_limit",
                                  _num_in(0.0, lo_open=True), 0.15),
        })
        if out["r_values"] is None and "r_values" not in s.data:
            s.flag("r_values", f"required when n={n}")
    else:
        box = s.take("box_half_width", _num_in(0.0, 1.0, lo_open=True), 0.9)
        sep = s.take("min_separation", _num_in(0.0, lo_open=True), 0.05)
        out.update({
            "n": s.take("n", _choice((1,)), 1),
            "r_values": s.take("r_values", _list_of(_spectrum_r(1)),
                               [21, 41, 81]),
            "pair_count": s.take("pair_count", _int_in(1, 10_000), 50),
            "min_separation": sep,
            "box_half_width": box,
            "tol_rel": s.take("tol_rel", _num_in(0.0, lo_open=True), 1e-3),
            "tol_imag": s.take("tol_imag", _num_in(0.0, lo_open=True), 1e-3),
            "quad_tol": s.take("quad_tol", _num_in(1e-12, 1e-6), 1e-9),
        })
        if box is not None and sep is not None and sep >= 2.0 * box:
            s.flag("min_separation",
                   f"cannot exceed the box diameter {2 * box}")
    return out


def _params_sphase(s: _Scope) -> dict:
    default_lams = [100.0, 215.443469003188, 464.15888336127773,
                    1000.0, 2154.434690031878, 4641.588833612772, 10000.0]
    out = {
        "lambda_values": s.take(
            "lambda_values",
            _list_of(_num_in(1.0, lo_open=True), 2, increasing=True),
            default_lams),
        "orders": s.take("orders", _list_of(_choice((1, 2)), distinct=True),
                         [1, 2]),
        "cubic_coefficient": s.take("cubic_coefficient",
                                    _num_in(-0.5, 0.5), 0.2),
        "bump_half_width": s.take("bump_half_width",
                                  _num_in(0.0, 4.0, lo_open=True), 0.8),
        "gaussian_tol": s.take("gaussian_tol",
                               _num_in(0.0, lo_open=True), 1e-10),
        "slope_margin_m1": s.take("slope_margin_m1", _num_in(0.0, 1.0), 0.2),
        "slope_margin_m2": s.take("slope_margin_m2", _num_in(0.0, 2.0), 0.3),
        "consistency_r_values": s.take(
            "consistency_r_values",
            _list_of(_spectrum_r(1), 2, increasing=True), None),
        "consistency_point": s.take(
            "consistency_point", _list_of(_num_in(-0.9, 0.9), 2), [0.31, -0.27]),
        "consistency_slope_limit": s.take(
            "consistency_slope_limit", _num_in(hi=0.0, hi_open=True), -0.4),
    }
    c, w = out["cubic_coefficient"], out["bump_half_width"]
    if c is not None and w is not None and 6.0 * abs(c) * w >= 1.0:
        s.flag("cubic_coefficient",
               "phase degenerates on the bump support; need 6*|c|*width < 1")
    pt = out["consistency_point"]
    if pt is not None and len(pt) != 2:
        s.flag("consistency_point", "must be a pair [x, y]")
    elif pt is not None and out["consistency_r_values"]:
        # mehler needs numpy: only a config with radii imports it
        from .mehler import _PANEL_CAP, consistency_top_panels
        for i, r in enumerate(out["consistency_r_values"]):
            panels = consistency_top_panels(pt[0], pt[1], r)
            if panels > _PANEL_CAP:
                s.flag(f"consistency_r_values[{i}]",
                       f"the top Mehler level needs {panels} panels at this r "
                       f"(cap {_PANEL_CAP})")
    return out


def _params_phase_identities(s: _Scope) -> dict:
    return {
        "sample_count": s.take("sample_count", _int_in(100, 1_000_000), 10_000),
        "dims": s.take("dims", _list_of(_int_in(2, 6), distinct=True), [2, 3]),
        "coordinate_bound": s.take("coordinate_bound",
                                   _num_in(0.05, 0.95), 0.7),
        "hessian_samples": s.take("hessian_samples", _int_in(4, 10_000), 40),
        "tol_factorization": s.take("tol_factorization",
                                    _num_in(0.0, lo_open=True), 1e-10),
        "tol_curvature": s.take("tol_curvature",
                                _num_in(0.0, lo_open=True), 1e-5),
        "tol_mixed_closed": s.take("tol_mixed_closed",
                                   _num_in(0.0, lo_open=True), 1e-6),
        "tol_mixed_fd": s.take("tol_mixed_fd",
                               _num_in(0.0, lo_open=True), 1e-4),
    }


def _params_bounds_table(s: _Scope) -> dict:
    out = {
        "n_values": s.take("n_values", _list_of(_int_in(1, 32)), [2]),
        "lambda_values": s.take("lambda_values",
                                _list_of(_num_in(2.0)), [1000.0]),
        "r_values": s.take("r_values",
                           _list_of(_num_in(0.0, lo_open=True)),
                           [0.01, 0.1, 1.0, 10.0]),
        "mu_values": s.take("mu_values",
                            _list_of(_num_in(0.0, 1.0, lo_open=True)),
                            [0.01, 0.1, 0.5, 1.0]),
        "p_values": s.take("p_values", _list_of(_p_norm()),
                           [2.0, 3.0, 4.0, 6.0, math.inf]),
        "include_max_table": s.take("include_max_table", _bool, True),
        "tol_identity": s.take("tol_identity",
                               _num_in(0.0, lo_open=True), 1e-12),
        "tol_slope": s.take("tol_slope", _num_in(0.0, lo_open=True), 1e-6),
    }
    for i, n in enumerate(out["n_values"] or ()):
        if out["include_max_table"] and n < 2:
            s.flag(f"n_values[{i}]", f"the max table is stated for n >= 2 "
                   f"(got {n}); set include_max_table to false")
    lams, rs, mus = out["lambda_values"], out["r_values"], out["mu_values"]
    if lams and rs:
        lam_min = min(lams)
        for i, r in enumerate(rs):
            if r > lam_min:
                s.flag(f"r_values[{i}]",
                       f"exceeds the smallest eigenvalue {lam_min}")
    if lams and mus:
        for i, mu in enumerate(mus):
            _flag_mu_floor(s, f"mu_values[{i}]", mu, min(lams))
    return out


def _flag_mu_floor(s: _Scope, key: str, mu: float, lam: float) -> None:
    floor = lam ** (-4.0 / 3.0)
    if mu < floor * (1.0 - 1e-12):
        s.flag(key, f"below the mu floor {floor:.3e} of lambda={lam}")


def _check_tube(s: _Scope, idx: int, level: int, tube: Callable) -> None:
    """Flag levels[idx] when tube(), its tube geometry, is infeasible."""
    try:
        tube()
    except ValueError as exc:
        s.flag(f"levels[{idx}]", f"{exc} at level {level}")


def _params_construct(s: _Scope) -> dict:
    out = {
        "n": s.take("n", _int_in(1, 8), 2),
        "levels": s.take("levels", _list_of(_int_in(1))),
        "j": s.take("j", _int_in(0, 40), 0),
        "m_bins": s.take("m_bins", _int_in(4, 4096), 8),
        "amp_ratio_min": s.take("amp_ratio_min",
                                _num_in(0.0, lo_open=True), 0.1),
        "amp_ratio_max": s.take("amp_ratio_max",
                                _num_in(0.0, lo_open=True), 10.0),
    }
    rule = s.take("delta", _delta_rule, {"type": "case2", "r": 1.0})
    out["delta"] = rule
    if None in (out["n"], out["levels"], out["j"]) or rule is None:
        return out
    n, j = out["n"], out["j"]
    for idx, level in enumerate(out["levels"]):
        _check_tube(s, idx, level, lambda: TubeSpec.from_level(
            n, level, j, tube_delta(rule, n, level, j)))
    lo, hi = out["amp_ratio_min"], out["amp_ratio_max"]
    if lo is not None and hi is not None and hi <= lo:
        s.flag("amp_ratio_max", "must exceed amp_ratio_min")
    return out


def _delta_rule(v):
    if not isinstance(v, dict):
        return None, 'must be {"type": "fixed", "value": d}'\
                     ' or {"type": "case2", "r": r}'
    kind = v.get("type")
    if kind not in ("fixed", "case2"):
        return None, f'rule type must be "fixed" or "case2" (got {kind!r})'
    key = "value" if kind == "fixed" else "r"
    if set(v) != {"type", key}:
        return None, f'{kind} rule takes exactly the key "{key}"'
    x, err = _num_in(0.0, lo_open=True)(v[key])
    return (None, f"{key}: {err}") if err else ({"type": kind, key: x}, None)


def _params_saturate(s: _Scope) -> dict:
    out = {
        "band_limit": s.take("band_limit", _num_in(1.0, lo_open=True), 10.0),
        "slope_limit": s.take("slope_limit",
                              _num_in(0.0, lo_open=True), 0.1),
        # recorded ceiling for measured ratio / envelope across all sampled
        # (center, radius, p); the sharp inequality direction of the envelope
        "upper_bound": s.take("upper_bound", _num_in(0.0, lo_open=True), 4.0),
        "median_factor": s.take("median_factor",
                                _num_in(1.0, lo_open=True), 10.0),
    }
    raw = s.take("cases", _list_of(lambda v: (v, None)), None)
    if raw is None:
        out["cases"] = None
        return out
    cases = []
    for i, item in enumerate(raw):
        path = f"{s.path}.cases[{i}]"
        if not isinstance(item, dict):
            s.violations.append(f"{path}: must be a mapping")
            continue
        cs = _Scope(item, path, s.violations)
        kind = cs.take("kind", _choice(("case2", "case3", "random")))
        if kind is None:
            continue
        cases.append(_saturate_case(cs, kind))
        cs.reject_unknown()
    out["cases"] = cases
    return out


def _saturate_case(cs: _Scope, kind: str) -> dict:
    case: dict[str, Any] = {
        "kind": kind,
        "levels": cs.take("levels", _list_of(_int_in(1))),
        "p": cs.take("p", _p_norm(allow_inf=False), 2.0),
    }
    if kind == "case3":
        case["n"] = cs.take("n", _choice((1,)), 1)
        case["k"] = cs.take("k", _int_in(1, 40), 1)
        needed = ("levels", "k")
    else:
        case["n"] = cs.take("n", _choice((2,)) if kind == "random"
                            else _int_in(2, 8), 2)
        case["j"] = cs.take("j", _int_in(0, 40), 0)
        case["r"] = cs.take("r", _num_in(0.0, lo_open=True), 1.0)
        if kind == "random":
            case["per_level"] = cs.take("per_level", _int_in(1, 10_000), 100)
        needed = ("levels", "n", "j", "r")
    if any(case[key] is None for key in needed):
        return case
    for idx, level in enumerate(case["levels"]):
        lam = None if kind == "case3" else math.sqrt(2 * level + case["n"])
        if lam is not None and case["r"] > lam:
            cs.flag(f"levels[{idx}]",
                    f"r={case['r']} exceeds the eigenvalue {lam:.4g}")
            continue
        _check_tube(cs, idx, level, lambda: saturate_cell(case, level))
    return case


_SCHEMAS: dict[str, Callable[[_Scope], dict]] = {
    "eval": _params_eval,
    "kernel-compare": _params_kernel_compare,
    "sphase-check": _params_sphase,
    "phase-identities": _params_phase_identities,
    "bounds-table": _params_bounds_table,
    "construct": _params_construct,
    "saturate": _params_saturate,
}

EXPERIMENTS = tuple(_SCHEMAS)


# ------------------------------------------------------ plot parameters
#
# The --param keys of each emit-plot kind.  A bound slice's lambda is at
# least 1, the smallest oscillator eigenvalue, so its r grid fits (0, lambda].

def _plot_hermite_profile(s: _Scope) -> dict:
    out = {"k": s.take("k", _int_in(0), 100),
           "x_min": s.take("x_min", _num_in(), -16.0),
           "x_max": s.take("x_max", _num_in(), 16.0),
           "points": s.take("points", _int_in(2), 1601)}
    lo, hi = out["x_min"], out["x_max"]
    if lo is not None and hi is not None and hi <= lo:
        s.flag("x_max", f"must exceed x_min={lo} (got {hi})")
    return out


def _plot_rho_sigma(s: _Scope) -> dict:
    return {"n": s.take("n", _int_in(2), 2),
            "p_max": s.take("p_max", _num_in(2.0, lo_open=True), 20.0),
            "points": s.take("points", _int_in(2), 181)}


def _plot_slice(s: _Scope) -> dict:
    return {"n": s.take("n", _int_in(1), 2),
            "lambda": s.take("lambda", _num_in(1.0), 1000.0),
            "p": s.take("p", _p_norm(), 2.0),
            "points": s.take("points", _int_in(2), 121)}


def _plot_bound_vs_r(s: _Scope) -> dict:
    out = _plot_slice(s)
    out["mu"] = s.take("mu", _num_in(0.0, 1.0, lo_open=True), None)
    out["nu_abs"] = s.take("nu_abs", _num_in(0.0, out["lambda"]), 0.0)
    if None not in (out["mu"], out["lambda"]):
        _flag_mu_floor(s, "mu", out["mu"], out["lambda"])
    return out


def _plot_bound_vs_mu(s: _Scope) -> dict:
    out = _plot_slice(s)
    out["r"] = s.take("r", _num_in(0.0, out["lambda"], lo_open=True), 1.0)
    return out


_PLOT_SCHEMAS: dict[str, Callable[[_Scope], dict]] = {
    "hermite-profile": _plot_hermite_profile,
    "rho-sigma": _plot_rho_sigma,
    "bound-vs-r": _plot_bound_vs_r,
    "bound-vs-mu": _plot_bound_vs_mu,
    "saturate-ratios": lambda s: {},
}

PLOT_KINDS = tuple(_PLOT_SCHEMAS)


# ------------------------------------------------------------- entry points

def plot_params(kind: str, params: dict) -> dict:
    """Validate the --param values of one emit-plot kind and fill in the
    defaults; a ConfigError lists every violation as ``<kind>.<key>``."""
    if kind not in _PLOT_SCHEMAS:
        raise ConfigError([f"kind: {_choice(PLOT_KINDS)(kind)[1]}"])
    violations: list[str] = []
    scope = _Scope(params, kind, violations)
    out = _PLOT_SCHEMAS[kind](scope)
    scope.reject_unknown()
    if violations:
        raise ConfigError(violations)
    return out


def parse_config(data, source: str = "config") -> ExperimentConfig:
    """Validate a raw mapping and return the normalized config.

    Collects every violation before raising, so callers see the full list.
    """
    violations: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: top level must be a mapping"])
    top = _Scope(data, "", violations)
    experiment = top.take("experiment", _choice(EXPERIMENTS))
    seed = top.take("seed", _int_in(0, 2**64 - 1), 0)
    # "threads" is accepted, validated and ignored: cells run one after
    # another in grid order.  It is kept for configs that still set it.
    threads = top.take("threads", _int_in(1, 256), 1)
    tol_scale = top.take("tolerance_scale", _num_in(0.0, lo_open=True), 1.0)
    out_dir = top.take("out", lambda v: (v, None) if isinstance(v, str)
                       else (None, f"must be a string path (got {v!r})"), None)

    raw_params = data.get("parameters", {})
    top.seen.add("parameters")
    params: dict = {}
    if not isinstance(raw_params, dict):
        violations.append("parameters: must be a mapping")
    elif experiment is not None:
        scope = _Scope(raw_params, "parameters", violations)
        params = _SCHEMAS[experiment](scope)
        scope.reject_unknown()
    top.reject_unknown()

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(experiment=experiment, parameters=params,
                            seed=seed, threads=threads,
                            tolerance_scale=tol_scale, out=out_dir)


def load_config(path, overrides=None) -> ExperimentConfig:
    """Read and validate a JSON config file.

    Each value of ``overrides`` that is not None (the CLI's ``--seed`` and
    ``--tolerance-scale``) takes the place of the file's top-level entry of
    that name before validation, so it obeys that entry's rule and its
    violations are listed with the file's.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc.strerror or exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc
    if isinstance(data, dict):
        data.update((k, v) for k, v in (overrides or {}).items()
                    if v is not None)
    return parse_config(data, source=str(path))
