"""Command-line entry point: config parsing, check orchestration, reports.

Configuration is a plain-text ``key = value`` file with ``[section]``
headers.  Unknown keys, and numeric keys whose value does not parse, are
rejected with the offending line number.  A stable digest of the
canonicalized config, every key but output.directory and checks.enabled
(which choose where a run writes and which records, not their values),
stamps every output file, so reports from different configurations can
never be merged silently.

Outputs: a JSON-lines report (one header line carrying the config hash,
the timestamp, the resolved operator.* values, each time grid the run
built by role (t_min, t_last, count, per_octave) and the Python and numpy
versions, then one line per record), a CSV summary (tag, value,
bound, passed, config_hash, runtime_s) and gnuplot-ready two-column .dat
files for the growth fits.  The run's ``_Plan`` builds and applies every
square function; the checks read the (f, Tf) pairs it holds.  runtime_s is
the elapsed time of the check that produced the record, with whatever it
first asked the plan for.  A sup-ratio record also carries its witness,
skipped and excluded_fraction (see ``_record``).  Exit status: 0 all
passed, 1 some check failed, 2 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import functools
import hashlib
import json
import os
import platform
import sys
import time
from collections import namedtuple

import numpy as np

from . import constants
from .decomp import cz_decomposition, whitney
from .errors import NonFiniteError, ParameterError, SqfnError, UsageError
from .grid import Grid, GridFunction, lp_norm, require_exponent, to_csv
from .kernelbounds import _LEMMAS, constant_variation, sweep
from .multipliers import kappa, square_symbol
from .squarefuncs import KINDS, TimeGrid
from .verify import (GrowthFit, band_limited_family, check_growth_in_ap,
                     check_growth_in_p, check_lp_range,
                     check_pointwise_domination, check_sharp_composite,
                     check_sharp_maximal_domination, check_spectral_identity,
                     check_weak_1_1, check_weighted_l2_mw, default_operator,
                     growth_exponents, mixed_family, power_weight_family,
                     propagation_leak, resolved_family, square_function_operator,
                     weight_suite)
from .weights import empirical_maximal_norm, rubio_de_francia, sharp_lambda

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _names(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _entries(text: str, each=float) -> list:
    """The comma-separated entries of text, each parsed by each; none is an error."""
    values = [each(part) for part in _names(text)]
    if not values:
        raise ParameterError("the list is empty")
    return values


def _count(text: str, low: int = 1) -> int:
    """The int text names, if it is at least low; else a ValueError."""
    if int(text) < low:
        raise ValueError(text)
    return int(text)


def _positive(text: str) -> float:
    """The float text names, if it is finite and > 0; else a ValueError."""
    if not 0 < float(text) < np.inf:
        raise ValueError(text)
    return float(text)


def _exponent(text: str, name: str = "p", closed: bool = False) -> float:
    """The exponent text names, if the library's rule takes it and it is at most P_MAX."""
    p = require_exponent(name, float(text), closed)
    if p > constants.P_MAX:
        raise ParameterError(f"{name} must be at most {constants.P_MAX}, got {p}")
    return p


# Every operator: its dims, auto operator.r, auto times.t_max (None: the
# operator's trust budget t_max) and the capture of the plancherel cone family.
_Operator = namedtuple("_Operator", "dims r t_max capture")
_OPERATORS = {
    "laplacian": _Operator((1, 2), 1.0, None, 0.999),
    "hermite": _Operator((1,), 22.5, 4.0, 0.97),
}
_PAIRS = tuple((name, dim) for name, spec in _OPERATORS.items() for dim in spec.dims)

# Every config key: (default, type), where the type is what a numeric or
# named value must parse as; a params.* parse also applies the library's own
# range rule, whose ParameterError the usage error quotes.  None is free text.
_INT = ("an int", int)
_LIST = "a comma-separated float list"
_AUTO = ("a float or auto", lambda text: text == "auto" or float(text))
_TIME = ("auto or a finite float > 0", lambda text: text == "auto" or _positive(text))
_KEYS = {
    "operator.name": ("laplacian", (" or ".join(_OPERATORS), list(_OPERATORS).index)),
    "operator.dim": ("1", _INT),
    "operator.n": ("256", _INT),
    "operator.r": ("auto", _AUTO),
    "operator.truncation": ("128", _INT),
    "family.seed": ("7", ("an int >= 0", lambda text: _count(text, 0))),
    "family.count": ("20", ("an int >= 1", _count)),
    "times.t_min": ("auto", _TIME),
    "times.t_max": ("auto", _TIME),
    "times.per_octave": ("8", ("an int >= 1", _count)),
    "checks.enabled": ("", None),
    "params.mu": ("3.5", ("a float", lambda text: require_exponent("mu", float(text)))),
    "params.kinds": ("s_h,s_p,S_H,S_P,g_star", (f"a comma-separated list of {', '.join(KINDS)}",
                                                 lambda text: _entries(text, list(KINDS).index))),
    "params.p_list": ("1.5,2,4", (_LIST, lambda text: _entries(text, _exponent))),
    "params.growth_p_list": ("2,4,8,16,32", (_LIST, lambda text: growth_exponents(_entries(text)))),
    "params.ap_p_list": ("1,2,3", (_LIST, lambda text: _entries(
        text, lambda p: _exponent(p, closed=True)))),
    "params.lam": ("0.25", ("a float", lambda text: sharp_lambda(float(text)))),
    "params.q": ("2", ("a float", lambda text: _exponent(text, "q"))),
    "params.masks": ("50", ("an int >= 1", _count)),
    "output.directory": ("sqfn-out", None),
}


def _check_type(full: str, value: str, where: str) -> str:
    """The value, unchanged, if it parses as its key's type; else a UsageError."""
    rule = _KEYS[full][1]
    if rule is not None:
        name, parse = rule
        try:
            parse(value)
        except ValueError as exc:
            why = f": {exc}" if isinstance(exc, ParameterError) else ""
            raise UsageError(f"{where}{full} must be {name}, got {value!r}{why}") from None
    return value


def parse_config(path: str | None, overrides: dict | None = None) -> dict:
    """Read a key = value config file into a flat section.key mapping."""
    cfg = {key: default for key, (default, _) in _KEYS.items()}
    if path is not None:
        section = None
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        seen = {}
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if section is None:
                raise UsageError(f"{path}:{lineno}: key outside any [section]")
            full = f"{section}.{key}"
            if full not in _KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {full!r}")
            if full in seen:
                raise UsageError(f"{path}:{lineno}: key {full!r} repeats line {seen[full]}")
            seen[full] = lineno
            cfg[full] = _check_type(full, value, f"{path}:{lineno}: ")
    for full, value in (overrides or {}).items():
        if full not in _KEYS:
            raise UsageError(f"unknown config key {full!r}")
        cfg[full] = _check_type(full, str(value), "")
    return cfg


def config_hash(cfg: dict) -> str:
    unhashed = ("output.directory", "checks.enabled")  # they change no record's value
    canonical = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg) if k not in unhashed)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _build_operator(cfg: dict):
    """The configured operator; one the domain refuses is a UsageError."""
    name, r = cfg["operator.name"], cfg["operator.r"]
    try:
        grid = Grid(int(cfg["operator.dim"]), int(cfg["operator.n"]),
                    _OPERATORS[name].r if r == "auto" else float(r))
        return default_operator(name, grid, int(cfg["operator.truncation"]))
    except SqfnError as exc:
        keys = ", ".join(f"{k} = {cfg[k]}" for k in _KEYS if k.startswith("operator."))
        raise UsageError(f"{keys}: {exc}") from None


class _Plan:
    """A run's config, the operator it configures (built with the plan) and
    what its checks share, each made when first asked for and kept on the
    instance: times(role), the "cone" or "identity" time grid; square(kind,
    role), kind on that grid (params.mu is read only for g_star); the
    resolved family; the band-limited family the identity grid captures; the
    weights, seeded family.seed + 100; and images(kind, role), the role's
    family's images under square(kind, role) in member order."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.op = _build_operator(cfg)
        self._times = {}
        self._built = {}
        self._images = {}

    def times(self, role: str) -> TimeGrid:
        """Per-role defaults: identity grids reach below the spacing, cone
        grids start at it; t_max is the operator's (see _OPERATORS)."""
        if role in self._times:
            return self._times[role]
        cfg, op = self.cfg, self.op
        t_min, t_max = cfg["times.t_min"], cfg["times.t_max"]
        if t_min == "auto":
            t_min = op.grid.spacing / 8.0 if role == "identity" else op.grid.spacing
        if t_max == "auto":
            t_max = _OPERATORS[cfg["operator.name"]].t_max or op.t_max
        t_min, t_max = float(t_min), float(t_max)
        if not (0 < t_min < t_max):
            raise ParameterError(
                f"the {role} time grid needs 0 < t_min < t_max, got t_min = {t_min:g} "
                f"and t_max = {t_max:g}; set times.t_min and times.t_max, or raise "
                f"operator.n (auto t_min follows the spacing 2R/operator.n)")
        times = TimeGrid.geometric(t_min, t_max, int(cfg["times.per_octave"]))
        if op.trusts(t_max) and not op.trusts(float(times.nodes[-1])):
            # the node count rounds up past a t_max within the budget: drop that node
            times = TimeGrid(times.t_min, times.ratio, times.count - 1)
        self._times[role] = times
        return times

    def time_grids(self) -> dict:
        """Each time grid built so far, by role: its first and last node,
        node count and nodes per octave."""
        return {role: {"t_min": times.t_min, "t_last": float(times.nodes[-1]),
                       "count": times.count, "per_octave": int(self.cfg["times.per_octave"])}
                for role, times in self._times.items()}

    def square(self, kind: str, role: str = "cone"):
        if (kind, role) not in self._built:
            kwargs = {"mu": float(self.cfg["params.mu"])} if kind == "g_star" else {}
            self._built[kind, role] = square_function_operator(
                kind, self.op, self.times(role), **kwargs)
        return self._built[kind, role]

    @functools.cached_property
    def family(self):
        return resolved_family(self.op, int(self.cfg["family.seed"]), int(self.cfg["family.count"]))

    @functools.cached_property
    def weights(self) -> list:
        return weight_suite(self.op.grid, int(self.cfg["family.seed"]) + 100)

    @functools.cached_property
    def identity_family(self):
        return band_limited_family(self.op, self.times("identity"),
                                   int(self.cfg["family.seed"]), int(self.cfg["family.count"]))

    def images(self, kind: str, role: str = "cone") -> list:
        if (kind, role) not in self._images:
            family = self.family if role == "cone" else self.identity_family
            self._images[kind, role] = [self.square(kind, role)(f) for f in family.members]
        return self._images[kind, role]


# ---------------------------------------------------------------------------
# Check runners: each takes the run's plan, returns records
# ---------------------------------------------------------------------------


def _identity_ratios(plan: _Plan) -> tuple:
    """check_spectral_identity's ratios on the band-limited family that the
    identity time grid captures, under the plan's g_h on that grid."""
    return check_spectral_identity(plan.images("g_h", "identity"), plan.identity_family).ratios


def _within(tag: str, values, target: float, rtol: float) -> dict:
    """The record of values meant to lie within rtol of target: value = max,
    low = min, bound = target (1 + rtol); passed: target (1 - rtol) <= low, value <= bound."""
    hi, lo = max(values), min(values)
    return {"tag": tag, "value": hi, "low": lo, "bound": target * (1 + rtol),
            "passed": bool(target * (1 - rtol) <= lo and hi <= target * (1 + rtol))}


def _run_spectral_identity(plan: _Plan) -> list:
    return [_within("spectral_identity", _identity_ratios(plan), 1.0, constants.IDENTITY_RTOL)]


def _run_plancherel(plan: _Plan) -> list:
    cfg, op = plan.cfg, plan.op
    fam_cone = band_limited_family(op, plan.times("cone"), int(cfg["family.seed"]),
                                   int(cfg["family.count"]),
                                   capture=_OPERATORS[cfg["operator.name"]].capture)
    rs = [lp_norm(plan.square("s_h")(f), 2) / lp_norm(f, 2) for f in fam_cone.members]
    kap = kappa(square_symbol("s_h"))
    rg = [kap * r for r in _identity_ratios(plan)]
    return [_within("plancherel_s_h", rs, 0.5, constants.AREA_PLANCHEREL_RTOL),
            _within("plancherel_g_h", rg, kap, constants.IDENTITY_RTOL)]


def _run_finite_propagation(plan: _Plan) -> list:
    g = plan.op.grid
    n = g.points_per_axis
    if plan.cfg["operator.name"] == "laplacian":
        vals = np.zeros(g.shape)
        vals[(n // 2,) * g.dim] = 1.0
        f = GridFunction(g, vals)
    else:
        # benchmarks/reference/hermite-suite.json pins this source's value; about
        # 2.1e-4 of its L1 mass lies outside the eigenbasis band (ROADMAP 3(b))
        x = g.axis_coords()
        f = plan.op.project(GridFunction(g, np.exp(-(x**2) / (2 * (1.5 * g.spacing) ** 2))))
    steps = np.linspace(6, min(100, int(0.8 * n // 2)), 10).astype(int)
    worst = propagation_leak(plan.op, f, steps, radius=0.0)
    return [{"tag": "finite_propagation", "value": worst,
             "bound": constants.SUPPORT_LEAK_TOL,
             "passed": bool(worst < constants.SUPPORT_LEAK_TOL)}]


def _run_kernel_bounds(plan: _Plan) -> list:
    records = []
    for lemma in _LEMMAS:
        for tag, fits in sweep(plan.op, lemma).items():
            var = constant_variation(fits)
            rec = {"tag": tag, "value": var, "bound": constants.KERNEL_FIT_VARIATION,
                   "passed": bool(var < constants.KERNEL_FIT_VARIATION)}
            if tag == "compact_support_k0":
                viol = max(f["support_violation_mass"] for f in fits)
                rec["support_violation_mass"] = viol
                rec["passed"] = bool(rec["passed"] and viol < constants.SUPPORT_LEAK_TOL)
            records.append(rec)
    return records


def _run_whitney_cz(plan: _Plan) -> list:
    cfg, g = plan.cfg, plan.op.grid
    rng = np.random.default_rng(int(cfg["family.seed"]))
    n = g.points_per_axis
    masks = []
    for _ in range(int(cfg["params.masks"])):
        mask = np.zeros(g.shape, dtype=bool)
        for _ in range(rng.integers(1, 5)):
            a = rng.integers(0, n, size=g.dim)
            b = rng.integers(1, n // 2, size=g.dim)
            mask[tuple(slice(lo, min(lo + w, n)) for lo, w in zip(a, b))] = True
        if not mask.all():
            masks.append(mask)
    cover = whitney(g, np.array(masks, dtype=bool).reshape((-1,) + g.shape))
    ratios = cover.distance_ratios()
    exact = cover.covers_exactly()
    worst_lo, worst_hi = float(np.min(ratios, initial=np.inf)), float(np.max(ratios, initial=0.0))
    fam = mixed_family(g, int(cfg["family.seed"]) + 1, count=8, support_fraction=0.5)
    worst_recon, worst_mean, worst_good = 0.0, 0.0, 0.0
    for f in fam.members:
        real = GridFunction(g, np.abs(f.values))
        lam = 2.0 * float(np.mean(np.abs(real.values))) + 1e-9
        if not (np.max(np.abs(real.values)) > lam):
            continue
        dec = cz_decomposition(real, lam)
        worst_recon = max(worst_recon, dec.reconstruction_error(real))
        worst_mean = max(worst_mean, float(np.max(dec.bad_means(), initial=0.0)))
        worst_good = max(worst_good, dec.good_bound_constant())
    passed = (exact and worst_hi <= 4.0 + 1e-12
              and worst_recon <= constants.RECONSTRUCTION_ATOL
              and worst_mean <= constants.MEAN_ZERO_ATOL)
    return [{"tag": "whitney_cz", "value": worst_recon, "ratio_low": worst_lo,
             "ratio_high": worst_hi, "good_bound": worst_good,
             "bound": constants.RECONSTRUCTION_ATOL, "passed": bool(passed)}]


def _record(rep, **fields) -> dict:
    """The record of a RatioReport or a GrowthFit; fields override or add.

    A ratio record's bound is inf: it passes when its sup is finite and
    its excluded_fraction is below DOMINATION_EXCLUSION_MAX.
    witness indexes the report's ratios, the one where the sup sits.
    """
    if isinstance(rep, GrowthFit):
        rec = {"tag": rep.tag, "value": rep.fitted_exponent,
               "bound": rep.exponent_bound + rep.slack, "passed": rep.passed,
               "dat": (rep.x_values, rep.y_values)}
    else:
        rec = {"tag": rep.inequality_tag, "value": rep.sup_ratio, "bound": float("inf"),
               "passed": bool(np.isfinite(rep.sup_ratio)
                              and rep.excluded_fraction < constants.DOMINATION_EXCLUSION_MAX),
               "witness": rep.witness, "skipped": rep.skipped,
               "excluded_fraction": rep.excluded_fraction}
    rec.update(fields)
    return rec


def _run_weighted_l2_mw(plan: _Plan) -> list:
    return [_record(check_weighted_l2_mw(plan.images(k), plan.family, plan.weights,
                                         tag=f"weighted_l2_mw_{k}"))
            for k in _names(plan.cfg["params.kinds"])]


def _run_weak_lp(plan: _Plan) -> list:
    images = plan.images("s_h")
    return [_record(check_weak_1_1(images, plan.family, plan.weights))] + [
        _record(check_lp_range(images, plan.family, plan.weights, p))
        for p in _entries(plan.cfg["params.p_list"])]


def _run_pointwise_domination(plan: _Plan) -> list:
    return [_record(check_pointwise_domination(plan.images(kind), plan.images("g_star"),
                                               plan.family), tag=f"pointwise_domination_{kind}")
            for kind in ("s_h", "s_p", "S_H", "S_P")]


def _run_growth_in_p(plan: _Plan) -> list:
    p_list = _entries(plan.cfg["params.growth_p_list"])
    return [_record(check_growth_in_p(plan.images("s_h"), plan.family, p_list))]


def _run_growth_in_ap(plan: _Plan) -> list:
    return [_record(check_growth_in_ap(plan.images("s_h"), plan.family,
                                       power_weight_family(plan.op.grid, p), p))
            for p in _entries(plan.cfg["params.ap_p_list"])]


def _run_rubio_de_francia(plan: _Plan) -> list:
    cfg, op = plan.cfg, plan.op
    q = float(cfg["params.q"])
    base_seed = int(cfg["family.seed"])
    mnorm = empirical_maximal_norm(op.grid, q)
    phis = [GridFunction(op.grid, np.abs(np.random.default_rng(s).standard_normal(op.grid.shape)))
            for s in range(base_seed, base_seed + 10)]
    certs = rubio_de_francia(phis, q, maximal_norm=mnorm)
    majorizes = all(bool(np.all(c.weight.values >= np.abs(phi.values) - 1e-12))
                    for c, phi in zip(certs, phis))
    passed = majorizes and all(c.norm_ratio <= 2.0 and c.a1_ratio <= 2.0 * c.maximal_norm
                               for c in certs)
    return [{"tag": "rubio_de_francia", "value": max(c.norm_ratio for c in certs),
             "bound": 2.0, "passed": bool(passed),
             "a1_ratio": max(c.a1_ratio for c in certs), "a1_bound": 2.0 * mnorm,
             "tail": max(c.tail for c in certs), "maximal_norm": mnorm,
             "majorizes": majorizes}]


def _run_sharp_maximal(plan: _Plan) -> list:
    fam = resolved_family(plan.op, int(plan.cfg["family.seed"]),
                          min(int(plan.cfg["family.count"]), 10), shapes=("band", "bump", "packet"))
    lam = float(plan.cfg["params.lam"])
    gstar = plan.square("g_star")
    return [_record(check_sharp_maximal_domination([gstar(f) for f in fam.members], fam, lam)),
            _record(check_sharp_composite(fam, plan.weights[:3], 4.0, lam))]


# The N -> 2N gate the acceptance suite puts on the checks whose bound is inf.
_DOUBLING_GATE = (f"N -> 2N change < {constants.STABILITY_FACTOR:g}x, "
                  "gated by verify.doubling in the test suite")

# Every check; runs_on lists its (operator.name, operator.dim) pairs if not _PAIRS.
_CHECKS = {
    "spectral_identity": {
        "runner": _run_spectral_identity,
        "formula": "(sum_j ||psi(t_j sqrt(L)) f||_2^2 dt/t)^(1/2) = kappa ||f||_2, psi(z) = z^2 exp(-z^2)",
        "tolerance": f"every ratio within {constants.IDENTITY_RTOL:.0%} of 1",
        "keys": "operator.*, family.*, times.*",
    },
    "plancherel": {
        "runner": _run_plancherel,
        "formula": "||s_h f||_2/||f||_2 = 1/2; ||g_h f||_2/||f||_2 = kappa",
        "tolerance": f"{constants.AREA_PLANCHEREL_RTOL:.0%} for the cone, {constants.IDENTITY_RTOL:.0%} for g_h",
        "keys": "operator.*, family.*, times.*",
    },
    "finite_propagation": {
        "runner": _run_finite_propagation,
        "formula": "mass of cos(t sqrt(L)) delta-bump outside radius t + 4h",
        "tolerance": f"< {constants.SUPPORT_LEAK_TOL:g} of total mass, 10-point grid-aligned time grid",
        "keys": "operator.*",
    },
    "kernel_bounds": {
        "runner": _run_kernel_bounds,
        "formula": "fitted constants of the four kernel bounds across t (and r) log-grids in units of R",
        "tolerance": f"variation < {constants.KERNEL_FIT_VARIATION:.0%}; support mass < {constants.SUPPORT_LEAK_TOL:g}",
        "keys": "operator.*",
        "runs_on": (("laplacian", 1),),
    },
    "whitney_cz": {
        "runner": _run_whitney_cz,
        "formula": "Whitney covers with diam <= dist <= 4 diam; f = h + sum b_j, int b_j = 0",
        "tolerance": f"exact covers; reconstruction <= {constants.RECONSTRUCTION_ATOL:g}",
        "keys": "operator.*, family.seed, params.masks",
    },
    "weighted_l2_mw": {
        "runner": _run_weighted_l2_mw,
        "formula": "int (Tf)^2 w <= C int |f|^2 Mw, T in the configured kinds",
        "tolerance": f"sup ratio finite; {_DOUBLING_GATE}",
        "keys": "operator.*, family.*, times.*, params.kinds, params.mu",
    },
    "weak_lp": {
        "runner": _run_weak_lp,
        "formula": "lambda w{s_h f > lambda} <= C int |f| Mw; int (s_h f)^p w against the p-majorant",
        "tolerance": f"sup ratios finite; {_DOUBLING_GATE}; p = 2 identical to the weighted L2 formula",
        "keys": "operator.*, family.*, times.*, params.p_list",
    },
    "pointwise_domination": {
        "runner": _run_pointwise_domination,
        "formula": "Tf(x) <= C g*_mu f(x) with mu from params.mu",
        "tolerance": f"excluded fraction < {constants.DOMINATION_EXCLUSION_MAX:.0%}; sup finite; {_DOUBLING_GATE}",
        "keys": "operator.*, family.*, times.*, params.mu",
    },
    "growth_in_p": {
        "runner": _run_growth_in_p,
        "formula": "log-log slope of empirical ||s_h||_p over params.growth_p_list",
        "tolerance": f"slope <= 0.5 + {constants.P_GROWTH_SLACK}",
        "keys": "operator.*, family.*, times.*, params.growth_p_list",
    },
    "growth_in_ap": {
        "runner": _run_growth_in_ap,
        "formula": "weighted norms against the A_p constant; exponent beta_p + 1/(p-1), A_1 endpoint 1/2",
        "tolerance": f"slope <= bound + {constants.AP_GROWTH_SLACK}",
        "keys": "operator.*, family.*, times.*, params.ap_p_list",
        "runs_on": tuple(pair for pair in _PAIRS if pair[1] == 1),
    },
    "rubio_de_francia": {
        "runner": _run_rubio_de_francia,
        "formula": "majorant v = sum_k M^k phi / (2||M||)^k: phi <= v, ||v||_q <= 2||phi||_q, Mv <= 2||M|| v",
        "tolerance": ("all three facts on 10 seeds; phi <= v and, by M's sublinearity, "
                      "Mv <= 2||M|| v hold for any ||M|| > 0, so only ||v||_q <= 2||phi||_q "
                      "and the series tail, relative to ||v||_q (an error past 1e-8), can fail"),
        "keys": "operator.*, family.seed, params.q",
    },
    "sharp_maximal": {
        "runner": _run_sharp_maximal,
        "formula": "M#_lam((g* f)^2) <= C (Mf)^2 and the composite maximal bound with gamma = max{1/2, 1/(p-1)}",
        "tolerance": f"excluded fraction < {constants.DOMINATION_EXCLUSION_MAX:.0%}; sup ratios finite; {_DOUBLING_GATE}",
        "keys": "operator.*, family.*, times.*, params.lam, params.mu",
    },
}


# ---------------------------------------------------------------------------
# Orchestration and persistence
# ---------------------------------------------------------------------------


def _require_check(tag: str, pair: tuple | None = None) -> str:
    """Where a known check runs, as text; a UsageError for an unknown check,
    or for an (operator.name, operator.dim) pair where it does not run."""
    if tag not in _CHECKS:
        raise UsageError(f"unknown check {tag!r}; available: {', '.join(sorted(_CHECKS))}")
    pairs = _CHECKS[tag].get("runs_on", _PAIRS)
    runs_on = ", ".join(f"{name} {dim}-D" for name, dim in pairs)
    if pair is not None and pair not in pairs:
        raise UsageError(f"check {tag} does not run on operator.name = {pair[0]}, "
                         f"operator.dim = {pair[1]}; it runs on {runs_on}")
    return runs_on


def run(cfg: dict) -> int:
    tags = _names(cfg["checks.enabled"])
    if not tags:
        raise UsageError("no check to run: name one with --check, or list "
                         "them in checks.enabled")
    for i, tag in enumerate(tags):
        _require_check(tag, (cfg["operator.name"], int(cfg["operator.dim"])))
        if tag in tags[:i]:
            raise UsageError(f"check {tag} is named more than once; name each check once")
    plan = _Plan(cfg)
    digest = config_hash(cfg)
    out = cfg["output.directory"]
    with _writing(out):
        os.makedirs(out, exist_ok=True)
    all_records = []
    for tag in tags:
        start = time.perf_counter()
        records = _CHECKS[tag]["runner"](plan)
        elapsed = time.perf_counter() - start
        all_records += [dict(rec, runtime_s=elapsed) for rec in records]
    header = {"config_hash": digest,
              "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "operator": {"name": cfg["operator.name"], "dim": plan.op.grid.dim,
                           "n": plan.op.grid.points_per_axis, "r": plan.op.grid.half_width,
                           "truncation": getattr(plan.op, "truncation", None)},
              "time_grids": plan.time_grids(),
              "python": platform.python_version(), "numpy": np.__version__}
    with open(os.path.join(out, "report.jsonl"), "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in all_records:
            body = {k: v for k, v in rec.items() if k != "dat"} | {"config_hash": digest}
            fh.write(json.dumps(body, sort_keys=True) + "\n")
    with open(os.path.join(out, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tag", "value", "bound", "passed", "config_hash", "runtime_s"])
        for rec in all_records:
            writer.writerow([rec["tag"], f"{rec['value']:.6g}",
                             f"{rec['bound']:.6g}", rec["passed"], digest,
                             f"{rec['runtime_s']:.3f}"])
    for rec in all_records:
        if "dat" in rec:
            with open(os.path.join(out, f"{rec['tag']}.dat"), "w") as fh:
                fh.write(f"# {rec['tag']} config_hash={digest}\n")
                fh.writelines(f"{x:.10g} {y:.10g}\n" for x, y in zip(*rec["dat"]))
    failed = [rec["tag"] for rec in all_records if not rec["passed"]]
    for rec in all_records:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"{status} {rec['tag']}: value={rec['value']:.6g} bound={rec['bound']:.6g}")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def describe(tag: str) -> int:
    runs_on = _require_check(tag)
    meta = _CHECKS[tag]
    print(f"check: {tag}")
    print(f"formula: {meta['formula']}")
    print(f"tolerance: {meta['tolerance']}")
    print(f"config keys: {meta['keys']}")
    print(f"runs on: {runs_on}")
    return 0


@contextlib.contextmanager
def _writing(path: str):
    """A block that writes path; an OSError in it is a UsageError naming path."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _dump_operator(cfg: dict, symbol: str, t: float, path: str) -> int:
    if not 0 < t < np.inf:
        raise UsageError(f"--t must be a finite float > 0, got {t:g}")
    try:
        phi = square_symbol(symbol)
    except ParameterError as exc:
        raise UsageError(f"--symbol: {exc}") from None
    try:
        _, entries = _Plan(cfg).op.kernel_matrix(lambda s: phi(t * s))
    except NonFiniteError as exc:
        raise UsageError(f"--t {t:g}: {exc}") from None
    with _writing(path), open(path, "w") as fh:
        np.savetxt(fh, np.asarray(entries, dtype=float), delimiter=",")
    print(f"wrote {entries.shape[0]}x{entries.shape[1]} kernel to {path}")
    return 0


def _dump_function(cfg: dict, index: int, path: str) -> int:
    fam = _Plan(cfg).family
    if not (0 <= index < len(fam.members)):
        raise UsageError(f"member index must lie in [0, {len(fam.members)})")
    with _writing(path), open(path, "w") as fh:
        fh.write(to_csv(fam.members[index]))
    print(f"wrote family member {index} to {path}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """sqfn's argument parser, built once per process: parse_args leaves it
    unchanged (an append action copies its default list before appending)."""
    parser = argparse.ArgumentParser(
        prog="sqfn",
        description="square-function laboratory: empirical inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file with [section] headers")
    common.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a single config key")

    p_run = sub.add_parser("run", parents=[common], help="run the enabled checks")
    p_run.add_argument("--check", action="append", default=[],
                       help="enable a check (repeatable; overrides checks.enabled)")
    p_desc = sub.add_parser("describe", help="show a check's formula and tolerances")
    p_desc.add_argument("tag")
    sub.add_parser("list-checks", help="list available check tags")
    p_dop = sub.add_parser("dump-operator", parents=[common],
                           help="write a kernel matrix as CSV")
    p_dop.add_argument("--symbol", default="s_h")
    p_dop.add_argument("--t", type=float, default=0.1)
    p_dop.add_argument("--out", default="kernel.csv")
    p_dfn = sub.add_parser("dump-function", parents=[common],
                           help="write a test-family member as CSV")
    p_dfn.add_argument("--index", type=int, default=0)
    p_dfn.add_argument("--out", default="function.csv")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list-checks":
            print("\n".join(sorted(_CHECKS)))
            return 0
        if args.command == "describe":
            return describe(args.tag)
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise UsageError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        if args.command == "run" and args.check:
            overrides["checks.enabled"] = ",".join(args.check)
        cfg = parse_config(args.config, overrides)
        if args.command == "run":
            return run(cfg)
        if args.command == "dump-operator":
            return _dump_operator(cfg, args.symbol, args.t, args.out)
        if args.command == "dump-function":
            return _dump_function(cfg, args.index, args.out)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SqfnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
