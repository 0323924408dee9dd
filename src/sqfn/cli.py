"""Command-line entry point: config parsing, check orchestration, reports.

Configuration is a plain-text ``key = value`` file with ``[section]``
headers.  Unknown keys, and numeric keys whose value does not parse, are
rejected with the offending line number.  A stable digest of the
canonicalized config stamps every output file, so reports from different
configurations can never be merged silently.

Outputs: a JSON-lines report (one header line carrying the config hash,
the timestamp, the resolved operator.* values and the Python, numpy and
scipy versions, then one line per record), a CSV summary (tag, value,
bound, passed, config_hash, runtime_s) and gnuplot-ready two-column .dat
files for the growth fits.  runtime_s is the elapsed time of the check
that produced the record; a sup-ratio record also carries its witness,
skipped and excluded_fraction (see ``_record``).  Exit status: 0 all
passed, 1 some check failed, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import platform
import sys
import time
from collections import namedtuple

import numpy as np
import scipy

from . import constants
from .decomp import cz_decomposition, whitney
from .errors import ParameterError, SqfnError, UsageError
from .grid import Grid, GridFunction, lp_norm, require_exponent, to_csv
from .kernelbounds import constant_variation, sweep
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


# Every operator: its dims, auto operator.r, auto times.t_max (None: the
# trust budget R^2/4) and the capture of the plancherel cone family.
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
_KEYS = {
    "operator.name": ("laplacian", (" or ".join(_OPERATORS), list(_OPERATORS).index)),
    "operator.dim": ("1", _INT),
    "operator.n": ("256", _INT),
    "operator.r": ("auto", _AUTO),
    "operator.truncation": ("128", _INT),
    "family.seed": ("7", ("an int >= 0", lambda text: _count(text, 0))),
    "family.count": ("20", ("an int >= 1", _count)),
    "times.t_min": ("auto", _AUTO),
    "times.t_max": ("auto", _AUTO),
    "times.per_octave": ("8", ("an int >= 1", _count)),
    "checks.enabled": ("", None),
    "params.mu": ("3.5", ("a float", lambda text: require_exponent("mu", float(text)))),
    "params.kinds": ("s_h,s_p,S_H,S_P,g_star", (f"a comma-separated list of {', '.join(KINDS)}",
                                                 lambda text: _entries(text, list(KINDS).index))),
    "params.p_list": ("1.5,2,4", (_LIST, lambda text: _entries(
        text, lambda p: require_exponent("p", float(p))))),
    "params.growth_p_list": ("2,4,8,16,32", (_LIST, lambda text: growth_exponents(_entries(text)))),
    "params.ap_p_list": ("1,2,3", (_LIST, lambda text: _entries(
        text, lambda p: require_exponent("p", float(p), closed=True)))),
    "params.lam": ("0.25", ("a float", lambda text: sharp_lambda(float(text)))),
    "params.q": ("2", ("a float", lambda text: require_exponent("q", float(text)))),
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
            cfg[full] = _check_type(full, value, f"{path}:{lineno}: ")
    for full, value in (overrides or {}).items():
        if full not in _KEYS:
            raise UsageError(f"unknown config key {full!r}")
        cfg[full] = _check_type(full, str(value), "")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
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


def _time_grid(cfg: dict, op, role: str) -> TimeGrid:
    """Per-role defaults: identity grids reach below the spacing, cone
    grids start at it; t_max is the operator's (see _OPERATORS)."""
    h = op.grid.spacing
    t_min = cfg["times.t_min"]
    t_max = cfg["times.t_max"]
    if t_min == "auto":
        t_min = h / 8.0 if role == "identity" else h
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
    return times


# ---------------------------------------------------------------------------
# Check runners: each takes the config and its operator, returns records
# ---------------------------------------------------------------------------


def _run_spectral_identity(cfg: dict, op) -> list:
    times = _time_grid(cfg, op, "identity")
    fam = band_limited_family(op, times, int(cfg["family.seed"]), int(cfg["family.count"]))
    rep = check_spectral_identity(op, fam, times)
    lo, hi = min(rep.ratios), max(rep.ratios)
    ok = 1.0 - constants.IDENTITY_RTOL <= lo and hi <= 1.0 + constants.IDENTITY_RTOL
    return [{"tag": "spectral_identity", "value": hi, "low": lo,
             "bound": 1.0 + constants.IDENTITY_RTOL, "passed": bool(ok)}]


def _run_plancherel(cfg: dict, op) -> list:
    ident_times = _time_grid(cfg, op, "identity")
    cone_times = _time_grid(cfg, op, "cone")
    fam_cone = band_limited_family(op, cone_times, int(cfg["family.seed"]),
                                   int(cfg["family.count"]),
                                   capture=_OPERATORS[cfg["operator.name"]].capture)
    fam_fine = band_limited_family(op, ident_times, int(cfg["family.seed"]),
                                   int(cfg["family.count"]))
    s_h = square_function_operator("s_h", op, cone_times)
    rs = [lp_norm(s_h(f), 2) / lp_norm(f, 2) for f in fam_cone.members]
    kap = kappa(square_symbol("s_h"))
    rg = [kap * r for r in check_spectral_identity(op, fam_fine, ident_times).ratios]
    ok_s = max(abs(v - 0.5) for v in rs) <= 0.5 * constants.AREA_PLANCHEREL_RTOL
    ok_g = max(abs(v - kap) for v in rg) <= kap * constants.IDENTITY_RTOL
    return [
        {"tag": "plancherel_s_h", "value": max(rs), "low": min(rs),
         "bound": 0.5 * (1 + constants.AREA_PLANCHEREL_RTOL), "passed": bool(ok_s)},
        {"tag": "plancherel_g_h", "value": max(rg), "low": min(rg),
         "bound": kap * (1 + constants.IDENTITY_RTOL), "passed": bool(ok_g)},
    ]


def _run_finite_propagation(cfg: dict, op) -> list:
    g = op.grid
    n = g.points_per_axis
    if cfg["operator.name"] == "laplacian":
        vals = np.zeros(g.shape)
        vals[(n // 2,) * g.dim] = 1.0
        f = GridFunction(g, vals)
    else:
        # benchmarks/reference/hermite-suite.json pins this source's value; about
        # 2.1e-4 of its L1 mass lies outside the eigenbasis band (ROADMAP 3(c))
        x = g.axis_coords()
        f = op.project(GridFunction(g, np.exp(-(x**2) / (2 * (1.5 * g.spacing) ** 2))))
    steps = np.linspace(6, min(100, int(0.8 * n // 2)), 10).astype(int)
    worst = propagation_leak(op, f, steps, radius=0.0)
    return [{"tag": "finite_propagation", "value": worst,
             "bound": constants.SUPPORT_LEAK_TOL,
             "passed": bool(worst < constants.SUPPORT_LEAK_TOL)}]


_SWEEP_GRIDS = {
    # per-lemma tuned geometric time grids (N = 128, R = 1 torus)
    "compact_support": (0.7, 0.93, (0, 1, 2)),
    "smoothed_difference": (0.45, 0.8, (0.5, 1.0, 2.0)),
    "poisson_decay": (0.12, 0.3, (0, 1, 2)),
    "gradient_heat": (0.03, 0.078, (0, 1)),
}


def _run_kernel_bounds(cfg: dict, op) -> list:
    records = []
    for lemma, (t_lo, t_hi, variants) in _SWEEP_GRIDS.items():
        ts = np.geomspace(t_lo, t_hi, 5)
        symbol = "rho" if lemma == "smoothed_difference" else "k"
        for v in variants:
            recs = sweep(op, lemma, ts, v)
            var = constant_variation(recs)
            rec = {"tag": f"{lemma}_{symbol}{v:g}", "value": var,
                   "bound": constants.KERNEL_FIT_VARIATION,
                   "passed": bool(var < constants.KERNEL_FIT_VARIATION)}
            if lemma == "compact_support" and v == 0:
                viol = max(r["support_violation_mass"] for r in recs)
                rec["support_violation_mass"] = viol
                rec["passed"] = bool(rec["passed"] and viol < constants.SUPPORT_LEAK_TOL)
            records.append(rec)
    return records


def _run_whitney_cz(cfg: dict, op) -> list:
    g = op.grid
    rng = np.random.default_rng(int(cfg["family.seed"]))
    n = g.points_per_axis
    failures = 0
    worst_lo, worst_hi = np.inf, 0.0
    masks = int(cfg["params.masks"])
    for _ in range(masks):
        mask = np.zeros(g.shape, dtype=bool)
        for _ in range(rng.integers(1, 5)):
            a = rng.integers(0, n, size=g.dim)
            b = rng.integers(1, n // 2, size=g.dim)
            mask[tuple(slice(lo, min(lo + w, n)) for lo, w in zip(a, b))] = True
        if mask.all() or not mask.any():
            continue
        cover = whitney(g, mask)
        ratios = cover.distance_ratios()
        if not cover.covers_exactly():
            failures += 1
        if ratios.size:
            worst_lo = min(worst_lo, float(np.min(ratios)))
            worst_hi = max(worst_hi, float(np.max(ratios)))
    fam = mixed_family(g, int(cfg["family.seed"]) + 1, count=8,
                       support_fraction=0.5)
    worst_recon, worst_mean = 0.0, 0.0
    for f in fam.members:
        real = GridFunction(g, np.abs(f.values))
        lam = 2.0 * float(np.mean(np.abs(real.values))) + 1e-9
        if not (np.max(np.abs(real.values)) > lam):
            continue
        dec = cz_decomposition(real, lam)
        worst_recon = max(worst_recon, dec.reconstruction_error(real))
        if dec.bad_means().size:
            worst_mean = max(worst_mean, float(np.max(dec.bad_means())))
    passed = (failures == 0 and worst_hi <= 4.0 + 1e-12
              and worst_recon <= constants.RECONSTRUCTION_ATOL
              and worst_mean <= constants.MEAN_ZERO_ATOL)
    return [{"tag": "whitney_cz", "value": worst_recon, "ratio_low": worst_lo,
             "ratio_high": worst_hi, "bound": constants.RECONSTRUCTION_ATOL,
             "passed": bool(passed)}]


def _record(rep, **fields) -> dict:
    """The record of a RatioReport or a GrowthFit; fields override or add.

    A ratio record's bound is inf: it passes when its sup is finite.
    witness indexes the report's ratios, the one where the sup sits.
    """
    if isinstance(rep, GrowthFit):
        rec = {"tag": rep.tag, "value": rep.fitted_exponent,
               "bound": rep.exponent_bound + rep.slack, "passed": rep.passed,
               "dat": (rep.x_values, rep.y_values)}
    else:
        rec = {"tag": rep.inequality_tag, "value": rep.sup_ratio,
               "bound": float("inf"), "passed": bool(np.isfinite(rep.sup_ratio)),
               "witness": rep.witness, "skipped": rep.skipped,
               "excluded_fraction": rep.excluded_fraction}
    rec.update(fields)
    return rec


def _setup(cfg: dict, op, count: int | None = None,
           shapes: tuple = ("band", "bump", "spike", "packet")) -> tuple:
    """(cone time grid, resolved family, weight suite) of a config.

    The family has family.count members unless count says otherwise; the
    weights use the seed family.seed + 100.
    """
    seed = int(cfg["family.seed"])
    count = int(cfg["family.count"]) if count is None else count
    fam = resolved_family(op, seed, count, shapes=shapes)
    return _time_grid(cfg, op, "cone"), fam, weight_suite(op.grid, seed + 100)


def _run_weighted_l2_mw(cfg: dict, op) -> list:
    times, fam, ws = _setup(cfg, op)
    mu = float(cfg["params.mu"])
    return [_record(check_weighted_l2_mw(square_function_operator(k, op, times, mu=mu),
                                         fam, ws, tag=f"weighted_l2_mw_{k}"))
            for k in _names(cfg["params.kinds"])]


def _run_weak_lp(cfg: dict, op) -> list:
    times, fam, ws = _setup(cfg, op)
    T = square_function_operator("s_h", op, times)
    return [_record(check_weak_1_1(T, fam, ws))] + [
        _record(check_lp_range(T, fam, ws, p)) for p in _entries(cfg["params.p_list"])]


def _run_pointwise_domination(cfg: dict, op) -> list:
    times, fam, _ = _setup(cfg, op)
    gstar = square_function_operator("g_star", op, times, mu=float(cfg["params.mu"]))
    records = []
    for kind in ("s_h", "s_p", "S_H", "S_P"):
        T = square_function_operator(kind, op, times)
        rep = check_pointwise_domination(T, gstar, fam)
        ok = (np.isfinite(rep.sup_ratio)
              and rep.excluded_fraction < constants.DOMINATION_EXCLUSION_MAX)
        records.append(_record(rep, tag=f"pointwise_domination_{kind}", passed=bool(ok)))
    return records


def _run_growth_in_p(cfg: dict, op) -> list:
    times, fam, _ = _setup(cfg, op)
    T = square_function_operator("s_h", op, times)
    return [_record(check_growth_in_p(T, fam, _entries(cfg["params.growth_p_list"])))]


def _run_growth_in_ap(cfg: dict, op) -> list:
    times, fam, _ = _setup(cfg, op)
    T = square_function_operator("s_h", op, times)
    return [_record(check_growth_in_ap(T, fam, power_weight_family(op.grid, p), p))
            for p in _entries(cfg["params.ap_p_list"])]


def _run_rubio_de_francia(cfg: dict, op) -> list:
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


def _run_sharp_maximal(cfg: dict, op) -> list:
    times, fam, ws = _setup(cfg, op, min(int(cfg["family.count"]), 10),
                            ("band", "bump", "packet"))
    gstar = square_function_operator("g_star", op, times, mu=float(cfg["params.mu"]))
    lam = float(cfg["params.lam"])
    return [_record(check_sharp_maximal_domination(gstar, fam, lam)),
            _record(check_sharp_composite(fam, ws[:3], 4.0, lam))]


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
        "formula": "fitted constants of the four kernel bounds across tuned t (and r) log-grids",
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
        "tolerance": "sup ratio finite (2x resolution stability checked in the test suite)",
        "keys": "operator.*, family.*, times.*, params.kinds, params.mu",
    },
    "weak_lp": {
        "runner": _run_weak_lp,
        "formula": "lambda w{s_h f > lambda} <= C int |f| Mw; int (s_h f)^p w against the p-majorant",
        "tolerance": "sup ratios finite; p = 2 identical to the weighted L2 formula",
        "keys": "operator.*, family.*, times.*, params.p_list",
    },
    "pointwise_domination": {
        "runner": _run_pointwise_domination,
        "formula": "Tf(x) <= C g*_mu f(x) with mu from params.mu",
        "tolerance": f"excluded fraction < {constants.DOMINATION_EXCLUSION_MAX:.0%}; sup finite",
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
                      "and the series tail (an error past 1e-8) can fail"),
        "keys": "operator.*, family.seed, params.q",
    },
    "sharp_maximal": {
        "runner": _run_sharp_maximal,
        "formula": "M#_lam((g* f)^2) <= C (Mf)^2 and the composite maximal bound with gamma = max{1/2, 1/(p-1)}",
        "tolerance": "sup ratios finite (2x resolution stability in the test suite)",
        "keys": "operator.*, family.*, times.*, params.lam, params.mu",
    },
}


# ---------------------------------------------------------------------------
# Orchestration and persistence
# ---------------------------------------------------------------------------


def _output_dir(cfg: dict) -> str:
    return os.environ.get("SQFN_OUT", cfg["output.directory"])


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
    for tag in tags:
        _require_check(tag, (cfg["operator.name"], int(cfg["operator.dim"])))
    op = _build_operator(cfg)
    digest = config_hash(cfg)
    out = _output_dir(cfg)
    os.makedirs(out, exist_ok=True)
    all_records = []
    for tag in tags:
        start = time.perf_counter()
        records = _CHECKS[tag]["runner"](cfg, op)
        elapsed = time.perf_counter() - start
        all_records += [dict(rec, runtime_s=elapsed) for rec in records]
    header = {"config_hash": digest,
              "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "operator": {"name": cfg["operator.name"], "dim": op.grid.dim,
                           "n": op.grid.points_per_axis, "r": op.grid.half_width,
                           "truncation": getattr(op, "truncation", None)},
              "python": platform.python_version(), "numpy": np.__version__,
              "scipy": scipy.__version__}
    with open(os.path.join(out, "report.jsonl"), "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in all_records:
            body = {k: v for k, v in rec.items() if k != "dat"}
            body["config_hash"] = digest
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
            xs, ys = rec["dat"]
            with open(os.path.join(out, f"{rec['tag']}.dat"), "w") as fh:
                fh.write(f"# {rec['tag']} config_hash={digest}\n")
                for x, y in zip(xs, ys):
                    fh.write(f"{x:.10g} {y:.10g}\n")
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


def _dump_operator(cfg: dict, symbol: str, t: float, path: str) -> int:
    op = _build_operator(cfg)
    phi = square_symbol(symbol)
    _, entries = op.kernel_matrix(lambda s: phi(t * s))
    np.savetxt(path, np.asarray(entries, dtype=float), delimiter=",")
    print(f"wrote {entries.shape[0]}x{entries.shape[1]} kernel to {path}")
    return 0


def _dump_function(cfg: dict, index: int, path: str) -> int:
    op = _build_operator(cfg)
    fam = resolved_family(op, int(cfg["family.seed"]), int(cfg["family.count"]))
    if not (0 <= index < len(fam.members)):
        raise UsageError(f"member index must lie in [0, {len(fam.members)})")
    with open(path, "w") as fh:
        fh.write(to_csv(fam.members[index]))
    print(f"wrote family member {index} to {path}")
    return 0


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
    try:
        if args.command == "list-checks":
            for tag in sorted(_CHECKS):
                print(tag)
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
