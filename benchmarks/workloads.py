"""The benchmark's workloads: what one pass runs, and why each was chosen.

A pass runs ``sqfn.cli.main(["run", "--check", <check>, ...])`` once for
each check of the workload, in order: the path a user takes for one
verdict per check.  It is the same work as one ``run`` naming every
check (each check builds its own operator and family either way), but a
check that raises cannot hide the checks after it.  ``torus2d-weights``
then calls two API operations that no CLI check exposes in 2-D.

Workload inputs come only from the benchmark seed: ``family.seed`` is
the seed, and the CLI derives the weight seed as seed + 100; the API
operations use the same two seeds.

Sizes are smaller than the CLI defaults (N = 256, family.count = 20),
because every run must finish within the benchmark's time budget:
family.count = 8 is the smallest family ``growth_in_p`` accepts, and
N = 128 is the smallest 1-D torus on which ``plancherel`` still finds a
captured band (it raises BandError at N = 64).

``shares`` is the traced self-time split by layer at the commit that
added the benchmark, seed 7, on a 2-core x86-64 machine; later changes
cite it to say which workload exercises which layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checkout  # noqa: F401  (imports sqfn from the checkout)
from sqfn import verify, weights
from sqfn.grid import Grid

ALL_CHECKS = ("spectral_identity", "plancherel", "finite_propagation",
              "kernel_bounds", "whitney_cz", "weighted_l2_mw", "weak_lp",
              "pointwise_domination", "growth_in_p", "growth_in_ap",
              "rubio_de_francia", "sharp_maximal")

# Checks timed one by one; every other check adds to check_s.light.
NAMED_CHECKS = ("weighted_l2_mw", "pointwise_domination", "sharp_maximal",
                "sharp_composite", "kernel_bounds", "weak_lp",
                "growth_in_ap", "whitney_cz")


def _grid(cfg: dict) -> Grid:
    r = cfg["operator.r"]
    return Grid(int(cfg["operator.dim"]), int(cfg["operator.n"]),
                1.0 if r == "auto" else float(r))


def sharp_composite_op(cfg: dict, seed: int) -> list:
    """check_sharp_composite on band/bump/packet members x the first 3 weights."""
    grid = _grid(cfg)
    op = verify.default_operator("laplacian", grid)
    fam = verify.resolved_family(op, seed, int(cfg["family.count"]),
                                 shapes=("band", "bump", "packet"))
    suite = verify.weight_suite(grid, seed + 100)[:3]
    rep = verify.check_sharp_composite(fam, suite, 4.0, 0.25)
    return [{"tag": rep.inequality_tag, "value": rep.sup_ratio,
             "passed": bool(np.isfinite(rep.sup_ratio))}]


def ap_constant_op(cfg: dict, seed: int) -> list:
    """A_p constants of the 5-weight suite at p = 1, 2, 3 (each must be >= 1)."""
    records = []
    for i, w in enumerate(verify.weight_suite(_grid(cfg), seed + 100)):
        for p in (1.0, 2.0, 3.0):
            c = weights.ap_constant(w, p).constant
            records.append({"tag": f"ap_constant_w{i}_p{p:g}", "value": c,
                            "passed": bool(np.isfinite(c) and c >= 1.0 - 1e-12)})
    return records


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shares: str
    settings: dict
    checks: tuple
    api: tuple = ()  # (operation name, callable(cfg, seed) -> records)
    tiny: dict = field(default_factory=dict)  # overrides for the self-test

    def settings_for(self, tiny: bool = False) -> dict:
        return {**self.settings, **(self.tiny if tiny else {})}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="torus1d-suite",
        why=("The full check suite on the 1-D torus (FFT route). g* runs in "
             "weighted_l2_mw, pointwise_domination and sharp_maximal, so "
             "multipliers.FourierBump leads; kernel_bounds runs only here. "
             "A spectral-plan core must show here."),
        shares=("multipliers 78% (FourierBump 51%, clenshaw_curtis 26%), "
                "spectral 9%, squarefuncs 6%, weights 4%, grid 2%, others < 1%"),
        settings={"operator.n": "128", "family.count": "8"},
        checks=ALL_CHECKS,
        tiny={"times.per_octave": "4"},
    ),
    Workload(
        name="hermite-suite",
        why=("The same suite on the Hermite oscillator (eigenbasis GEMM with a "
             "tail check on every apply), without kernel_bounds, which the CLI "
             "rejects for this operator. An FFT-only gain shows no change here; "
             "a coefficient hoist shows only here."),
        shares=("multipliers 48% (FourierBump 47%), spectral 35% "
                "(coefficients 22%, apply_function 12%), squarefuncs 8%, "
                "weights 5%, grid 3%, others < 1%"),
        settings={"operator.name": "hermite", "family.count": "8"},
        checks=tuple(c for c in ALL_CHECKS if c != "kernel_bounds"),
        tiny={"operator.n": "128", "operator.r": "12",
              "operator.truncation": "32", "times.per_octave": "4"},
    ),
    Workload(
        name="torus2d-weights",
        why=("Weights and decompositions on the 2-D torus with no g*: "
             "local_sharp_maximal leads and multipliers is near zero. The "
             "bypass workload for g*/plan changes, the target of a vectorised "
             "sharp maximal, and the largest working set."),
        shares=("weights 79% (local_sharp_maximal 75%), spectral 6%, "
                "squarefuncs 5%, decomp 4%, cli 3%, grid 2%, multipliers 0.03%"),
        settings={"operator.dim": "2", "operator.n": "64", "family.count": "4",
                  "params.kinds": "s_h,S_H"},
        # plancherel raises BandError in 2-D at N = 32 and 64, and
        # finite_propagation FAILs at N = 32, so neither is in this workload.
        checks=("spectral_identity", "whitney_cz", "weighted_l2_mw", "weak_lp",
                "rubio_de_francia"),
        api=(("sharp_composite", sharp_composite_op),
             ("ap_constant", ap_constant_op)),
        tiny={"operator.n": "32"},
    ),
)}
