"""Dilation covariance: time has the units of length.

The symbols are functions of t sqrt(L), so t is a length.  Dilating the
torus by lambda at fixed N maps h, every family member, every weight and
every time node to its dilate, and each record of a check is a ratio or an
exponent that the dilation leaves alone.  The torus's trust budget R/4 is a
length too, so a run with operator.r = lambda, everything else at its
default (the auto t_max follows R), must reproduce the R = 1 run's records
to 1e-12 relative.  Powers of 2 keep h and the time nodes exact in binary.
kernel_bounds sweeps windows in units of R; its value is the max/min ratio
of the fitted constants less 1, and that subtraction costs about two digits,
so its records are compared on 1 + value, the ratio the dilation preserves.
A check that raises must raise the same error class.
"""

import numpy as np
import pytest

from sqfn.cli import _CHECKS, _PAIRS, _Plan, parse_config
from sqfn.errors import SqfnError


def _records(dim: int, n: int, overrides: dict) -> dict:
    """{check: its records, or the class of what it raised} on the torus."""
    plan = _Plan(parse_config(None, {"operator.dim": str(dim), "operator.n": str(n)} | overrides))
    out = {}
    for tag, meta in _CHECKS.items():
        if ("laplacian", dim) not in meta.get("runs_on", _PAIRS):
            continue
        try:
            out[tag] = meta["runner"](plan)
        except SqfnError as exc:  # compared by class below
            out[tag] = type(exc)
    return out


_UNCOMPARED = ("passed",)  # compared on its own


def _numbers(check: str, rec: dict) -> dict:
    """The record's dimensionless numeric fields, with a growth fit's points
    flattened and a kernel_bounds value read as 1 + value."""
    out = {k: v for k, v in rec.items()
           if isinstance(v, (int, float)) and k not in _UNCOMPARED}
    if check == "kernel_bounds":
        out["value"] = 1.0 + out["value"]
    for axis, values in zip("xy", rec.get("dat", ())):
        out |= {f"dat_{axis}{i}": v for i, v in enumerate(values)}
    return out


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
def test_every_record_is_dilation_invariant(dim, n):
    base = _records(dim, n, {})
    for lam in (0.5, 2, 4):
        dilated = _records(dim, n, {"operator.r": str(lam)})
        assert dilated.keys() == base.keys()
        for tag, recs in base.items():
            if isinstance(recs, type):
                assert dilated[tag] is recs, (lam, tag)
                continue
            assert [r["tag"] for r in dilated[tag]] == [r["tag"] for r in recs], (lam, tag)
            for a, b in zip(recs, dilated[tag]):
                assert a["passed"] == b["passed"], (lam, a["tag"])
                x, y = _numbers(tag, a), _numbers(tag, b)
                assert x.keys() == y.keys(), (lam, a["tag"])
                for key in x:
                    np.testing.assert_allclose(y[key], x[key], rtol=1e-12, atol=0,
                                               err_msg=f"lambda={lam} {a['tag']} {key}")
