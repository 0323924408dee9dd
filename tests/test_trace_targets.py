"""The benchmark tracer's targets still exist, without installing it.

``benchmarks/tracer.py`` wraps sqfn functions by name and binds some of
their arguments to count work.  A rename or signature change in src/
would break ``benchmarks/run.py --trace 1``; this catches it at once.
"""

import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer as module
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_every_target_resolves(tracer):
    for target in tracer._targets():
        if isinstance(target.owner, type):
            # patched on the class itself, so it must be defined there
            assert target.attr in target.owner.__dict__, target
        else:
            assert callable(getattr(target.owner, target.attr)), target


# The arguments each _COUNTING entry reads from the bound call.
COUNTED_ARGS = {
    ("multipliers.FourierBump", "__call__"): {"s"},
    ("squarefuncs.area_integral", "area_integral"): {"cone"},
    ("squarefuncs.g_function", "g_function"): {"times"},
    ("squarefuncs.g_star", "g_star"): {"times"},
}


def test_counted_arguments_are_in_the_signatures(tracer):
    assert set(tracer._COUNTING) == set(COUNTED_ARGS)
    owners = {(t.metric, t.attr): t.owner for t in tracer._targets()}
    for key, names in COUNTED_ARGS.items():
        params = inspect.signature(getattr(owners[key], key[1])).parameters
        assert names <= set(params), (key, list(params))


def test_cli_calls_the_factory_the_tracer_wraps():
    """The tracer counts verify.sq_evals by replacing the one object bound
    as verify.square_function_operator; the CLI must call that object."""
    from sqfn import cli, squarefuncs, verify

    assert verify.square_function_operator is squarefuncs.square_function_operator
    assert cli.square_function_operator is verify.square_function_operator
