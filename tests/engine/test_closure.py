"""Task closures: importable functions by reference, the rest by value."""

import pickle

import pytest

from repro.engine import closure


def _triple(x):
    return 3 * x


def _stale_function():
    def bump(x):
        return x + 1

    return bump


def test_importable_function_ships_by_reference():
    payload = closure.dumps(_triple)
    assert payload == pickle.dumps(_triple, protocol=pickle.HIGHEST_PROTOCOL)
    assert closure.loads(payload) is _triple


def test_lambda_ships_by_value():
    offset = 10
    fn = closure.loads(closure.dumps(lambda x: x + offset))
    assert fn(1) == 11


@pytest.mark.parametrize("module,qualname", [
    (__name__, "_renamed_away"),  # attribute lookup fails
    (__name__, "_triple.no_such_attribute"),  # a path through a function
    ("repro_no_such_module", "bump"),  # the import fails
])
def test_function_whose_name_no_longer_resolves_ships_by_value(module, qualname):
    fn = _stale_function()
    fn.__module__ = module
    fn.__qualname__ = qualname
    payload = closure.dumps(fn)
    assert b"_make_function" in payload
    shipped = closure.loads(payload)
    assert shipped(1) == 2
    assert (shipped.__module__, shipped.__qualname__) == (module, qualname)
