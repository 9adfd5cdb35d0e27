"""Fixtures shared by the relalg engine tests."""

import pytest

from repro.relalg import columnar, compiled


@pytest.fixture
def array_builds(monkeypatch):
    """Names of the array-path build-side constructors, appended in call
    order: every sort/argsort a vectorized unit does to index a right
    side goes through one of the two."""
    calls = []
    for name in ("_npjoin_index", "_npsorted_keys"):
        original = getattr(compiled, name)

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(compiled, name, counting)
    return calls


@pytest.fixture(params=[True, False], ids=["numpy", "no-numpy"])
def numpy_mode(request, monkeypatch):
    """Runs the test once as installed and once as if numpy could not be
    imported (the row kernels everywhere): the accessor's cached answer
    is what every vectorized lowering reads."""
    if not request.param:
        monkeypatch.setattr(columnar, "_numpy", None)
    elif columnar.numpy_module() is None:
        pytest.skip("numpy is not installed")
