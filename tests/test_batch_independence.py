"""A point's log-polar value, and its plain value and flag, must not depend on the batch around it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from merolab import parse  # noqa: E402
from merolab.expr import evaluate_many, log_polar  # noqa: E402

_COORD = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False, allow_infinity=False)
_POINT = st.builds(complex, _COORD, _COORD)


@pytest.mark.parametrize(
    "source",
    ["canprod(2)", "canprod(3)", "canprod(4)", "canprod(5)", "lacunary(2)",
     "exp(z)+canprod(2)", "tan(z)"],
)
@settings(derandomize=True, database=None, deadline=None)
@given(point=_POINT, others=st.lists(_POINT, max_size=40), where=st.integers(0, 40))
def test_log_polar_is_batch_independent(source, point, others, where):
    f = parse(source)
    where = min(where, len(others))
    batch = np.array(others[:where] + [point] + others[where:], dtype=np.complex128)
    alone = log_polar(f, np.array([point]))
    inside = log_polar(f, batch)
    for a, b in zip(alone, inside):
        assert a.tobytes() == b[where : where + 1].tobytes()


@pytest.mark.parametrize("source", ["canprod(2)", "canprod(3)", "canprod(4)", "canprod(6)", "lacunary(2)"])
def test_log_polar_large_batch_matches_small_batches(source):
    # numpy reuses temporaries of 256 KiB and more in place, which only a
    # batch of thousands of points reaches
    f = parse(source)
    rng = np.random.default_rng(7)
    radii = 10.0 ** rng.uniform(-3.0, 12.0, 9000)
    batch = radii * np.exp(2j * np.pi * rng.uniform(size=9000))
    whole = log_polar(f, batch)
    pieces = [log_polar(f, batch[i : i + 37]) for i in range(0, batch.size, 37)]
    for k, got in enumerate(whole):
        assert got.tobytes() == np.concatenate([piece[k] for piece in pieces]).tobytes()


def _same_values(a, b):
    # bit for bit, except that NaNs (pole markers) may differ in sign and payload
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


_PLAIN_SOURCES = ["z*exp(z)", "exp(z)*z", "tan(z)", "1/(exp(z)-2)", "z^-2 + tan(1)*z",
                  "(z^2 + 1)/(2*z)", "canprod(2)", "lacunary(2)"]


@pytest.mark.parametrize("source", _PLAIN_SOURCES)
@settings(derandomize=True, database=None, deadline=None)
@given(point=_POINT, others=st.lists(_POINT, max_size=40), where=st.integers(0, 40))
def test_evaluate_many_is_batch_independent(source, point, others, where):
    f = parse(source)
    where = min(where, len(others))
    batch = np.array(others[:where] + [point] + others[where:], dtype=np.complex128)
    alone_vals, alone_flags = evaluate_many(f, np.array([point]))
    vals, flags = evaluate_many(f, batch)
    assert _same_values(alone_vals, vals[where : where + 1])
    assert alone_flags.tobytes() == flags[where : where + 1].tobytes()


@pytest.mark.parametrize("source", _PLAIN_SOURCES)
def test_evaluate_many_large_batch_matches_small_batches(source):
    # 20000 points pass numpy's 256 KiB threshold for reusing a temporary in
    # place, where an operator may swap the operands of a product
    f = parse(source)
    rng = np.random.default_rng(11)
    radii = 10.0 ** rng.uniform(-3.0, 3.0, 20000)
    batch = radii * np.exp(2j * np.pi * rng.uniform(size=20000))
    vals, flags = evaluate_many(f, batch)
    pieces = [evaluate_many(f, batch[i : i + 37]) for i in range(0, batch.size, 37)]
    assert _same_values(vals, np.concatenate([v for v, _ in pieces]))
    assert flags.tobytes() == np.concatenate([fl for _, fl in pieces]).tobytes()
