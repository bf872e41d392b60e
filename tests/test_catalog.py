"""Pole catalogs as sorted arrays: within, near and counting against scalar scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merolab import counting, parse
from merolab.expr import SingularityList, as_expr, poles_in_disk
from merolab.expr import poles

_TOL = 1e-9  # the merge tolerance of within


def _catalog(pairs) -> SingularityList:
    pairs = sorted(pairs, key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
    return SingularityList(
        np.array([b for b, _ in pairs], dtype=np.complex128),
        np.array([m for _, m in pairs], dtype=np.int64),
        np.array([abs(b) for b, _ in pairs], dtype=float),
        True,
    )


# moduli from a small pool, so that equal moduli and the origin come up often
_MODULI = st.one_of(st.sampled_from([0.0, 1e-10, 0.5, 1.0, 1.0 + 1e-9, 3.0]), st.floats(0.0, 8.0))
_POLE = st.tuples(_MODULI, st.sampled_from([1, -1, 1j, -1j, 0.6 + 0.8j]), st.integers(1, 3))


def _edges(moduli, picks, tol):
    """Query radii at, and one ulp around, r +- tol and the within limit of each modulus."""
    out = []
    for m in moduli:
        for q in (m, m - tol, m + tol, (m - _TOL) / (1 + 1e-12)):
            out += [q, math.nextafter(q, -math.inf), math.nextafter(q, math.inf)]
    return [q for q in out if q >= 0.0] + picks


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    raw=st.lists(_POLE, max_size=12),
    picks=st.lists(st.floats(0.0, 9.0), max_size=4),
    tol=st.sampled_from([1e-9, 1e-6, 0.25]),
)
def test_within_and_near_equal_brute_force_scans(raw, picks, tol):
    pairs = [(complex(m * u), k) for m, u, k in raw]
    cat = _catalog(pairs)
    assert len(cat) == len(pairs)
    for q in _edges(cat.moduli.tolist(), picks, tol):
        assert cat.near(q, tol) == any(abs(abs(b) - q) <= tol for b, _ in pairs)
        kept = tuple(e for e in cat.entries if abs(e[0]) <= q * (1 + 1e-12) + _TOL)
        assert cat.within(q).entries == kept


def test_empty_catalog_answers_both_queries():
    cat = _catalog([])
    assert len(cat) == 0 and cat.entries == ()
    assert cat.within(5.0).entries == () and not cat.near(1.0, 1.0)


def test_catalog_arrays_are_read_only():
    # poles_in_disk hands out cuts of one cached bucket catalog
    cat = poles_in_disk(parse("tan(z)"), 10.0)
    with pytest.raises(ValueError, match="read-only"):
        cat.moduli[0] = 0.0
    assert poles_in_disk(parse("tan(z)"), 3.0).moduli[0] == math.pi / 2


def test_multiplicities_are_checked():
    with pytest.raises(ValueError, match="multiplicity"):
        SingularityList(np.array([1j]), np.array([0]), np.array([1.0]), True)


# ---------------------------------------------------------------------------
# catalogs and N(r) against the scalar code they replace
# ---------------------------------------------------------------------------


def _scalar_entries(f, radius):
    """The bucket catalog filtered, sorted as (|b|, Re b, Im b) and filtered again."""
    f = as_expr(f)
    bucket = poles._bucket_radius(radius)
    try:
        locs, mults = poles._structural_poles(f.root, bucket)
        raw = zip(locs.tolist(), mults.tolist())
        entries = [(b, m) for b, m in raw if abs(b) <= bucket * (1 + 1e-12) + _TOL]
    except poles._NeedsNumeric:
        entries = [(0j if abs(b) < 1e-6 else b, m) for b, m in poles._numeric_poles(f, bucket)]
    entries.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
    return tuple(e for e in entries if abs(e[0]) <= radius * (1 + 1e-12) + _TOL)


def _scalar_counting(f, r):
    """N(r) as a loop over the catalog: the origin term, then log(r/|b|) in order."""
    entries = poles_in_disk(f, r).entries
    total = sum(m for b, m in entries if abs(b) <= _TOL) * math.log(r)
    for b, mult in entries:
        if abs(b) > _TOL:
            total += mult * math.log(r / abs(b))
    return total


@pytest.mark.parametrize(
    "src, radius",
    [
        ("tan(z)", 10.0),
        ("tan(z)", math.pi / 2),
        ("tan(201*z)", 48.0),
        ("tan(3*z+0.5*i)", 7.0),
        ("tan((2+i)*z-1)", 9.0),
        ("tan(z+2e6)", 1.0),
        ("1/(z*(z-1)*(z-2))", 1.5),
        ("1/(z^2*(z-1))", 0.5),
        ("(z-100)*tan(300*z)", 64.0),
        ("tan(300*z)/(z-10)", 64.0),
        ("tan(100*z)+tan(101*z)", 64.0),
        ("tan(3*z)*tan(3*z+1)", 20.0),
        # equal moduli on both axes: the order falls to (Re b, Im b)
        ("tan(z)*tan(i*z)", 5.0),
        ("1/(exp(z)-2)", 16.0),
        ("1/(exp(z)-2)", 5.0),
        ("1/(sin(z)-0.5)", 8.0),
        ("exp(z)", 100.0),
        ("z^3 - 1", 4.0),
    ],
)
def test_catalog_entries_match_the_scalar_sort_and_filter(src, radius):
    cat = poles_in_disk(parse(src), radius)
    assert cat.entries == _scalar_entries(src, radius)
    assert len(cat) == len(cat.entries)


@pytest.mark.parametrize("src", ["tan(z)", "tan(201*z)", "1/(exp(z)-2)", "1/z^2 + tan(z)"])
def test_counting_matches_the_scalar_loop(src):
    f = parse(src)
    for r in (0.3, 1.0, math.pi / 2, 7.5, 16.0):
        assert counting(f, r) == pytest.approx(_scalar_counting(f, r), rel=1e-15)
