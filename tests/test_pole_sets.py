"""Structural pole sets as array pairs: against a frozen dict route, and their parts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merolab import parse
from merolab.expr import (
    SingularityList,
    UnresolvedRegionError,
    UnsupportedExpressionError,
    poles_in_disk,
)
from merolab.expr import poles
from merolab.expr.evaluate import _horner, log_polar
from merolab.expr.nodes import (
    Add,
    CanonicalProduct,
    Div,
    Func,
    LacunarySeries,
    Mul,
    Neg,
    Node,
    Pow,
    Sub,
    polynomial_coefficients,
)

_MERGE_TOL = poles._MERGE_TOL

# ---------------------------------------------------------------------------
# reference: the structural route on {location: multiplicity} dicts merged
# through a 2e-9 cell hash, with its conversion to a sorted catalog; the
# array route must give the same entries, moduli and exact flag
# ---------------------------------------------------------------------------


class _RefNeedsNumeric(Exception):
    pass


def _ref_poly_roots(coeffs) -> list:
    arr = np.array(coeffs, dtype=np.complex128)
    while arr.size > 1 and arr[-1] == 0:
        arr = arr[:-1]
    if arr.size <= 1:
        return []
    raw = np.roots(arr[::-1])
    scale = max(1.0, float(np.abs(raw).max(initial=0.0)))
    clusters: list[list[complex]] = []
    for r in sorted(raw, key=lambda w: (abs(w), w.real, w.imag)):
        for cl in clusters:
            if abs(r - cl[0]) <= 1e-6 * scale:
                cl.append(r)
                break
        else:
            clusters.append([r])
    deriv = tuple((k + 1) * c for k, c in enumerate(coeffs[1:]))
    out = []
    for cl in clusters:
        loc = complex(np.mean(np.array(cl)))
        if len(cl) == 1:
            for _ in range(4):
                dv = _horner(deriv, loc)
                if abs(dv) < 1e-290:
                    break
                step = _horner(coeffs, loc) / dv
                loc -= step
                if abs(step) < 1e-14 * max(1.0, abs(loc)):
                    break
        out.append((loc, len(cl)))
    return out


def _ref_cell(loc: complex) -> tuple:
    return math.floor(loc.real / (2 * _MERGE_TOL)), math.floor(loc.imag / (2 * _MERGE_TOL))


def _ref_cells(locs: list) -> dict:
    arr = np.array(locs, dtype=np.complex128)
    xs = np.floor(arr.real / (2 * _MERGE_TOL)).tolist()
    ys = np.floor(arr.imag / (2 * _MERGE_TOL)).tolist()
    cells: dict = {}
    for rank, key in enumerate(zip(xs, ys)):
        cells.setdefault(key, []).append(rank)
    return cells


def _ref_near(cells: dict, locs: list, loc: complex):
    cx, cy = _ref_cell(loc)
    hits = [
        rank
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for rank in cells.get((cx + dx, cy + dy), ())
        if abs(locs[rank] - loc) <= _MERGE_TOL
    ]
    return min(hits) if hits else None


def _ref_merge_poles(poles_map: dict, pairs) -> None:
    locs = list(poles_map)
    cells = _ref_cells(locs)
    for loc, mult in pairs:
        rank = _ref_near(cells, locs, loc)
        if rank is None:
            cells.setdefault(_ref_cell(loc), []).append(len(locs))
            locs.append(loc)
            poles_map[loc] = mult
        else:
            poles_map[locs[rank]] += mult


def _ref_poly_scale(coeffs, loc: complex) -> float:
    return max(abs(c) * max(1.0, abs(loc)) ** k for k, c in enumerate(coeffs)) or 1.0


def _ref_cancel_against(other: Node, loc: complex, mult: int):
    coeffs = polynomial_coefficients(other)
    if coeffs is not None:
        work = list(coeffs)
        k = 0
        while k < mult and work and abs(_horner(tuple(work), loc)) <= 1e-9 * _ref_poly_scale(work, loc):
            work = [(j + 1) * c for j, c in enumerate(work[1:])]
            k += 1
        return mult - k
    arg = polynomial_coefficients(other.argument) if isinstance(other, Func) else None
    if arg is not None and len(arg) == 2:
        # g(a z + b): the zeros of sin, cos and tan are simple, at
        # offset + pi k in w = a z + b; exp has none
        b, a = arg
        offset = {"exp": None, "sin": 0.0, "cos": math.pi / 2, "tan": 0.0}[other.name]
        if offset is None:
            return mult
        k = round(((a * loc + b - offset) / math.pi).real)
        return mult - (abs((k * math.pi + offset - b) / a - loc) <= _MERGE_TOL)
    val = log_polar(other, np.array([loc], dtype=np.complex128))[0][0]
    if not np.isfinite(val) or val < math.log(1e-8):
        return None
    return mult


def _ref_tan_lattice(argument: Node, radius: float):
    coeffs = polynomial_coefficients(argument)
    if coeffs is None or len(coeffs) != 2 or coeffs[1] == 0:
        return None
    b, a = coeffs
    limit = radius * (1 + 1e-12) + _MERGE_TOL
    k_lo = (b.real - abs(a) * limit) / math.pi
    k_hi = (b.real + abs(a) * limit) / math.pi
    if not k_hi - k_lo <= poles._LATTICE_POLES:
        raise UnresolvedRegionError(
            f"{k_hi - k_lo:.0f} tan lattice indices for the disk of radius {radius:g} "
            f"exceed the budget of {poles._LATTICE_POLES}"
        )
    out: dict = {}
    for k in range(math.floor(k_lo), math.ceil(k_hi) + 1):
        # numpy's complex division, as the lattice's array expression takes it
        loc = complex(np.complex128((k + 0.5) * math.pi - b) / a)
        if abs(loc) <= limit:
            out[loc] = 1
    return out


def _ref_structural_poles(node: Node, radius: float) -> dict:
    if polynomial_coefficients(node) is not None:
        return {}
    if isinstance(node, Neg):
        return _ref_structural_poles(node.operand, radius)
    if isinstance(node, (LacunarySeries, CanonicalProduct)):
        return {}
    if isinstance(node, (Add, Sub)):
        pa = _ref_structural_poles(node.left, radius)
        pb = _ref_structural_poles(node.right, radius)
        others = list(pb)
        cells = _ref_cells(others)
        if any(_ref_near(cells, others, loc) is not None for loc in pa):
            raise _RefNeedsNumeric
        merged = dict(pa)
        merged.update(pb)
        return merged
    if isinstance(node, Mul):
        out: dict = {}
        for found, other in (
            (_ref_structural_poles(node.left, radius), node.right),
            (_ref_structural_poles(node.right, radius), node.left),
        ):
            kept = []
            for loc, mult in found.items():
                reduced = _ref_cancel_against(other, loc, mult)
                if reduced is None:
                    raise _RefNeedsNumeric
                if reduced > 0:
                    kept.append((loc, reduced))
            if out:
                _ref_merge_poles(out, kept)
            else:
                out = dict(kept)
        return out
    if isinstance(node, Div):
        if node.denominator_poly is None:
            raise _RefNeedsNumeric
        out = dict(_ref_structural_poles(node.numerator, radius))
        kept = []
        for loc, mult in _ref_poly_roots(node.denominator_poly):
            reduced = _ref_cancel_against(node.numerator, loc, mult)
            if reduced is None:
                raise _RefNeedsNumeric
            if reduced > 0:
                kept.append((loc, reduced))
        _ref_merge_poles(out, kept)
        return out
    if isinstance(node, Pow):
        if node.exponent >= 0:
            if node.exponent == 0:
                return {}
            inner = _ref_structural_poles(node.base, radius)
            return {loc: m * node.exponent for loc, m in inner.items()}
        base_coeffs = polynomial_coefficients(node.base)
        if base_coeffs is None:
            raise _RefNeedsNumeric
        return {loc: m * (-node.exponent) for loc, m in _ref_poly_roots(base_coeffs)}
    if isinstance(node, Func):
        if node.name != "tan":
            return {}
        lattice = _ref_tan_lattice(node.argument, radius)
        if lattice is None:
            raise _RefNeedsNumeric
        return lattice
    raise _RefNeedsNumeric


def _ref_pole_free(node: Node) -> bool:
    """For the generator's grammar: no tan node, and every quotient
    denominator and negative-power base is a nonzero constant."""
    if isinstance(node, Func) and node.name == "tan":
        return False
    den = node.denominator if isinstance(node, Div) else None
    if isinstance(node, Pow) and node.exponent < 0:
        den = node.base
    if den is not None:
        coeffs = polynomial_coefficients(den)
        if coeffs is None or len(coeffs) > 1 or coeffs[0] == 0:
            return False
    return all(_ref_pole_free(child) for child in vars(node).values() if isinstance(child, Node))


def _ref_refuse_essential(node: Node) -> None:
    """A function of an argument that is not pole-free is refused at every
    radius, wherever the argument's poles lie."""
    if isinstance(node, Func) and not _ref_pole_free(node.argument):
        raise UnsupportedExpressionError("essential singularity")
    for child in vars(node).values():
        if isinstance(child, Node):
            _ref_refuse_essential(child)


class _Numeric(Exception):
    """Raised in place of the numeric route, which both sides share."""


def _no_numeric(f, radius):
    raise _Numeric


def _ref_catalog(f, radius) -> SingularityList:
    bucket = poles._bucket_radius(radius)
    _ref_refuse_essential(f.root)
    try:
        pairs = _ref_structural_poles(f.root, bucket).items()
    except _RefNeedsNumeric:
        raise _Numeric from None
    locs = np.array([loc for loc, _ in pairs], dtype=np.complex128)
    moduli = np.array([abs(loc) for loc, _ in pairs], dtype=float)
    order = np.lexsort((locs.imag, locs.real, moduli))
    mults = np.array([m for _, m in pairs], dtype=np.int64)
    return SingularityList(locs[order], mults[order], moduli[order], True).within(radius)


def _outcome(catalog, f, radius):
    try:
        cat = catalog(f, radius)
    except (_Numeric, UnsupportedExpressionError, UnresolvedRegionError) as exc:
        return type(exc)
    return cat.entries, cat.moduli.tolist(), cat.exact


def _assert_matches_reference(src, radius):
    f = parse(src)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poles, "_numeric_poles", _no_numeric)
        poles._catalog_at.cache_clear()
        got = _outcome(poles_in_disk, f, radius)
    poles._catalog_at.cache_clear()
    assert got == _outcome(_ref_catalog, f, radius)
    return got


@pytest.mark.parametrize("src", [
    "tan(z)/(z-1.5707963267948966)", "1/z*1/(z-1e-10)", "tan(z)*tan(z+1e-10)",
])
@pytest.mark.parametrize("radius", [2.0, 7.5, 100.0])
def test_near_coincident_poles_match_the_dict_route(src, radius):
    entries, _, exact = _assert_matches_reference(src, radius)
    assert exact and entries and max(m for _, m in entries) == 2


_TAN = st.builds(
    "tan({}*z+{})".format,
    st.sampled_from(["1", "2", "3", "0.5", "7", "(2+i)", "-3", "i", "(1-0.25*i)"]),
    st.sampled_from(
        ["0", "1", "0.5*i", "1e-10", "3.141592653589793", "-1.5707963267948966", "(0.3-2*i)"]
    ),
)
_ROOT = st.sampled_from(
    ["0", "1", "-1", "i", "1.5707963267948966", "(0.3+0.4*i)", "1e-10", "2", "-4.71238898038469"]
)
_POLY = st.one_of(
    st.builds("(z-{})".format, _ROOT),
    st.builds("(z-{})^{}".format, _ROOT, st.integers(2, 3)),
    st.builds("(z-{})*(z-{})".format, _ROOT, _ROOT),
    st.sampled_from(["(z^2+1)", "(z^3-1)", "2", "z"]),
)

# each leaf has poles: a tan lattice, alone or through a polynomial, or a rational
_TERM = st.one_of(
    _TAN,
    st.builds("{}/({})".format, _TAN, _POLY),
    st.builds("({}*{})".format, _POLY, _TAN),
    st.builds("({})^{}".format, _TAN, st.integers(2, 3)),
    st.builds("1/({})".format, _POLY),
    st.builds("({})^{}".format, _POLY, st.integers(-3, -1)),
)


def _combine(children):
    return st.one_of(
        st.builds("({}*{})".format, children, children),
        st.builds("({}/({}))".format, children, _POLY),
        st.builds("({}+{})".format, children, children),
        st.builds("({}-{})".format, children, children),
        st.builds("({})^{}".format, children, st.integers(0, 3)),
        st.builds("exp({})".format, children),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    src=st.recursive(_TERM, _combine, max_leaves=4),
    radius=st.sampled_from([2.0, 7.5, 20.0]),
)
def test_catalogs_match_the_dict_route(src, radius):
    _assert_matches_reference(src, radius)


# ---------------------------------------------------------------------------
# the parts: moduli, coincident pairs and joins
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a, b", [(201, 0), (2 + 1j, 0.5j), (201, 0.5j), (1, 0)])
def test_moduli_equal_the_builtin_abs_on_lattices(a, b):
    locs = np.array([((k + 0.5) * math.pi - b) / a for k in range(-50000, 50000)])
    assert poles._moduli(locs).tolist() == [abs(x) for x in locs.tolist()]


def test_moduli_equal_the_builtin_abs_on_random_points():
    rng = np.random.default_rng(0)
    scale = 10.0 ** rng.uniform(-300, 300, (2, 100000))
    locs = rng.standard_normal(100000) * scale[0] + 1j * rng.standard_normal(100000) * scale[1]
    locs[:4] = [0j, 1e-310 + 1e-310j, 1e308 + 1e308j, -3 - 4j]
    assert poles._moduli(locs).tolist() == [abs(x) for x in locs.tolist()]


_BASE = st.sampled_from([0j, 1 + 0j, 1j, -2.5 + 0j, 1e6 + 3j, 0.6 + 0.8j, 1e-9 + 0j])
_OFFSET = st.sampled_from(
    [0j, 0.5e-9, 0.8e-9, 1e-9, 1.2e-9, 2e-9, -0.7e-9, 1e-9j, 0.7e-9 + 0.7e-9j, -0.71e-9 - 0.71e-9j]
)
_POINT = st.one_of(
    st.builds(lambda b, d: b + d, _BASE, _OFFSET),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(a=st.lists(_POINT, max_size=8), b=st.lists(_POINT, max_size=8))
def test_coincident_pairs_equal_a_brute_force_scan(a, b):
    i, j = poles._coincident(np.array(a, dtype=np.complex128), np.array(b, dtype=np.complex128))
    assert (np.diff(i) >= 0).all()
    brute = [(p, q) for p in range(len(a)) for q in range(len(b)) if abs(a[p] - b[q]) <= _MERGE_TOL]
    assert sorted(zip(i.tolist(), j.tolist())) == brute


def test_joined_adds_to_the_first_pole_within_tolerance():
    a = (np.array([0j, 1.6e-9, 5.0 - 0.5e-9j, 7.0 - 1.8e-9j]), np.ones(4, dtype=np.int64))
    # 0.8e-9 lies within 1e-9 of both 0 and 1.6e-9 and joins the first;
    # the others join across an edge of the old 2e-9 cells, on each side,
    # and 9 is appended
    b = (
        np.array([0.8e-9 + 0j, 2.5e-9, -0.5e-9, 5.0 + 0j, 7.0 - 2.3e-9j, 9.0]),
        np.array([2, 1, 1, 3, 1, 1], dtype=np.int64),
    )
    locs, mults = poles._joined(a, b)
    assert locs.tolist() == [0j, 1.6e-9, 5.0 - 0.5e-9j, 7.0 - 1.8e-9j, 9.0]
    assert mults.tolist() == [4, 2, 4, 2, 1]
    assert mults.dtype == np.int64 and a[1].tolist() == [1, 1, 1, 1]
