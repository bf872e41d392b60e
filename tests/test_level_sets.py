"""Exact catalogs of level sets g(a z + b) = c, g in exp, sin, cos, tan."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from merolab import parse
from merolab.expr import MeroExpr, poles_in_disk
from merolab.expr import poles
from merolab.expr.nodes import Add, Const, Div, Func, Mul, Sub, Var

mpmath = pytest.importorskip("mpmath")

_MERGE_TOL = poles._MERGE_TOL


def _reciprocal(g, a, b, c) -> MeroExpr:
    """1/(g(a z + b) - c), built as a tree so that any complex constant fits."""
    w = Add(Mul(Const(complex(a)), Var()), Const(complex(b)))
    return MeroExpr(Div(Const(1 + 0j), Sub(Func(g, w), Const(complex(c)))))


def _mp_zeros(g, a, b, c, radius):
    """Zeros of g(a z + b) - c in the disk, with multiplicities, at 30 digits.

    The lattice is walked over a brute-force range of k; a zero's order is
    read off g' (simple where g' is far from 0, double where it vanishes).
    """
    with mpmath.workdps(30):
        a, b, c = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c)
        if g == "exp":
            period, roots = 2j * mpmath.pi, [] if c == 0 else [mpmath.log(c)]
            deriv = mpmath.exp
        elif g == "tan":
            period, roots = mpmath.pi, [] if c in (1j, -1j) else [mpmath.atan(c)]
            deriv = lambda w: mpmath.sec(w) ** 2  # noqa: E731
        elif g == "sin":
            period, roots = 2 * mpmath.pi, [mpmath.asin(c), mpmath.pi - mpmath.asin(c)]
            deriv = mpmath.cos
        else:
            period, roots = 2 * mpmath.pi, [mpmath.acos(c), -mpmath.acos(c)]
            deriv = lambda w: -mpmath.sin(w)  # noqa: E731
        reach = int(abs(a) * radius / abs(period) + abs(b) / abs(period)) + 3
        out = {}
        for w0 in roots:
            for k in range(-reach, reach + 1):
                w = w0 + k * period
                z = (w - b) / a
                if abs(z) > radius:
                    continue
                key = complex(z)
                if any(abs(key - q) < 1e-20 + 1e-25 * abs(key) for q in out):
                    continue
                out[key] = 1 if abs(deriv(w)) > 1e-6 else 2
        return sorted(out.items(), key=lambda t: (abs(t[0]), t[0].real, t[0].imag))


_FAMILIES = [
    # exp: c = 0 has no zeros; a vertical lattice otherwise
    ("exp", 1, 0, 0, 8.0, set()),
    ("exp", -0.5, 0, 0, 2048.0, set()),
    ("exp", 2, 1 + 1j, -3 + 0.5j, 8.0, {1}),
    # sin and cos: double zeros at c = +-1, two cosets otherwise
    ("sin", 1, 0, 1, 16.0, {2}),
    ("sin", 0.5, 0.25, -1, 16.0, {2}),
    ("sin", 1 + 1j, 0, 0.3 - 2j, 8.0, {1}),
    ("cos", 1, 0.3j, 1, 16.0, {2}),
    ("cos", 2, 0, -1, 8.0, {2}),
    ("cos", 1, 0, 0, 8.0, {1}),
    # tan: no zeros at c = +-i, one coset otherwise
    ("tan", 1, 0, 1j, 8.0, set()),
    ("tan", 1, 0.5, -1j, 8.0, set()),
    ("tan", 3, 0.5, 2 + 1j, 8.0, {1}),
]


@pytest.mark.parametrize("g, a, b, c, radius, mults", _FAMILIES)
def test_level_set_catalogs_against_mpmath(g, a, b, c, radius, mults):
    cat = poles_in_disk(_reciprocal(g, a, b, c), radius)
    want = _mp_zeros(g, a, b, c, radius)
    assert cat.exact is True
    assert [m for _, m in cat.entries] == [m for _, m in want]
    assert {m for _, m in want} == mults
    for (got, _), (loc, _) in zip(cat.entries, want):
        assert abs(got - loc) <= 1e-12 * max(1.0, abs(loc))


def test_tan_level_set_keeps_the_tan_poles_as_zeros():
    # 1/(tan(z) - 1) vanishes at the poles of tan: tan(z)/(tan(z) - 1)
    # keeps only the level set, and tan(z)/tan(z) has no pole at all
    level = poles_in_disk(parse("1/(tan(z)-1)"), 10.0)
    assert poles_in_disk(parse("tan(z)/(tan(z)-1)"), 10.0).entries == level.entries
    assert poles_in_disk(parse("tan(z)/tan(z)"), 10.0).entries == ()
    squared = poles_in_disk(parse("tan(z)^2/(tan(z)-1)^2"), 10.0)
    assert squared.exact and squared.entries == tuple((b, 2) for b, _ in level.entries)
    assert [b.real for b, _ in level.entries][:2] == [math.pi / 4, -3 * math.pi / 4]


@pytest.mark.parametrize(
    "src, same_as",
    [
        ("1/(2-exp(z))", "1/(exp(z)-2)"),
        ("-1/(exp(z)+(-2))", "1/(exp(z)-2)"),
        ("1/(-(exp(z)-2))", "1/(exp(z)-2)"),
        ("1/((exp(z)-2)^2)", "(exp(z)-2)^-2"),
        ("1/exp(z)", "1"),
    ],
)
def test_level_set_forms(src, same_as):
    cat = poles_in_disk(parse(src), 20.0)
    assert cat.exact and cat.entries == poles_in_disk(parse(same_as), 20.0).entries


def test_polynomial_times_level_sets():
    # z (exp(z) - 1) sin(z)^2: the triple zero at 0 joins across factors
    cat = poles_in_disk(parse("1/(z*(exp(z)-1)*sin(z)^2)"), 10.0)
    assert cat.exact
    got = dict(cat.entries)
    assert got[0j] == 4
    assert [got[k * math.pi] for k in (-3, -2, -1, 1, 2, 3)] == [2] * 6
    assert got[2j * math.pi] == got[-2j * math.pi] == 1 and len(got) == 9


@pytest.mark.parametrize("src", ["1/exp(z^2)", "z/exp(z^3)", "(z-1)/(2*exp(z^2 - 3*z))"])
def test_exp_of_a_polynomial_has_no_zeros(src):
    cat = poles_in_disk(parse(src), 64.0)
    assert cat.exact and cat.entries == ()


def test_numeric_route_stays_for_other_denominators():
    for src in ("1/(exp(z)+z)", "1/(exp(z^2)-2)"):
        assert poles_in_disk(parse(src), 2.0).exact is False


def test_zero_of_one_factor_at_a_pole_of_another_goes_numeric():
    # tan(z) cos(z) = sin(z): the zeros of cos meet the poles of tan
    cat = poles_in_disk(parse("1/(tan(z)*cos(z))"), 4.0)
    assert cat.exact is False
    assert [m for _, m in cat.entries] == [1, 1, 1]
    got = sorted((b for b, _ in cat.entries), key=lambda b: b.real)
    assert all(abs(b - k * math.pi) < 1e-6 for b, k in zip(got, (-1, 0, 1)))


# ---------------------------------------------------------------------------
# cancellation by lattice membership
# ---------------------------------------------------------------------------


def test_pole_times_exp_stays_exact():
    # exp(z) < 1e-8 for Re z < -18.4, but it never vanishes
    cat = poles_in_disk(parse("tan(z)*exp(z)"), 100.0)
    assert cat.exact
    assert cat.entries == poles_in_disk(parse("tan(z)"), 100.0).entries


def test_products_of_tan_lattices_certify_their_cancellations():
    # tan(30 z) vanishes at the 40 poles (2j + 1) pi / 2 of tan(31 z) in the disk
    cat = poles_in_disk(parse("tan(30*z)*tan(31*z)"), 64.0)
    assert cat.exact and len(cat) == 2446
    union = {
        **dict(poles_in_disk(parse("tan(30*z)"), 64.0).entries),
        **dict(poles_in_disk(parse("tan(31*z)"), 64.0).entries),
    }
    gone = sorted(set(union) - set(dict(cat.entries)), key=lambda b: b.real)
    odd = [m * math.pi / 2 for m in range(-39, 40, 2)]
    assert len(union) == 2486 and len(gone) == len(odd) == 40
    assert all(abs(b - q) < 1e-12 for b, q in zip(gone, odd))


def test_numerator_lattice_cancels_a_level_set_zero():
    # sin(z)/(exp(z) - 1) is regular at 0: 2 pi i k for k != 0 are left
    cat = poles_in_disk(parse("sin(z)/(exp(z)-1)"), 20.0)
    assert cat.exact
    assert sorted(round(b.imag / (2 * math.pi)) for b, _ in cat.entries) == [-3, -2, -1, 1, 2, 3]
    assert all(b.real == 0 and m == 1 for b, m in cat.entries)


# a polynomial zero cancels a pole only within 1e-9 of it, whatever its order
_NEAR_MISSES = [
    # a double zero 3.7e-6 from pi/2
    ("tan(z)*(z-1.5708)^2", "tan(z)", 2.0, 2),
    ("(z-1.5708)^2/cos(z)", "1/cos(z)", 2.0, 2),
    # a triple zero at 1, 6.8e-4 and 1.3e-3 from the nearest poles
    ("(z-1)^3*tan(1608*z)", "tan(1608*z)", 2.0, 2048),
    # a simple zero 5e-7 from the pole 500.5 pi
    (f"tan(z)*(z-{500.5 * math.pi + 5e-7!r})", "tan(z)", 1600.0, 1018),
    # multiple zeros 7.3e-8 and 3.3e-7 from pi/2, where the polynomial is
    # within rounding of 0
    ("tan(z)*(z-1.5707964)^2", "tan(z)", 2.0, 2),
    ("tan(z)*(z-1.570796)^3", "tan(z)", 2.0, 2),
    # two simple zeros 1e-5 either side of pi/2, where the derivative vanishes
    ("tan(z)*((z-1.5707963267948966)^2-1e-10)", "tan(z)", 2.0, 2),
]


@pytest.mark.parametrize("src, lattice, radius, count", _NEAR_MISSES)
def test_polynomial_zero_near_a_pole_cancels_nothing(src, lattice, radius, count):
    cat = poles_in_disk(parse(src), radius)
    assert cat.exact and len(cat) == count
    assert cat.entries == poles_in_disk(parse(lattice), radius).entries


_HALF_PI = repr(math.pi / 2)


@pytest.mark.parametrize(
    "src, left",
    [
        (f"tan(z)*(z-{_HALF_PI})^3*(z+{_HALF_PI})^2", {}),
        (f"tan(z)*(z-{_HALF_PI})^4", {-math.pi / 2: 1}),
        (f"(z-{_HALF_PI})^5/cos(z)", {-math.pi / 2: 1}),
        (f"tan(z)^2*(z-{_HALF_PI})^3", {-math.pi / 2: 2}),
        (f"tan(z)^3*(z-{_HALF_PI})^2", {-math.pi / 2: 3, math.pi / 2: 1}),
        ("0*tan(z)", {}),
    ],
)
def test_multiple_polynomial_root_on_a_pole_cancels_it(src, left):
    # eigenvalues scatter a triple or higher root by 1e-5 or more, past the
    # merge tolerance, yet its order counts at pi/2; a double root found
    # both ways counts once, and the zero polynomial cancels every pole
    cat = poles_in_disk(parse(src), 2.0)
    assert cat.exact and dict(cat.entries) == left


@pytest.mark.parametrize("src", ["z^200*tan(z)", "(z+1)^200*tan(z)"])
def test_high_degree_polynomial_cancels_no_pole(src):
    # the polynomial overflows at the poles beyond |z| = 34.7, and near -1
    # the expanded (z+1)^200 is all rounding, not a zero
    cat = poles_in_disk(parse(src), 64.0)
    assert cat.exact and cat.entries == poles_in_disk(parse("tan(z)"), 64.0).entries


def test_polynomial_zeros_cancel_without_a_call_per_pole(monkeypatch):
    # z has one root; the 524,126 poles of tan(402 z) at radius 2048 must
    # not each be tested against it
    calls = []
    horner = poles._horner
    monkeypatch.setattr(poles, "_horner", lambda c, z: calls.append(z) or horner(c, z))
    poles._catalog_at.cache_clear()
    cat = poles_in_disk(parse("z*tan(402*z)"), 2048.0)
    assert cat.exact and len(cat) == 524126
    assert len(calls) <= 8


# ---------------------------------------------------------------------------
# the exact catalog against the numeric search
# ---------------------------------------------------------------------------

_CMPLX = st.builds(
    complex,
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def _level_sets(draw):
    g = draw(st.sampled_from(["exp", "sin", "cos", "tan"]))
    # a zero of 1/(tan(w) - c), at a pole of tan, must not share a 0.7
    # search cell with a pole, which the numeric search cannot see
    top = 0.4 if g == "tan" else 2.0
    size, angle = draw(st.floats(0.2, top)), draw(st.floats(0.0, 2 * math.pi))
    a = size * complex(math.cos(angle), math.sin(angle))
    b = draw(_CMPLX)
    c = draw(st.one_of(st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, 2 + 0j]), _CMPLX))
    if g == "tan":
        assume(abs(c) <= 1.0 and c not in (1j, -1j))
    # c = +-1 gives double zeros; near it the two cosets crowd together
    assume(c in (1, -1) or min(abs(c - 1), abs(c + 1)) >= 0.05)
    return g, a, b, c


def _assert_matches_numeric(f, radius):
    cat = poles_in_disk(f, radius)
    limit = radius * (1 + 1e-12) + _MERGE_TOL
    numeric = [(b, m) for b, m in poles._numeric_poles(f, radius) if abs(b) <= limit]
    assert cat.exact and len(cat) == len(numeric)
    for b, m in cat.entries:
        assert [k for loc, k in numeric if abs(loc - b) < 1e-6] == [m]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(level=_level_sets(), radius=st.floats(1.0, 8.0))
def test_exact_catalog_matches_the_numeric_search(level, radius):
    f = _reciprocal(*level)
    # a pole on the rim is in or out of either catalog by rounding
    assume(not poles_in_disk(f, radius + 1e-5).near(radius, 1e-5))
    _assert_matches_numeric(f, radius)


@pytest.mark.parametrize("src", ["1/(exp(z)-2)", "1/(sin(z)-0.5)", "1/(exp(z) - 1)"])
def test_former_numeric_catalogs_match_the_numeric_search(src):
    # these took the numeric route before their level sets had lattices
    _assert_matches_numeric(parse(src), 16.0)
