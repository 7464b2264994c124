"""Exact jets, polynomial time functions and jet-space calculus.

The analytic-field derivative formula is checked against central finite
differences, and the JetPoly algebra against direct evaluation — these
are the oracles every higher-level identity test rests on.
"""

from __future__ import annotations

import importlib
import math
import pathlib
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betaplane
from betaplane.jets import (
    MAX_JET_ORDER,
    AnalyticField,
    Jet,
    JetOrderError,
    TimeFunction,
    ZETA,
    analytic_jet,
    analytic_jets,
    jp_add,
    jp_compile,
    jp_coord,
    jp_const,
    jp_eval,
    jp_mul,
    jp_order,
    jp_pow,
    jp_total_derivative,
    material_operator,
    multi_indices,
)

POINT = (0.4, -1.1, 0.7)


def zeta_derivative(a1, a2, a3):
    """d^{a1+a2+a3} zeta / dt^{a1} dx^{a2} dy^{a3} as a jet polynomial."""
    p = ZETA
    for direction, count in enumerate((a1, a2, a3)):
        for _ in range(count):
            p = jp_total_derivative(p, direction)
    return p


@pytest.fixture
def field():
    rng = np.random.default_rng(42)
    return AnalyticField.random(rng)


def central_fd(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_multi_indices_count():
    # number of alpha with |alpha| <= n in 3 variables is C(n+3, 3)
    for n in range(5):
        assert len(multi_indices(n)) == math.comb(n + 3, 3)
    assert multi_indices(1) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_multi_indices_returns_a_fresh_list():
    first = multi_indices(2)
    first.clear()
    assert len(multi_indices(2)) == math.comb(5, 3)


@pytest.mark.parametrize("direction", range(3))
def test_analytic_derivative_matches_fd(field, direction):
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 2, 0)]
    for alpha in base:
        bumped = tuple(
            a + (1 if i == direction else 0) for i, a in enumerate(alpha)
        )

        def slice_fn(s):
            p = list(POINT)
            p[direction] = s
            return field.derivative(alpha, tuple(p))

        fd = central_fd(slice_fn, POINT[direction])
        exact = field.derivative(bumped, POINT)
        assert exact == pytest.approx(fd, rel=1e-7, abs=1e-7)


def same_float(a: float, b: float) -> bool:
    """a == b, and of the same sign when both are zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def derivative_test_fields(field):
    """Random fields of 1-5 terms and fields with negative and zero
    frequencies, at points that include the origin."""
    rng = np.random.default_rng(7)
    terms = [t for _ in range(3) for t in AnalyticField.random(rng).terms]
    fields = [field, *(AnalyticField(tuple(terms[i:j]))
                       for i, j in ((0, 1), (1, 4), (4, 9)))]
    fields.append(AnalyticField.from_terms([
        (-0.8, -1.1, 0.6, -0.4, 2.0), (0.5, 0.0, -0.9, 1.2, -0.3),
    ]))
    # one term with a zero frequency: every a_t > 0 entry is 0.0 plus a
    # signed zero, which derivative returns as +0.0
    fields.append(AnalyticField.from_terms([(-0.7, 0.0, 0.8, -0.5, 1.0)]))
    points = [POINT, (0.0, 0.0, 0.0),
              *(tuple(rng.uniform(-3.0, 3.0, size=3)) for _ in range(3))]
    return fields, points


def test_jet_contains_all_indices(field):
    """Every entry of the array-built jet is the scalar derivative, sign
    of zero included, for every order, on random fields and fields with
    negative and zero frequencies, at several points."""
    fields, points = derivative_test_fields(field)
    for fld in fields:
        for point in points:
            for order in range(MAX_JET_ORDER + 1):
                jet = analytic_jet(fld, point, order)
                want = [fld.derivative(alpha, tuple(map(float, point)))
                        for alpha in multi_indices(order)]
                got = [jet[alpha] for alpha in multi_indices(order)]
                assert all(map(same_float, got, want)), (fld, point, order)
                assert len(jet.vector) == len(want) + 1
                assert jet.vector.tolist() == [*want, 1.0]
                assert not jet.vector.flags.writeable
    jet = analytic_jet(field, POINT, 4)
    for alpha in ((5, 0, 0), (0, MAX_JET_ORDER + 1, 0)):
        with pytest.raises(JetOrderError):
            jet[alpha]


def test_batch_jets_equal_single_jets(field):
    """A jet built in a batch equals analytic_jet at its point bit for
    bit, in a batch of many points, one with a repeated point and a
    batch of one."""
    fields, points = derivative_test_fields(field)
    points = [tuple(map(float, p)) for p in points]
    batches = [points, [points[2], points[0], points[2]], points[3:4]]
    for fld in fields:
        for order in range(MAX_JET_ORDER + 1):
            for batch in batches:
                built = analytic_jets(fld, batch, order)
                assert len(built) == len(batch)
                for point, jet in zip(batch, built):
                    single = analytic_jet(fld, point, order)
                    assert jet.point == point and jet.order == order
                    assert np.array_equal(jet.vector, single.vector)
                    assert all(map(same_float, jet.vector.tolist(),
                                   single.vector.tolist()))
                    assert len(jet.vector) == len(single.vector)
                    assert not jet.vector.flags.writeable


def test_batch_marks_non_finite_jets():
    """A jet whose sum overflows is None in a batch, at its own point
    only, and analytic_jet raises for it."""
    twice = AnalyticField.from_terms([(1.0e308, 0.0, 1.0, 0.0, 0.0)] * 2)
    peak, low = (0.0, 0.5 * math.pi, 0.0), (0.0, 0.1, 0.0)
    with np.errstate(over="ignore"):
        at_peak, at_low = analytic_jets(twice, [peak, low], 0)
    assert at_peak is None
    assert at_low[(0, 0, 0)] == twice.derivative((0, 0, 0), low)
    with pytest.raises(ValueError, match="non-finite"), \
            np.errstate(over="ignore"):
        analytic_jet(twice, peak, 0)


def test_jet_values_are_read_only(field):
    jet = analytic_jet(field, POINT, 2)
    with pytest.raises(TypeError):
        jet[(0, 0, 0)] = 0.0
    assert jet[(0, 0, 0)] == field.derivative((0, 0, 0), POINT)
    given = np.array([1.0, 2.0, 3.0, 4.0, 1.0])
    built = Jet(order=1, point=POINT, vector=given)
    assert built.vector is given
    for vector in (jet.vector, built.vector):
        with pytest.raises(ValueError):
            vector[0] = 0.0
    assert built.vector.tolist() == [1.0, 2.0, 3.0, 4.0, 1.0]
    assert [built[alpha] for alpha in multi_indices(1)] == [1.0, 2.0, 3.0, 4.0]
    assert type(built[(0, 1, 0)]) is float


@pytest.mark.parametrize("vector", [
    [1.0, 2.0, 3.0, 4.0],  # no padding
    [1.0, 2.0, 3.0, 4.0, 5.0, 1.0],  # an order-2 jet's first entries
    [1.0, 2.0, 3.0, 4.0, 0.0],  # padding other than 1.0
])
def test_jet_rejects_a_wrong_length(vector):
    with pytest.raises(ValueError, match="order 1 needs 4 entries"):
        Jet(order=1, point=POINT, vector=np.array(vector))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_jet_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Jet(order=1, point=POINT, vector=np.array([1.0, bad, 3.0, 4.0, 1.0]))


def test_no_jet_is_built_around_its_constructor():
    """No module reads a jet's entries other than through the jet, or
    makes a jet without Jet's checks."""
    bypass = re.compile(r"object\.__new__|\b(?:z|jet|\w+_jet|jet\([^)]*\))"
                        r"\.values\b")
    for path in pathlib.Path(betaplane.__file__).parent.glob("*.py"):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not bypass.search(line), f"{path.name}:{number}: {line}"


# The functools caches allowed no bound, each with the key domain that
# bounds it instead.
UNBOUNDED_CACHES = {
    # one Workspace per grid a process builds
    "betaplane.spectral.workspace",
    # one polynomial per k < MAX_JET_ORDER
    "betaplane.invariants._frame_f_poly",
    "betaplane.invariants._frame_h_poly",
    # one polynomial per alpha with |alpha| <= MAX_JET_ORDER
    "betaplane.invariants._invariant_poly",
}


def functools_caches():
    """Every functools cache defined in a betaplane module, at module
    level or in a class body, by qualified name."""
    caches = {}
    for info in pkgutil.iter_modules(betaplane.__path__):
        module = importlib.import_module(f"betaplane.{info.name}")
        owners = [(module.__name__, vars(module))]
        owners += [(f"{module.__name__}.{name}", vars(cls))
                   for name, cls in vars(module).items()
                   if isinstance(cls, type)
                   and cls.__module__ == module.__name__]
        for prefix, namespace in owners:
            for name, obj in namespace.items():
                if (callable(getattr(obj, "cache_parameters", None))
                        and obj.__module__ == module.__name__):
                    caches[f"{prefix}.{name}"] = obj
    return caches


def test_jet_cache_is_bounded():
    """Every functools cache holds at most 64 entries, except the listed
    ones whose keys come from a small finite set."""
    caches = functools_caches()
    assert "betaplane.jets._graded_indices" in caches
    assert UNBOUNDED_CACHES <= set(caches)
    for name, cache in caches.items():
        maxsize = cache.cache_parameters()["maxsize"]
        if name in UNBOUNDED_CACHES:
            assert maxsize is None, name
        else:
            assert maxsize is not None and maxsize <= 64, name


def test_field_hash_is_the_terms_hash(field):
    twin = AnalyticField.from_terms(field.terms)
    assert twin == field and twin is not field
    assert hash(twin) == hash(field) == hash(field.terms)


def test_jet_order_cap(field):
    with pytest.raises(JetOrderError):
        analytic_jet(field, POINT, MAX_JET_ORDER + 1)


def test_shortest_wavelength(field):
    fmax = max(
        max(abs(om), abs(ka), abs(la)) for _, om, ka, la, _ in field.terms
    )
    assert field.shortest_wavelength() == pytest.approx(2.0 * np.pi / fmax)
    # computed once per field and kept on it
    assert field.shortest_wavelength() is field.shortest_wavelength()


# -- TimeFunction -----------------------------------------------------------


def test_time_function_evaluation_and_derivatives():
    # f(t) = 1 + 2t + 3t^2
    f = TimeFunction((1.0, 2.0, 3.0))
    assert f(0.5) == pytest.approx(1.0 + 1.0 + 0.75)
    assert f.derivative(1, 0.5) == pytest.approx(2.0 + 3.0)
    assert f.derivative(2, 0.5) == pytest.approx(6.0)
    assert f.derivative(3, 0.5) == 0.0


def test_time_function_from_taylor():
    f = TimeFunction.from_taylor(1.5, [2.0, -1.0, 4.0])
    assert f(1.5) == pytest.approx(2.0)
    assert f.derivative(1, 1.5) == pytest.approx(-1.0)
    assert f.derivative(2, 1.5) == pytest.approx(4.0)


def test_time_function_affine_argument():
    f = TimeFunction((0.0, 1.0, 2.0))  # t + 2t^2
    g = f.affine_argument(3.0, 0.5)  # g(s) = f(3s + 0.5)
    for s in (-1.0, 0.0, 0.7):
        assert g(s) == pytest.approx(f(3.0 * s + 0.5))


def test_time_function_algebra():
    f = TimeFunction((1.0, 2.0))
    g = TimeFunction((0.5, -1.0, 3.0))
    for t in (-0.3, 1.2):
        assert (f + g)(t) == pytest.approx(f(t) + g(t))
        assert (2.5 * f)(t) == pytest.approx(2.5 * f(t))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
    st.floats(-1.0, 1.0),
)
def test_time_function_derivative_consistency(coeffs, t):
    """d/dt of the polynomial matches the finite difference of itself."""
    f = TimeFunction(tuple(coeffs))
    fd = central_fd(f, t, h=1e-6)
    assert f.derivative(1, t) == pytest.approx(fd, rel=1e-5, abs=1e-5)


# -- JetPoly ---------------------------------------------------------------


def test_jp_eval_constant_and_coord(field):
    jet = analytic_jet(field, POINT, 2)
    assert jp_eval(jp_const(3.5), jet) == 3.5
    assert jp_eval(jp_coord((0, 1, 0)), jet) == field.derivative((0, 1, 0), POINT)


def test_jp_mul_matches_product(field):
    jet = analytic_jet(field, POINT, 2)
    p = jp_add(jp_coord((0, 1, 0)), jp_const(2.0))
    q = jp_add(jp_coord((0, 0, 1)), jp_coord((0, 1, 0)))
    lhs = jp_eval(jp_mul(p, q), jet)
    rhs = jp_eval(p, jet) * jp_eval(q, jet)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_jp_pow(field):
    jet = analytic_jet(field, POINT, 2)
    p = jp_add(jp_coord((0, 0, 0)), jp_const(1.0))
    assert jp_eval(jp_pow(p, 3), jet) == pytest.approx(
        jp_eval(p, jet) ** 3, rel=1e-13
    )


@pytest.mark.parametrize("direction", range(3))
def test_total_derivative_is_chain_rule(field, direction):
    """D_j of a polynomial evaluated on jets equals the FD of the
    evaluation along the corresponding coordinate."""
    p = jp_mul(ZETA, jp_coord((0, 1, 0)))  # zeta * psi_x
    dp = jp_total_derivative(p, direction)

    def value_at(s):
        pt = list(POINT)
        pt[direction] = s
        return jp_eval(p, analytic_jet(field, pt, 3))

    fd = central_fd(value_at, POINT[direction])
    exact = jp_eval(dp, analytic_jet(field, POINT, 4))
    assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_total_derivative_product_rule():
    p = jp_coord((0, 1, 0))
    q = jp_coord((0, 0, 1))
    lhs = jp_total_derivative(jp_mul(p, q), 1)
    rhs = jp_add(
        jp_mul(jp_total_derivative(p, 1), q),
        jp_mul(p, jp_total_derivative(q, 1)),
    )
    assert lhs == rhs


def test_jp_order():
    assert jp_order(jp_const(2.0)) == 0
    assert jp_order(zeta_derivative(1, 2, 0)) == 5


def test_material_operator_matches_composition(field):
    """(D_t - psi_y D_x) zeta evaluated on jets equals the explicit
    combination of total derivatives."""
    jet = analytic_jet(field, POINT, 3)
    lhs = jp_eval(material_operator(ZETA), jet)
    rhs = jp_eval(jp_total_derivative(ZETA, 0), jet) - field.derivative(
        (0, 0, 1), POINT
    ) * jp_eval(jp_total_derivative(ZETA, 1), jet)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_compiled_poly_equals_jp_eval(field):
    """The compiled form is == jp_eval, signed zeros included, for
    constants, the empty polynomial and mixed-degree products."""
    jet = analytic_jet(field, POINT, 4)
    polys = [
        {},
        jp_const(2.5),
        {(): -0.0},
        jp_coord((0, 1, 0)),
        jp_pow(jp_add(ZETA, jp_const(-1.0)), 3),
        jp_mul(zeta_derivative(0, 1, 1), jp_add(jp_coord((1, 0, 0)), ZETA)),
    ]
    for p in polys:
        (got,) = jp_compile(p).evaluate(jet).tolist()
        assert same_float(got, jp_eval(p, jet))
    # compiled together, shorter polynomials padded with zero monomials
    together = jp_compile(*polys).evaluate(jet).tolist()
    assert all(map(same_float, together, [jp_eval(p, jet) for p in polys]))
    with pytest.raises(JetOrderError):
        jp_compile(zeta_derivative(1, 2, 0)).evaluate(jet)
