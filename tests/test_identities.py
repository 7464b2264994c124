"""Syzygies, commutation relations and generator representations of the
invariant derivative algebra, evaluated by flattened finite differences
on exact jets."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from betaplane import run
from betaplane.identities import (
    IDENTITIES,
    IDENTITY_IDS,
    DomainConditionError,
    Neighbourhood,
    StencilCrossingError,
    central_difference,
    check_syzygy,
    invariant_function,
    richardson3,
)
from betaplane.jets import AnalyticField

TOL = 1e-6

BRANCH_FREE = (
    "syzygy_4",
    "commutator_tx",
    "commutator_ty",
    "commutator_xy",
    "representation_I011",
    "representation_I110",
    "representation_I002",
)


def sample_point(field, rng, sign=1.0, min_abs=0.3, tries=2000):
    for _ in range(tries):
        point = tuple(rng.uniform(-3.0, 3.0, size=3))
        if sign * field.derivative((0, 1, 0), point) >= min_abs:
            return point
    raise AssertionError("no admissible sample point found")


@pytest.mark.parametrize("identity", IDENTITY_IDS)
def test_identities_hold_on_positive_branch(identity):
    rng = np.random.default_rng(hash(identity) % 2**32)
    checked = 0
    for _ in range(8):
        field = AnalyticField.random(rng)
        for _ in range(4):
            point = sample_point(field, rng)
            try:
                res = check_syzygy(identity, Neighbourhood(field, point))
            except DomainConditionError:
                continue
            assert res <= TOL, (identity, point, res)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("identity", BRANCH_FREE)
def test_sign_carrying_identities_hold_on_negative_branch(identity):
    rng = np.random.default_rng(1000 + hash(identity) % 2**16)
    checked = 0
    for _ in range(8):
        field = AnalyticField.random(rng)
        for _ in range(3):
            point = sample_point(field, rng, sign=-1.0)
            try:
                res = check_syzygy(identity, Neighbourhood(field, point))
            except DomainConditionError:
                continue
            assert res <= TOL, (identity, point, res)
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize(
    "identity", ["syzygy_1", "syzygy_2", "syzygy_3", "syzygy_5", "syzygy_6"]
)
def test_printed_syzygies_restricted_to_positive_branch(identity):
    """The recurrence-based syzygies carry an implicit sign of psi_x;
    evaluating them where psi_x < 0 is a domain error, not a failure."""
    rng = np.random.default_rng(77)
    field = AnalyticField.random(rng)
    point = sample_point(field, rng, sign=-1.0)
    with pytest.raises(DomainConditionError):
        check_syzygy(identity, Neighbourhood(field, point))


def test_unknown_identity_name():
    rng = np.random.default_rng(0)
    field = AnalyticField.random(rng)
    with pytest.raises(ValueError):
        check_syzygy("syzygy_99", Neighbourhood(field, (0.0, 0.0, 0.0)))


def near_zero_point(field, rng):
    """A point where psi_x ~ 0, bisected along x between points where
    psi_x has opposite signs."""
    lo = sample_point(field, rng, sign=-1.0)
    t, _, y = lo
    a = lo[1]
    b = None
    for _ in range(4000):
        x = rng.uniform(-3.0, 3.0)
        if field.derivative((0, 1, 0), (t, x, y)) > 0.3:
            b = x
            break
    assert b is not None
    for _ in range(80):
        mid = 0.5 * (a + b)
        if field.derivative((0, 1, 0), (t, mid, y)) < 0.0:
            a = mid
        else:
            b = mid
    return (t, 0.5 * (a + b), y)


def test_stencil_crossing_detected():
    """A point where psi_x ~ 0 puts the FD stencil across the branch cut;
    the error comes again when the record is warm from the first try."""
    rng = np.random.default_rng(3)
    field = AnalyticField.random(rng)
    nb = Neighbourhood(field, near_zero_point(field, rng))
    for _ in ("cold", "warm"):
        with pytest.raises((StencilCrossingError, DomainConditionError)):
            check_syzygy("commutator_xy", nb)


@pytest.mark.parametrize("terms, error, match", [
    # psi_x is 0.0 everywhere: the operator coefficients do not exist
    ([(1.0, 0.5, 0.0, 0.7, 0.3)], StencilCrossingError, "vanishes"),
    # psi overflows around x = pi/2: the jets there are not finite
    ([(1.0e308, 0.0, 1.0, 0.0, 0.0)] * 2, ValueError, "non-finite"),
])
def test_errors_recur_on_a_warm_record(terms, error, match):
    """An error met at a base point is raised by every check there, the
    first with a fresh record and the next with the same record warm."""
    field = AnalyticField.from_terms(terms)
    with np.errstate(over="ignore"):
        nb = Neighbourhood(field, (0.0, 0.5 * math.pi, 0.0))
        for _ in ("cold", "warm"):
            for identity in ("commutator_tx", "representation_I002"):
                with pytest.raises(error, match=match):
                    check_syzygy(identity, nb)


def test_repeat_certify_runs_skip_the_same_points(tmp_path, monkeypatch):
    """Every identity skips a near-zero base point, and a second certify
    run in the same process skips the same points and writes the same
    bytes: no state left by the first run turns a skipped point into a
    residual row."""
    admissible = run.sample_admissible_point
    calls = []

    def admissible_then_near_zero(field, rng):
        calls.append(field)
        if len(calls) % 2:
            return admissible(field, rng)
        return near_zero_point(field, rng)

    monkeypatch.setattr(run, "sample_admissible_point",
                        admissible_then_near_zero)
    tables, skips = [], []
    for tag in ("first", "second"):
        skipped = Counter()
        run.certify_invariants(tmp_path / f"{tag}.csv", n_fields=1,
                               n_points=2, seed=3, skipped=skipped)
        tables.append((tmp_path / f"{tag}.csv").read_bytes())
        skips.append(skipped)
    assert tables[0] == tables[1]
    assert skips[0] == skips[1] == Counter(dict.fromkeys(IDENTITY_IDS, 1))


def test_sample_admissible_point_gives_up():
    """A field with psi_x = 0 everywhere has no admissible point."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="2000 draws"):
        run.sample_admissible_point(AnalyticField(()), rng)


def test_invariant_derivative_linearity():
    rng = np.random.default_rng(4)
    field = AnalyticField.random(rng)
    nb = Neighbourhood(field, sample_point(field, rng))
    i020 = invariant_function((0, 2, 0))
    i002 = invariant_function((0, 0, 2))

    def combo(fld, pt):
        return 2.0 * i020(fld, pt) - 3.0 * i002(fld, pt)

    for direction in ("t", "x", "y"):
        lhs = nb.derivative(combo, direction)
        rhs = (2.0 * nb.derivative(i020, direction)
               - 3.0 * nb.derivative(i002, direction))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(5)
    field = AnalyticField.random(rng)
    nb = Neighbourhood(field, sample_point(field, rng))
    i020 = invariant_function((0, 2, 0))
    ab = nb.commutator("x", "y", i020)
    ba = nb.commutator("y", "x", i020)
    assert ab == pytest.approx(-ba, rel=1e-10, abs=1e-12)


def test_unknown_direction_rejected():
    """Every invariant derivative rejects a direction other than t, x
    or y, in either slot."""
    rng = np.random.default_rng(5)
    field = AnalyticField.random(rng)
    nb = Neighbourhood(field, sample_point(field, rng))
    i020 = invariant_function((0, 2, 0))
    calls = [
        lambda: nb.derivative(i020, "z"),
        lambda: nb.second_derivative(i020, "z", "x"),
        lambda: nb.second_derivative(i020, "x", "z"),
        lambda: nb.commutator("z", "x", i020),
        lambda: nb.commutator("x", "z", i020),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="direction"):
            call()


def test_second_derivative_symmetric_part_consistency():
    """D^i_a D^i_b - D^i_b D^i_a equals the directly evaluated
    commutator (the two independent implementations agree)."""
    rng = np.random.default_rng(6)
    field = AnalyticField.random(rng)
    nb = Neighbourhood(field, sample_point(field, rng))
    i020 = invariant_function((0, 2, 0))
    for d1, d2 in (("t", "x"), ("x", "y"), ("t", "y")):
        diff = (nb.second_derivative(i020, d1, d2)
                - nb.second_derivative(i020, d2, d1))
        comm = nb.commutator(d1, d2, i020)
        assert diff == pytest.approx(comm, rel=1e-4, abs=1e-6)


def test_registry_complete():
    assert set(IDENTITIES) == {
        "syzygy_1", "syzygy_2", "syzygy_3", "syzygy_4", "syzygy_5",
        "syzygy_6", "commutator_tx", "commutator_ty", "commutator_xy",
        "representation_I011", "representation_I110", "representation_I002",
    }


def test_central_difference_is_richardson_of_central_quotients():
    """The shared helper keeps the exact arithmetic of the quotients
    (fn(p + s e_i) - fn(p - s e_i)) / 2s,
    (fn(p + s e_i) - 2 fn(p) + fn(p - s e_i)) / s^2 and
    (fn(p + s e_i + s e_j) - fn(p + s e_i - s e_j)
     - fn(p - s e_i + s e_j) + fn(p - s e_i - s e_j)) / 4s^2
    at s = h, h/2, h/4, so the certification tables do not change by a
    bit."""

    def fn(q):
        return math.sin(q[0]) * q[1] ** 3 + math.exp(q[2]) * q[0] * q[1]

    def at(moves):
        q = list(point)
        for d, s in moves:
            q[d] = point[d] + s
        return fn(q)

    def first(i, s):
        return (at([(i, s)]) - at([(i, -s)])) / (2.0 * s)

    def second(i, j, s):
        if i == j:
            return (at([(i, s)]) - 2.0 * fn(point) + at([(i, -s)])) / s**2
        pp = at([(i, s), (j, s)])
        pm = at([(i, s), (j, -s)])
        mp = at([(i, -s), (j, s)])
        mm = at([(i, -s), (j, -s)])
        return (pp - pm - mp + mm) / (4.0 * s**2)

    point, h = (0.3, -0.7, 0.2), 1.0e-3
    steps = (h, 0.5 * h, 0.25 * h)
    for i in range(3):
        want = richardson3(tuple(first(i, s) for s in steps))
        assert central_difference(fn, point, (i,), h) == want
        for j in range(3):
            want = richardson3(tuple(second(i, j, s) for s in steps))
            assert central_difference(fn, point, (i, j), h) == want
