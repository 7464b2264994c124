"""Invariant differentiation and the syzygy/commutator certification.

Invariant expressions are callables (field, point) -> float built from
normalized invariants of exact analytic jets. The operators

    D^i_t = (D_t - psi_y D_x)/sqrt|psi_x|,
    D^i_x = sqrt|psi_x| D_x,
    D^i_y = sqrt|psi_x| D_y

are evaluated by combining total derivatives of the expression, each
computed by central differences with one Richardson extrapolation level
on exact jets at the displaced points. Second-order operators are
flattened into coefficient functions times first and second total
derivatives rather than nesting FD inside FD, which keeps the noise of
the inner differences from being re-divided by the step.

The printed syzygies hold on the branch psi_x > 0; continuing them to
psi_x < 0 introduces sgn(psi_x) factors that the commutation relations
and generator representations carry explicitly but the syzygy list does
not, so the syzygy checks reject points with psi_x < 0.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .invariants import normalized_invariant
from .jets import Alpha, AnalyticField

Point = tuple[float, float, float]
InvariantExpression = Callable[[AnalyticField, Point], float]

# Base FD step as a fraction of the field's shortest wavelength. Chosen
# so the O(h^4) truncation of the Richardson-extrapolated differences
# stays below 1e-7 on unit-scale trigonometric fields while the roundoff
# contribution (machine epsilon over h^2) remains negligible.
FD_H_SCALE = 5.0e-4

_DIRECTIONS = {"t": 0, "x": 1, "y": 2}
_BRANCH_SENSITIVE = frozenset(
    {"syzygy_1", "syzygy_2", "syzygy_3", "syzygy_5", "syzygy_6"}
)


class StencilCrossingError(ValueError):
    """psi_x changes sign inside the FD stencil."""


class DomainConditionError(ValueError):
    """A domain condition of the requested identity fails at the point."""


def invariant_function(alpha: Alpha) -> InvariantExpression:
    """The normalized invariant I_alpha as an invariant expression."""
    alpha = tuple(alpha)
    order = sum(alpha)

    def expr(field: AnalyticField, point: Point) -> float:
        return normalized_invariant(field.jet(point, order), alpha)

    return expr


def _displaced(point: Point, steps) -> Point:
    return tuple(p + s for p, s in zip(point, steps))


def _shift(direction: int, step: float):
    s = [0.0, 0.0, 0.0]
    s[direction] = step
    return tuple(s)


# psi_x and the operator coefficients are entries of the order-2 jet,
# which the I_alpha expressions at the same points read from the cache
def _psi_x(field: AnalyticField, point: Point) -> float:
    return field.jet(point, 2).values[0, 1, 0]


def _sign_psi_x(field: AnalyticField, point: Point) -> float:
    return math.copysign(1.0, _psi_x(field, point))


def _check_stencil(field: AnalyticField, point: Point, offsets) -> None:
    s0 = _sign_psi_x(field, point)
    for off in offsets:
        if _sign_psi_x(field, _displaced(point, off)) != s0:
            raise StencilCrossingError(
                f"psi_x changes sign within the FD stencil at {point}"
            )


def richardson3(samples: tuple[float, float, float]) -> float:
    """Two-stage Richardson extrapolation of second-order estimates at
    steps h, h/2, h/4: cancels the h^2 and h^4 error terms."""
    c_h, c_h2, c_h4 = samples
    r1 = (4.0 * c_h2 - c_h) / 3.0
    r2 = (4.0 * c_h4 - c_h2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def central_difference(fn: Callable[[Point], float], point: Point,
                       direction: int, h: float) -> float:
    """d fn / d point[direction]: Richardson over central differences
    with steps h, h/2 and h/4."""

    def central(step: float) -> float:
        plus = list(point)
        minus = list(point)
        plus[direction] += step
        minus[direction] -= step
        return (fn(tuple(plus)) - fn(tuple(minus))) / (2.0 * step)

    return richardson3((central(h), central(0.5 * h), central(0.25 * h)))


# The identities at one point ask for the same D_j of the same few
# expressions, a dozen or so keys per point. lru_cache does not store
# exceptions, so a stencil that crosses psi_x = 0 raises on every call.
@functools.lru_cache(maxsize=64)
def _total_fd(field: AnalyticField, expr: InvariantExpression, point: Point,
              direction: int, h: float) -> float:
    """First total derivative of an invariant expression."""
    _check_stencil(
        field, point, [_shift(direction, s) for s in (-h, -0.5 * h, 0.5 * h, h)]
    )
    return central_difference(lambda q: expr(field, q), point, direction, h)


def _total_fd2(field: AnalyticField, expr: InvariantExpression, point: Point,
               i: int, j: int, h: float) -> float:
    """Second total derivative d^2/di dj, Richardson over central stencils."""
    if i == j:
        offsets = [_shift(i, s) for s in (-h, -0.5 * h, 0.5 * h, h)]
        _check_stencil(field, point, offsets)
        f0 = expr(field, point)

        def second(step: float) -> float:
            plus = expr(field, _displaced(point, _shift(i, step)))
            minus = expr(field, _displaced(point, _shift(i, -step)))
            return (plus - 2.0 * f0 + minus) / step**2

    else:
        offsets = [
            _displaced(_shift(i, si), _shift(j, sj))
            for s in (h, 0.5 * h)
            for si in (-s, s)
            for sj in (-s, s)
        ]
        _check_stencil(field, point, offsets)

        def second(step: float) -> float:
            pp = expr(field, _displaced(point, _displaced(_shift(i, step), _shift(j, step))))
            pm = expr(field, _displaced(point, _displaced(_shift(i, step), _shift(j, -step))))
            mp = expr(field, _displaced(point, _displaced(_shift(i, -step), _shift(j, step))))
            mm = expr(field, _displaced(point, _displaced(_shift(i, -step), _shift(j, -step))))
            return (pp - pm - mp + mm) / (4.0 * step**2)

    return richardson3((second(h), second(0.5 * h), second(0.25 * h)))


def _operator_coefficients(field: AnalyticField, direction: str, point: Point):
    """Coefficients a_j with D^i = sum_j a_j D_j, and their exact total
    derivatives da[i][j] = D_i a_j at the point."""
    jet = field.jet(point, 2).values
    psi_x = jet[0, 1, 0]
    if psi_x == 0.0:
        raise StencilCrossingError(f"psi_x vanishes at {point}")
    eps = math.copysign(1.0, psi_x)
    root = math.sqrt(abs(psi_x))
    # D_i |psi_x|^{1/2} and D_i |psi_x|^{-1/2} via the chain rule
    dpsi_x = [jet[1, 1, 0], jet[0, 2, 0], jet[0, 1, 1]]
    d_root = [eps * d / (2.0 * root) for d in dpsi_x]
    d_inv_root = [-eps * d / (2.0 * root**3) for d in dpsi_x]

    if direction == "x":
        return [0.0, root, 0.0], [[0.0, d_root[i], 0.0] for i in range(3)]
    if direction == "y":
        return [0.0, 0.0, root], [[0.0, 0.0, d_root[i]] for i in range(3)]
    psi_y = jet[0, 0, 1]
    dpsi_y = [jet[1, 0, 1], jet[0, 1, 1], jet[0, 0, 2]]
    a = [1.0 / root, -psi_y / root, 0.0]
    da = [
        [d_inv_root[i], -d_inv_root[i] * psi_y - dpsi_y[i] / root, 0.0]
        for i in range(3)
    ]
    return a, da


def invariant_derivative(field: AnalyticField, expr: InvariantExpression,
                         direction: str, point: Point,
                         h: float | None = None) -> float:
    """Apply D^i_t, D^i_x or D^i_y to an invariant expression at a point."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of t, x, y, got {direction!r}")
    if h is None:
        h = FD_H_SCALE * field.shortest_wavelength()
    a, _ = _operator_coefficients(field, direction, point)
    total = 0.0
    for j, aj in enumerate(a):
        if aj:
            total += aj * _total_fd(field, expr, point, j, h)
    return total


def invariant_second_derivative(field: AnalyticField, expr: InvariantExpression,
                                d1: str, d2: str, point: Point,
                                h: float | None = None) -> float:
    """D^i_{d1} D^i_{d2} expr, flattened to exact operator coefficients
    times first and second total derivatives of the expression."""
    if h is None:
        h = FD_H_SCALE * field.shortest_wavelength()
    a, _ = _operator_coefficients(field, d1, point)
    b, db = _operator_coefficients(field, d2, point)
    first: dict[int, float] = {}

    def fd1(j: int) -> float:
        if j not in first:
            first[j] = _total_fd(field, expr, point, j, h)
        return first[j]

    total = 0.0
    for i in range(3):
        if not a[i]:
            continue
        for j in range(3):
            if db[i][j]:
                total += a[i] * db[i][j] * fd1(j)
            if b[j]:
                total += a[i] * b[j] * _total_fd2(field, expr, point, i, j, h)
    return total


def commutator_value(field: AnalyticField, d1: str, d2: str,
                     expr: InvariantExpression, point: Point,
                     h: float | None = None) -> float:
    """[D^i_{d1}, D^i_{d2}] expr at the point.

    The mixed second total derivatives cancel in the commutator, so only
    first total derivatives of the expression appear, with exact
    coefficients a_i D_i b_j - b_i D_i a_j.
    """
    if h is None:
        h = FD_H_SCALE * field.shortest_wavelength()
    a, da = _operator_coefficients(field, d1, point)
    b, db = _operator_coefficients(field, d2, point)
    coeff = [
        sum(a[i] * db[i][j] - b[i] * da[i][j] for i in range(3))
        for j in range(3)
    ]
    total = 0.0
    for j, cj in enumerate(coeff):
        if cj:
            total += cj * _total_fd(field, expr, point, j, h)
    return total


_I110 = invariant_function((1, 1, 0))
_I020 = invariant_function((0, 2, 0))
_I011 = invariant_function((0, 1, 1))
_I002 = invariant_function((0, 0, 2))


def _require_positive_branch(identity: str, field, point) -> None:
    if _psi_x(field, point) < 0.0:
        raise DomainConditionError(
            f"{identity} is stated on the branch psi_x > 0; "
            f"psi_x < 0 at {point}"
        )


def _product(a: InvariantExpression, b: InvariantExpression) -> InvariantExpression:
    return lambda field, point: a(field, point) * b(field, point)


def _syzygy_1(field, point):
    lhs = invariant_derivative(field, _I011, "t", point) - invariant_derivative(
        field, _I110, "y", point
    )
    rhs = _I110(field, point) * _I011(field, point) + _I020(field, point) * _I002(
        field, point
    )
    return lhs, rhs


def _syzygy_2(field, point):
    lhs = invariant_derivative(field, _I020, "t", point) - invariant_derivative(
        field, _I110, "x", point
    )
    rhs = _I020(field, point) * (_I110(field, point) + _I011(field, point))
    return lhs, rhs


def _syzygy_3(field, point):
    lhs = invariant_derivative(field, _I011, "y", point) - invariant_derivative(
        field, _I002, "x", point
    )
    i020, i002, i011 = _I020(field, point), _I002(field, point), _I011(field, point)
    return lhs, 0.5 * i020 * i002 - 0.5 * i011**2


def _syzygy_4(field, point):
    lhs = invariant_derivative(field, _I011, "x", point) - invariant_derivative(
        field, _I020, "y", point
    )
    return lhs, 0.0


def _syzygy_5(field, point):
    lhs = invariant_second_derivative(
        field, _I110, "y", "y", point
    ) - invariant_second_derivative(field, _I002, "t", "x", point)
    i011, i002 = _I011(field, point), _I002(field, point)
    i020 = _I020(field, point)

    def mixed(fld, pt):
        return 1.5 * _I110(fld, pt) * _I011(fld, pt) + _I020(fld, pt) * _I002(fld, pt)

    rhs = (
        0.5 * (
            invariant_derivative(field, _product(_I020, _I002), "t", point)
            - i011 * i020 * i002
        )
        - (invariant_derivative(field, mixed, "y", point) + i011 * mixed(field, point))
        - i011 * invariant_derivative(field, _I110, "y", point)
        - i002 * invariant_derivative(field, _I020, "y", point)
    )
    return lhs, rhs


def _syzygy_6(field, point):
    lhs = invariant_second_derivative(
        field, _I020, "y", "y", point
    ) - invariant_second_derivative(field, _I002, "x", "x", point)
    rhs = 0.5 * invariant_derivative(
        field, _product(_I020, _I002), "x", point
    ) - 0.5 * invariant_derivative(field, _product(_I011, _I020), "y", point)
    return lhs, rhs


def _commutator_identity(d1: str, d2: str):
    """Commutation relation evaluated on the generator I_020."""

    def check(field, point):
        eps = _sign_psi_x(field, point)
        lhs = commutator_value(field, d1, d2, _I020, point)
        dt = invariant_derivative(field, _I020, "t", point)
        dx = invariant_derivative(field, _I020, "x", point)
        dy = invariant_derivative(field, _I020, "y", point)
        i110, i020 = _I110(field, point), _I020(field, point)
        i011, i002 = _I011(field, point), _I002(field, point)
        if (d1, d2) == ("t", "x"):
            rhs = 0.5 * eps * i020 * dt + (i011 + 0.5 * eps * i110) * dx
        elif (d1, d2) == ("t", "y"):
            rhs = 0.5 * eps * i011 * dt + i002 * dx + 0.5 * eps * i110 * dy
        elif (d1, d2) == ("x", "y"):
            rhs = 0.5 * eps * i020 * dy - 0.5 * eps * i011 * dx
        else:  # pragma: no cover
            raise ValueError((d1, d2))
        return lhs, rhs

    return check


def _require_domain(field, point, threshold: float = 1.0e-6) -> float:
    denom = invariant_derivative(field, _I020, "x", point)
    if abs(denom) < threshold:
        raise DomainConditionError(
            f"D^i_x I_020 = {denom:.3e} too close to zero at {point}"
        )
    return denom


def _rep_i011(field, point):
    denom = _require_domain(field, point)
    eps = _sign_psi_x(field, point)
    i020 = _I020(field, point)
    dy = invariant_derivative(field, _I020, "y", point)
    comm_xy = commutator_value(field, "x", "y", _I020, point)
    rep = (i020 * dy - 2.0 * eps * comm_xy) / denom
    return rep, _I011(field, point)


def _rep_i110(field, point):
    denom = _require_domain(field, point)
    eps = _sign_psi_x(field, point)
    i020 = _I020(field, point)
    dt = invariant_derivative(field, _I020, "t", point)
    comm_tx = commutator_value(field, "t", "x", _I020, point)
    rep = (2.0 * eps * comm_tx - i020 * dt) / denom - 2.0 * eps * _I011(field, point)
    return rep, _I110(field, point)


def _rep_i002(field, point):
    denom = _require_domain(field, point)
    eps = _sign_psi_x(field, point)
    dt = invariant_derivative(field, _I020, "t", point)
    dy = invariant_derivative(field, _I020, "y", point)
    comm_ty = commutator_value(field, "t", "y", _I020, point)
    rep = (
        comm_ty / denom
        - 0.5 * eps * (dt / denom) * _I011(field, point)
        - 0.5 * eps * (dy / denom) * _I110(field, point)
    )
    return rep, _I002(field, point)


IDENTITIES = {
    "syzygy_1": _syzygy_1,
    "syzygy_2": _syzygy_2,
    "syzygy_3": _syzygy_3,
    "syzygy_4": _syzygy_4,
    "syzygy_5": _syzygy_5,
    "syzygy_6": _syzygy_6,
    "commutator_tx": _commutator_identity("t", "x"),
    "commutator_ty": _commutator_identity("t", "y"),
    "commutator_xy": _commutator_identity("x", "y"),
    "representation_I011": _rep_i011,
    "representation_I110": _rep_i110,
    "representation_I002": _rep_i002,
}

IDENTITY_IDS = tuple(IDENTITIES)


def check_syzygy(identity: str, field: AnalyticField, point: Point) -> float:
    """|LHS - RHS| of a named syzygy, commutation relation or generator
    representation at the point."""
    try:
        both = IDENTITIES[identity]
    except KeyError:
        raise ValueError(
            f"unknown identity {identity!r}; choose from {IDENTITY_IDS}"
        ) from None
    point = tuple(float(v) for v in point)
    if identity in _BRANCH_SENSITIVE:
        _require_positive_branch(identity, field, point)
    lhs, rhs = both(field, point)
    return abs(lhs - rhs)
