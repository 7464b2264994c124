"""Invariant differentiation and the syzygy/commutator certification.

Invariant expressions are callables (neighbourhood, point) -> float
built from normalized invariants of exact analytic jets, which they read
from the Neighbourhood of the base point being checked. The operators

    D^i_t = (D_t - psi_y D_x)/sqrt|psi_x|,
    D^i_x = sqrt|psi_x| D_x,
    D^i_y = sqrt|psi_x| D_y

are evaluated by combining total derivatives of the expression, each
computed by central differences at steps h, h/2 and h/4 on exact jets
at the displaced points, with two-stage Richardson extrapolation. One
stencil (the point list of `stencil_points`) and one combiner
(`central_difference`) serve every first, pure second and mixed second
difference here and in `conservation`. Second-order operators are
flattened into coefficient functions times first and second total
derivatives rather than nesting FD inside FD, which keeps the noise of
the inner differences from being re-divided by the step.

All the checks at one base point read one Neighbourhood record, which
the caller builds and passes to each check. It builds the order-2 jets
of every stencil point in one pass, and computes the stencil sign
verdicts, the operator coefficients, the normalized invariants and the
total derivatives at most once. Nothing outlives the record: a jet
read outside it is built afresh.

The printed syzygies hold on the branch psi_x > 0; continuing them to
psi_x < 0 introduces sgn(psi_x) factors that the commutation relations
and generator representations carry explicitly but the syzygy list does
not, so the syzygy checks reject points with psi_x < 0.
"""

from __future__ import annotations

import math
from typing import Callable

from .invariants import normalized_invariant
from .jets import Alpha, AnalyticField, Jet, analytic_jets

Point = tuple[float, float, float]
InvariantExpression = Callable[["Neighbourhood", Point], float]

# Base FD step as a fraction of the field's shortest wavelength. Chosen
# so the O(h^6) truncation of the Richardson-extrapolated differences
# stays below 1e-7 on unit-scale trigonometric fields while the roundoff
# contribution (machine epsilon over h^2) remains negligible.
FD_H_SCALE = 5.0e-4

_DIRECTIONS = ("t", "x", "y")
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

    def expr(nb: Neighbourhood, point: Point) -> float:
        return nb.invariant(point, alpha)

    return expr


def richardson3(samples: tuple[float, float, float]) -> float:
    """Two-stage Richardson extrapolation of second-order estimates at
    steps h, h/2, h/4: cancels the h^2 and h^4 error terms."""
    c_h, c_h2, c_h4 = samples
    r1 = (4.0 * c_h2 - c_h) / 3.0
    r2 = (4.0 * c_h4 - c_h2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def stencil_points(point: Point, axes: tuple[int, ...],
                   h: float) -> list[tuple[float, list[Point]]]:
    """The points the central quotients of d/di (axes (i,)), d^2/di^2
    ((i, i)) or d^2/di dj ((i, j)) read besides the point itself, as
    (step, points) for the steps h, h/2 and h/4, in the quotients'
    order: +s then -s along the axis, or the corners (+s, +s), (+s, -s),
    (-s, +s), (-s, -s) of the (i, j) plane."""
    i, j = axes[0], axes[-1]
    groups = []
    for s in (h, 0.5 * h, 0.25 * h):
        moves = ([((i, s),), ((i, -s),)] if i == j
                 else [((i, a), (j, b)) for a in (s, -s) for b in (s, -s)])
        points = []
        for move in moves:
            q = list(point)
            for d, step in move:
                q[d] += step
            points.append(tuple(q))
        groups.append((s, points))
    return groups


def central_difference(fn: Callable[[Point], float], point: Point,
                       axes: tuple[int, ...], h: float,
                       groups: list | None = None) -> float:
    """d fn/di, d^2 fn/di^2 or d^2 fn/di dj at the point (axes as for
    stencil_points): Richardson over the central quotients at steps h,
    h/2 and h/4. A record passes the groups stencil_points(point, axes,
    h) that it keeps."""
    if groups is None:
        groups = stencil_points(point, axes, h)
    values = [(s, [fn(q) for q in points]) for s, points in groups]
    if len(axes) == 1:
        quotients = ((p - m) / (2.0 * s) for s, (p, m) in values)
    elif axes[0] == axes[1]:
        f0 = fn(point)
        quotients = ((p - 2.0 * f0 + m) / s**2 for s, (p, m) in values)
    else:
        quotients = ((pp - pm - mp + mm) / (4.0 * s**2)
                     for s, (pp, pm, mp, mm) in values)
    return richardson3(tuple(quotients))


def _operator_coefficients(jet: Jet, direction: str):
    """Coefficients a_j with D^i = sum_j a_j D_j, and their exact total
    derivatives da[i][j] = D_i a_j at the jet's point."""
    if direction not in _DIRECTIONS:
        raise ValueError(
            f"direction must be one of t, x, y, got {direction!r}")
    psi_x = jet[0, 1, 0]
    if psi_x == 0.0:
        raise StencilCrossingError(f"psi_x vanishes at {jet.point}")
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


class Neighbourhood:
    """What the identity checks read around one base point.

    The point is converted to floats, and the step h is FD_H_SCALE times
    the field's shortest wavelength. The order-2 jets of the centre and
    of the stencils of each axis and of the (t, x) plane are built in
    one pass, and those stencils' point groups are kept for the
    differences and sign checks. A point outside that set, or one whose
    jet is not finite, is built alone by field.jet when read, which
    raises for a non-finite jet. A crossing stencil's verdict is kept,
    so every check of it raises; any other error stores nothing and
    recurs on every call.
    """

    def __init__(self, field: AnalyticField, point: Point):
        self.field = field
        self.point = point = tuple(float(v) for v in point)
        self.h = h = FD_H_SCALE * field.shortest_wavelength()
        self._groups = {axes: stencil_points(point, axes, h)
                        for axes in ((0,), (1,), (2,), (0, 1))}
        points = [point] + [q for groups in self._groups.values()
                            for _, group in groups for q in group]
        self._jets = dict(zip(points, analytic_jets(field, points, 2)))
        self._invariants: dict[tuple[Point, Alpha], float] = {}
        self._crossings: dict[tuple[int, int], bool] = {}
        self._coefficients: dict[str, tuple] = {}
        self._totals: dict[tuple, float] = {}

    def jet(self, point: Point) -> Jet:
        """The order-2 jet at a point."""
        jet = self._jets.get(point)
        return jet if jet is not None else self.field.jet(point, 2)

    def psi_x(self, point: Point) -> float:
        return self.jet(point)[0, 1, 0]

    def sign(self, point: Point) -> float:
        return math.copysign(1.0, self.psi_x(point))

    def invariant(self, point: Point, alpha: Alpha) -> float:
        """The normalized invariant I_alpha at a point."""
        key = point, alpha
        value = self._invariants.get(key)
        if value is None:
            order = sum(alpha)
            jet = self.jet(point) if order <= 2 else self.field.jet(point, order)
            value = self._invariants[key] = normalized_invariant(jet, alpha)
        return value

    def stencil(self, axes: tuple[int, ...]) -> list:
        """stencil_points of the base point for these axes, computed once;
        (i, i) reads the points of (i,)."""
        key = axes[:1] if axes[0] == axes[-1] else axes
        groups = self._groups.get(key)
        if groups is None:
            groups = self._groups[key] = stencil_points(self.point, key,
                                                        self.h)
        return groups

    def value(self, expr: InvariantExpression) -> float:
        """An invariant expression at the base point."""
        return expr(self, self.point)

    def check_stencil(self, i: int, j: int) -> None:
        """Raise StencilCrossingError if psi_x changes sign at the h and
        h/2 points of the stencil of d/di and d^2/di^2 (i == j) or of
        d^2/di dj."""
        key = i, j
        if key not in self._crossings:
            s0 = self.sign(self.point)
            self._crossings[key] = any(
                self.sign(q) != s0
                for _, group in self.stencil(key)[:2]
                for q in group
            )
        if self._crossings[key]:
            raise StencilCrossingError(
                f"psi_x changes sign within the FD stencil at {self.point}"
            )

    def coefficients(self, direction: str):
        """_operator_coefficients of D^i_direction at the base point."""
        found = self._coefficients.get(direction)
        if found is None:
            found = self._coefficients[direction] = _operator_coefficients(
                self.jet(self.point), direction
            )
        return found

    def total(self, expr: InvariantExpression, *axes: int) -> float:
        """Total derivative d/di, d^2/di^2 or d^2/di dj (axes i, (i, i)
        or (i, j)) of an invariant expression."""
        key = expr, axes
        value = self._totals.get(key)
        if value is None:
            self.check_stencil(axes[0], axes[-1])
            value = self._totals[key] = central_difference(
                lambda q: expr(self, q), self.point, axes, self.h,
                self.stencil(axes)
            )
        return value

    def derivative(self, expr: InvariantExpression, direction: str) -> float:
        """D^i_direction of an invariant expression."""
        a, _ = self.coefficients(direction)
        total = 0.0
        for j, aj in enumerate(a):
            if aj:
                total += aj * self.total(expr, j)
        return total

    def second_derivative(self, expr: InvariantExpression, d1: str,
                          d2: str) -> float:
        """D^i_{d1} D^i_{d2} of an invariant expression, flattened to
        exact operator coefficients times first and second total
        derivatives."""
        a, _ = self.coefficients(d1)
        b, db = self.coefficients(d2)
        total = 0.0
        for i in range(3):
            if not a[i]:
                continue
            for j in range(3):
                if db[i][j]:
                    total += a[i] * db[i][j] * self.total(expr, j)
                if b[j]:
                    total += a[i] * b[j] * self.total(expr, i, j)
        return total

    def commutator(self, d1: str, d2: str, expr: InvariantExpression) -> float:
        """[D^i_{d1}, D^i_{d2}] of an invariant expression.

        The mixed second total derivatives cancel in the commutator, so
        only first total derivatives of the expression appear, with
        exact coefficients a_i D_i b_j - b_i D_i a_j.
        """
        a, da = self.coefficients(d1)
        b, db = self.coefficients(d2)
        coeff = [
            sum(a[i] * db[i][j] - b[i] * da[i][j] for i in range(3))
            for j in range(3)
        ]
        total = 0.0
        for j, cj in enumerate(coeff):
            if cj:
                total += cj * self.total(expr, j)
        return total


_I110 = invariant_function((1, 1, 0))
_I020 = invariant_function((0, 2, 0))
_I011 = invariant_function((0, 1, 1))
_I002 = invariant_function((0, 0, 2))


def _require_positive_branch(identity: str, nb: Neighbourhood) -> None:
    if nb.psi_x(nb.point) < 0.0:
        raise DomainConditionError(
            f"{identity} is stated on the branch psi_x > 0; "
            f"psi_x < 0 at {nb.point}"
        )


def _product(a: InvariantExpression, b: InvariantExpression) -> InvariantExpression:
    return lambda nb, point: a(nb, point) * b(nb, point)


# The composite expressions are built once, so the records' first
# total derivatives of them are found again at every call.
_I020_I002 = _product(_I020, _I002)
_I011_I020 = _product(_I011, _I020)


def _mixed(nb: Neighbourhood, point: Point) -> float:
    return 1.5 * _I110(nb, point) * _I011(nb, point) + _I020(nb, point) * _I002(nb, point)


def _syzygy_1(nb):
    lhs = nb.derivative(_I011, "t") - nb.derivative(_I110, "y")
    rhs = nb.value(_I110) * nb.value(_I011) + nb.value(_I020) * nb.value(_I002)
    return lhs, rhs


def _syzygy_2(nb):
    lhs = nb.derivative(_I020, "t") - nb.derivative(_I110, "x")
    rhs = nb.value(_I020) * (nb.value(_I110) + nb.value(_I011))
    return lhs, rhs


def _syzygy_3(nb):
    lhs = nb.derivative(_I011, "y") - nb.derivative(_I002, "x")
    i020, i002, i011 = nb.value(_I020), nb.value(_I002), nb.value(_I011)
    return lhs, 0.5 * i020 * i002 - 0.5 * i011**2


def _syzygy_4(nb):
    lhs = nb.derivative(_I011, "x") - nb.derivative(_I020, "y")
    return lhs, 0.0


def _syzygy_5(nb):
    lhs = nb.second_derivative(_I110, "y", "y") - nb.second_derivative(
        _I002, "t", "x"
    )
    i011, i002 = nb.value(_I011), nb.value(_I002)
    i020 = nb.value(_I020)
    rhs = (
        0.5 * (nb.derivative(_I020_I002, "t") - i011 * i020 * i002)
        - (nb.derivative(_mixed, "y") + i011 * nb.value(_mixed))
        - i011 * nb.derivative(_I110, "y")
        - i002 * nb.derivative(_I020, "y")
    )
    return lhs, rhs


def _syzygy_6(nb):
    lhs = nb.second_derivative(_I020, "y", "y") - nb.second_derivative(
        _I002, "x", "x"
    )
    rhs = 0.5 * nb.derivative(_I020_I002, "x") - 0.5 * nb.derivative(
        _I011_I020, "y"
    )
    return lhs, rhs


def _commutator_identity(d1: str, d2: str):
    """Commutation relation evaluated on the generator I_020."""

    def check(nb):
        eps = nb.sign(nb.point)
        lhs = nb.commutator(d1, d2, _I020)
        dt = nb.derivative(_I020, "t")
        dx = nb.derivative(_I020, "x")
        dy = nb.derivative(_I020, "y")
        i110, i020 = nb.value(_I110), nb.value(_I020)
        i011, i002 = nb.value(_I011), nb.value(_I002)
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


def _require_domain(nb) -> float:
    denom = nb.derivative(_I020, "x")
    if abs(denom) < 1.0e-6:
        raise DomainConditionError(
            f"D^i_x I_020 = {denom:.3e} too close to zero at {nb.point}"
        )
    return denom


def _rep_i011(nb):
    denom = _require_domain(nb)
    eps = nb.sign(nb.point)
    i020 = nb.value(_I020)
    dy = nb.derivative(_I020, "y")
    comm_xy = nb.commutator("x", "y", _I020)
    rep = (i020 * dy - 2.0 * eps * comm_xy) / denom
    return rep, nb.value(_I011)


def _rep_i110(nb):
    denom = _require_domain(nb)
    eps = nb.sign(nb.point)
    i020 = nb.value(_I020)
    dt = nb.derivative(_I020, "t")
    comm_tx = nb.commutator("t", "x", _I020)
    rep = (2.0 * eps * comm_tx - i020 * dt) / denom - 2.0 * eps * nb.value(_I011)
    return rep, nb.value(_I110)


def _rep_i002(nb):
    denom = _require_domain(nb)
    eps = nb.sign(nb.point)
    dt = nb.derivative(_I020, "t")
    dy = nb.derivative(_I020, "y")
    comm_ty = nb.commutator("t", "y", _I020)
    rep = (
        comm_ty / denom
        - 0.5 * eps * (dt / denom) * nb.value(_I011)
        - 0.5 * eps * (dy / denom) * nb.value(_I110)
    )
    return rep, nb.value(_I002)


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


def check_syzygy(identity: str, nb: Neighbourhood) -> float:
    """|LHS - RHS| of a named syzygy, commutation relation or generator
    representation at the record's base point."""
    try:
        both = IDENTITIES[identity]
    except KeyError:
        raise ValueError(
            f"unknown identity {identity!r}; choose from {IDENTITY_IDS}"
        ) from None
    if identity in _BRANCH_SENSITIVE:
        _require_positive_branch(identity, nb)
    lhs, rhs = both(nb)
    return abs(lhs - rhs)
