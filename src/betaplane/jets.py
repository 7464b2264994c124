"""Exact jets of analytic fields and polynomial calculus on jet space.

A jet stores the streamfunction and all its partial derivatives up to a
fixed order at one space-time point, indexed by multi-indices
alpha = (a_t, a_x, a_y), in one read-only array read through one
alpha -> position table per order. Analytic fields (finite sums of
trigonometric space-time modes) provide exact jets of any order and
serve as the brute-force oracle throughout the verification suites. A
jet, or a whole stencil of them, is built in one array pass and not
memoised: the suites keep the jets of a base point in their own records.

The module also implements differential polynomials on jet coordinates
(JetPoly): linear combinations of monomials in the psi_alpha with float
coefficients, closed under total differentiation. They are what lets
frame parameters, normalized invariants, the coefficients of the
prolonged boost and conservation fluxes be evaluated exactly on jets
instead of symbolically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

Alpha = tuple[int, int, int]

MAX_JET_ORDER = 8

DELTA = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class JetOrderError(ValueError):
    """Requested operation needs a higher jet order than available."""


@functools.lru_cache(maxsize=MAX_JET_ORDER + 1)
def _graded_indices(order: int) -> tuple[Alpha, ...]:
    return tuple(
        (a1, a2, total - a1 - a2)
        for total in range(order + 1)
        for a1 in range(total, -1, -1)
        for a2 in range(total - a1, -1, -1)
    )


def multi_indices(order: int) -> list[Alpha]:
    """All alpha with |alpha| <= order, graded-lexicographic.

    The order is graded, so the position of alpha is the same in the
    list of every order that contains it.
    """
    return list(_graded_indices(order))


@functools.lru_cache(maxsize=MAX_JET_ORDER + 1)
def _positions(order: int) -> dict[Alpha, int]:
    """alpha -> its position in multi_indices(order); shared, never altered."""
    return {alpha: i for i, alpha in enumerate(_graded_indices(order))}


@dataclass(frozen=True, eq=False)
class Jet:
    """psi_alpha for all |alpha| <= order at one point (t, x, y): ``vector``
    lists them in multi_indices(order) order, then a padding 1.0; read-only."""

    order: int
    point: tuple[float, float, float]
    vector: np.ndarray

    def __post_init__(self):
        positions = _positions(self.order)
        entries = self.vector.tolist()
        if len(entries) != len(positions) + 1 or entries[-1] != 1.0:
            raise ValueError(f"a jet of order {self.order} needs "
                             f"{len(positions)} entries and a padding 1.0")
        if not all(map(math.isfinite, entries)):
            raise ValueError("jet contains non-finite values")
        self.vector.flags.writeable = False
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_positions", positions)

    def __getitem__(self, alpha: Alpha) -> float:
        try:
            return self._entries[self._positions[alpha]]
        except KeyError:
            raise JetOrderError(
                f"jet of order {self.order} has no entry {alpha}"
            ) from None


@dataclass(frozen=True)
class AnalyticField:
    """psi(t, x, y) = sum A*sin(omega*t + kappa*x + lam*y + phase).

    Differentiation multiplies each term by the matching frequency and
    shifts the phase by pi/2, so every mixed partial is closed-form.
    """

    terms: tuple[tuple[float, float, float, float, float], ...]

    # A field hashes as its terms; the nested tuple is hashed once.
    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash(self.terms)

    @classmethod
    def from_terms(cls, terms: Iterable[Iterable[float]]) -> "AnalyticField":
        return cls(tuple(tuple(float(v) for v in t) for t in terms))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "AnalyticField":
        """Four terms, each of random amplitude, frequencies and phase."""
        terms = []
        for _ in range(4):
            a = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
            om, ka, la = rng.uniform(0.3, 1.2, size=3) * rng.choice(
                [-1.0, 1.0], size=3
            )
            ph = rng.uniform(0.0, 2.0 * np.pi)
            terms.append((a, om, ka, la, ph))
        return cls.from_terms(terms)

    def derivative(self, alpha: Alpha, point: tuple[float, float, float]) -> float:
        """One partial derivative; the scalar reference of analytic_jet."""
        a1, a2, a3 = alpha
        t, x, y = point
        shift = (a1 + a2 + a3) * 0.5 * np.pi
        total = 0.0
        for amp, om, ka, la, ph in self.terms:
            factor = om**a1 * ka**a2 * la**a3
            total += amp * factor * math.sin(om * t + ka * x + la * y + ph + shift)
        return total

    # amp, om, ka, la, ph of the terms as five rows, for _exact_jets
    @functools.cached_property
    def _columns(self) -> np.ndarray:
        return _read_only(np.array(self.terms).reshape(-1, 5).T.copy())

    # jet order -> _amplitudes table, for _exact_jets
    @functools.cached_property
    def _amplitude_tables(self) -> dict[int, np.ndarray]:
        return {}

    def _amplitudes(self, order: int) -> np.ndarray:
        """amp * om**a1 * ka**a2 * la**a3 per (term, alpha) as
        derivative forms it; built once per order and kept on the field."""
        table = self._amplitude_tables.get(order)
        if table is None:
            indices = _graded_indices(order)
            rows = [
                [amp * (om**a1 * ka**a2 * la**a3) for a1, a2, a3 in indices]
                for amp, om, ka, la, _ in self.terms
            ]
            table = self._amplitude_tables[order] = _read_only(
                np.array(rows).reshape(len(rows), len(indices)))
        return table

    def shortest_wavelength(self) -> float:
        """2*pi over the largest frequency component, for FD step sizing."""
        return self._shortest_wavelength

    # The identity and flux checks size every stencil by it.
    @functools.cached_property
    def _shortest_wavelength(self) -> float:
        fmax = max(
            (max(abs(om), abs(ka), abs(la)) for _, om, ka, la, _ in self.terms),
            default=0.0,
        )
        if fmax == 0.0:
            return 1.0
        return 2.0 * np.pi / fmax

    def jet(self, point: tuple[float, float, float], order: int) -> Jet:
        return analytic_jet(self, point, order)


def analytic_jet(field: AnalyticField, point, order: int) -> Jet:
    """Exact jet of an analytic field; order is capped at MAX_JET_ORDER.
    Its vector is read-only, as every jet's."""
    _check_order(order)
    (jet,) = _exact_jets(field, (tuple(float(v) for v in point),), order)
    if jet is None:
        raise ValueError("jet contains non-finite values")
    return jet


def analytic_jets(field: AnalyticField, points, order: int) -> list[Jet | None]:
    """Exact jets at many points, built in one pass; None stands for a
    jet with non-finite entries.

    The finite-difference stencils of the certification suites read
    jets at a few dozen points around one base point, all known in
    advance. Points must be tuples of three floats.
    """
    _check_order(order)
    return _exact_jets(field, points, order)


def _check_order(order: int) -> None:
    if order > MAX_JET_ORDER:
        raise JetOrderError(f"jet order {order} exceeds cap {MAX_JET_ORDER}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=MAX_JET_ORDER + 1)
def _grades(order: int) -> np.ndarray:
    """|alpha| of each entry of multi_indices(order)."""
    return _read_only(np.array([sum(a) for a in _graded_indices(order)]))


@functools.lru_cache(maxsize=MAX_JET_ORDER + 1)
def _shifts(order: int) -> np.ndarray:
    """derivative's phase shift of each grade 0..order."""
    return _read_only(np.array([k * 0.5 * np.pi for k in range(order + 1)]))


def _exact_jets(field: AnalyticField, points, order: int) -> list[Jet | None]:
    """Every derivative of the field at every point, == field.derivative;
    None where an entry is not finite.

    A term's sine depends on alpha only through |alpha|, so one math.sin
    per (point, term, grade), of derivative's own argument formed in its
    order, serves every alpha of that grade. The products are summed
    over the terms in order by np.add.accumulate.
    """
    t, x, y = np.array(points).T[:, :, None]
    _, om, ka, la, ph = field._columns
    args = (om * t + ka * x + la * y + ph)[..., None] + _shifts(order)
    sines = np.array(list(map(math.sin, args.ravel().tolist())))
    amplitudes = field._amplitudes(order)
    # row 0 of each point stays 0.0: derivative sums from 0.0
    products = np.zeros((len(points), len(amplitudes) + 1, amplitudes.shape[1]))
    np.multiply(amplitudes, sines.reshape(args.shape).take(_grades(order), axis=2),
                out=products[:, 1:])
    values = np.add.accumulate(products, axis=1)[:, -1]
    vectors = np.concatenate((values, np.ones((len(points), 1))), axis=1)
    finite = np.isfinite(values).all(axis=1).tolist()
    return [Jet(order, point, vector) if ok else None
            for point, vector, ok in zip(points, vectors, finite)]


@dataclass(frozen=True)
class TimeFunction:
    """Polynomial in (t - t0) with exact derivatives of every order."""

    coeffs: tuple[float, ...]
    t0: float = 0.0

    @classmethod
    def zero(cls) -> "TimeFunction":
        return cls((0.0,))

    @classmethod
    def from_taylor(cls, t0: float, derivs: Iterable[float]) -> "TimeFunction":
        """Polynomial with prescribed derivative values at t0."""
        coeffs = tuple(d / math.factorial(k) for k, d in enumerate(derivs))
        return cls(coeffs, t0=float(t0))

    @classmethod
    def random(cls, rng: np.random.Generator, degree: int = 4) -> "TimeFunction":
        return cls(tuple(rng.uniform(-1.0, 1.0) for _ in range(degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def derivative(self, k: int, t: float) -> float:
        s = t - self.t0
        total = 0.0
        for j in range(k, len(self.coeffs)):
            total += (
                self.coeffs[j] * math.factorial(j) / math.factorial(j - k) * s ** (j - k)
            )
        return total

    def __call__(self, t: float) -> float:
        return self.derivative(0, t)

    def derivative_values(self, t: float, up_to: int) -> list[float]:
        return [self.derivative(k, t) for k in range(up_to + 1)]

    def affine_argument(self, scale: float, shift: float) -> "TimeFunction":
        """Return s -> self(scale*s + shift) as a polynomial in s."""
        # expand about s0 = 0 via Taylor of self at t = shift
        derivs = [
            self.derivative(k, shift) * scale**k for k in range(len(self.coeffs))
        ]
        return TimeFunction.from_taylor(0.0, derivs)

    def __mul__(self, scalar: float) -> "TimeFunction":
        return TimeFunction(tuple(scalar * c for c in self.coeffs), self.t0)

    __rmul__ = __mul__

    def __add__(self, other: "TimeFunction") -> "TimeFunction":
        if self.t0 != other.t0:
            # re-expand the other polynomial about self.t0
            other = TimeFunction.from_taylor(
                self.t0, other.derivative_values(self.t0, other.degree)
            )
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return TimeFunction(tuple(x + y for x, y in zip(a, b)), self.t0)


# ---------------------------------------------------------------------------
# Differential polynomials on jet coordinates.
#
# A JetPoly maps monomials (sorted tuples of Alpha) to coefficients;
# the empty monomial is the constant term.
# ---------------------------------------------------------------------------

Monomial = tuple[Alpha, ...]
JetPoly = dict[Monomial, float]


def jp_const(c: float) -> JetPoly:
    return {(): float(c)} if c else {}

def jp_coord(alpha: Alpha) -> JetPoly:
    return {(tuple(alpha),): 1.0}


def jp_add(*polys: JetPoly) -> JetPoly:
    out: JetPoly = {}
    for p in polys:
        for mono, c in p.items():
            out[mono] = out.get(mono, 0.0) + c
    return {m: c for m, c in out.items() if c != 0.0}


def jp_scale(p: JetPoly, s: float) -> JetPoly:
    if s == 0.0:
        return {}
    return {m: s * c for m, c in p.items()}


def jp_mul(p: JetPoly, q: JetPoly) -> JetPoly:
    out: JetPoly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, 0.0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0.0}


def jp_pow(p: JetPoly, n: int) -> JetPoly:
    out = jp_const(1.0)
    for _ in range(n):
        out = jp_mul(out, p)
    return out


def jp_total_derivative(p: JetPoly, direction: int) -> JetPoly:
    """Total derivative D_j of a coefficient-constant jet polynomial.

    direction: 0 = t, 1 = x, 2 = y. Product rule over the monomial
    factors; each factor alpha becomes alpha + delta_j.
    """
    delta = DELTA[direction]
    out: JetPoly = {}
    for mono, c in p.items():
        for i, alpha in enumerate(mono):
            bumped = tuple(
                alpha[k] + delta[k] for k in range(3)
            )
            new = tuple(sorted(mono[:i] + (bumped,) + mono[i + 1 :]))
            out[new] = out.get(new, 0.0) + c
    return {m: c for m, c in out.items() if c != 0.0}


def jp_order(p: JetPoly) -> int:
    """Highest |alpha| appearing in the polynomial."""
    return max((sum(a) for mono in p for a in mono), default=0)


def jp_eval(p: Mapping[Monomial, float], jet: Jet) -> float:
    total = 0.0
    for mono, c in p.items():
        prod = c
        for alpha in mono:
            prod *= jet[alpha]
        total += prod
    return total


@dataclass(frozen=True, eq=False)
class CompiledPoly:
    """Fixed JetPolys as arrays, evaluated together without a
    per-monomial loop.

    Row p of ``coeffs`` holds the coefficients of polynomial p, and
    ``slots[k, p, m]`` the position in ``Jet.vector`` (``_positions``)
    of the k-th factor of its monomial m, padded with -1 (the vector's
    trailing 1.0).
    Column 0 is a zero monomial standing in for jp_eval's initial 0.0;
    shorter polynomials end in zero monomials, and adding 0.0 to a sum
    that started from +0.0 leaves it unchanged.
    """

    order: int
    coeffs: np.ndarray
    slots: np.ndarray

    def evaluate(self, jet: Jet) -> np.ndarray:
        """jp_eval of each polynomial, bit for bit: the same products,
        factor by factor, summed in the same sequence (x*1.0 is exact)."""
        if self.order > jet.order:
            raise JetOrderError(
                f"polynomial of order {self.order} needs more than a jet "
                f"of order {jet.order}"
            )
        prod = self.coeffs.copy()
        for factor in jet.vector[self.slots]:
            prod *= factor
        return np.add.accumulate(prod, axis=1)[:, -1]


def jp_compile(*polys: JetPoly) -> CompiledPoly:
    """Compile polynomials that are evaluated together on many jets."""
    slot = _positions(MAX_JET_ORDER)
    width = max((len(mono) for p in polys for mono in p), default=0)
    length = 1 + max(map(len, polys), default=0)
    coeffs = np.zeros((len(polys), length))
    slots = np.full((width, len(polys), length), -1, dtype=np.intp)
    for row, p in enumerate(polys):
        coeffs[row, 1 : len(p) + 1] = list(p.values())
        for col, mono in enumerate(p, start=1):
            slots[: len(mono), row, col] = [slot[alpha] for alpha in mono]
    order = max(map(jp_order, polys), default=0)
    return CompiledPoly(order=order, coeffs=coeffs, slots=slots)


def material_operator(p: JetPoly) -> JetPoly:
    """(D_t - psi_y D_x) applied to a jet polynomial."""
    psi_y = jp_coord((0, 0, 1))
    return jp_add(
        jp_total_derivative(p, 0),
        jp_scale(jp_mul(psi_y, jp_total_derivative(p, 1)), -1.0),
    )


def material_power(p: JetPoly, k: int) -> JetPoly:
    for _ in range(k):
        p = material_operator(p)
    return p


# The vorticity psi_xx + psi_yy.
ZETA = jp_add(jp_coord((0, 2, 0)), jp_coord((0, 0, 2)))

