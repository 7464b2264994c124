"""Prolonged pseudogroup action, moving frame and normalized invariants.

The symmetry pseudogroup of the beta-plane vorticity equation combines a
scaling, time and y translations, a generalized Galilean boost in x with
time profile f(t) and a streamfunction gauging g(t):

    (T, X, Y, Psi) = (e^{e1}(t + e2), e^{-e1}(x + f(t)),
                      e^{-e1}(y + e3), e^{-3 e1}(psi + g(t) - f'(t) y)).

Prolongation to derivatives and the moving-frame normalization follow
from the operator D_T = e^{-e1}(D_t - f'(t) D_x); its powers are
expanded on jet coordinates with coefficients that are polynomials in
the derivatives of f, which keeps the whole action exact on jets of
polynomial-in-time group elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .jets import (
    MAX_JET_ORDER,
    Alpha,
    CompiledPoly,
    Jet,
    JetOrderError,
    JetPoly,
    Monomial,
    TimeFunction,
    _positions,
    jp_add,
    jp_compile,
    jp_const,
    jp_coord,
    jp_eval,
    jp_mul,
    jp_scale,
    jp_total_derivative,
    material_power,
    multi_indices,
)


class SingularFrameError(ValueError):
    """Moving frame undefined where psi_x vanishes."""


class PhantomIndexError(ValueError):
    """Requested a normalized invariant at a phantom multi-index."""


@dataclass(frozen=True)
class GroupElement:
    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    f: TimeFunction = TimeFunction.zero()
    g: TimeFunction = TimeFunction.zero()


@dataclass(frozen=True)
class FrameParameters:
    """Pseudogroup parameters singled out by the normalization conditions.

    f_derivs[k] is the k-th time derivative of the boost profile at the
    jet's own time (f_derivs[0] = -x); h_derivs[k] the k-th derivative
    of h(t, y) = g(t) - f'(t) y there.
    """

    eps1: float
    eps2: float
    eps3: float
    sign: float
    f_derivs: tuple[float, ...]
    h_derivs: tuple[float, ...]


# ---------------------------------------------------------------------------
# Prolonged action: Psi_alpha = e^{w e1}((D_t - f' D_x)^{a1} psi_{0 a2 a3}
#                                        + correction).
# The operator power is expanded as a linear combination of jet
# coordinates psi_beta whose coefficients are JetPolys in the derivatives
# of f: f^{(k)} is the jet coordinate (k, 0, 0) of F(t, x, y) = f(t), so
# D_t on a coefficient is jp_total_derivative(p, 0), and the coefficients
# are evaluated on the jet of F.
# ---------------------------------------------------------------------------

_MINUS_F1 = jp_scale(jp_coord((1, 0, 0)), -1.0)


def _boost_material_apply(expr: dict[Alpha, JetPoly]) -> dict[Alpha, JetPoly]:
    """(D_t - f'(t) D_x) acting on sum_beta c_beta(f', f'', ...) psi_beta."""
    out: dict[Alpha, JetPoly] = {}
    for (a1, a2, a3), p in expr.items():
        for beta, q in (
            ((a1 + 1, a2, a3), p),  # D_t on the jet coordinate
            ((a1, a2, a3), jp_total_derivative(p, 0)),  # D_t on the coefficient
            ((a1, a2 + 1, a3), jp_mul(_MINUS_F1, p)),
        ):
            out[beta] = jp_add(out.get(beta, {}), q)
    return out


def _boost_core(alpha: Alpha) -> dict[Alpha, JetPoly]:
    """(D_t - f' D_x)^{a1} psi_{0 a2 a3}, sorted by beta and by monomial,
    with the vanishing coefficients dropped."""
    a1, a2, a3 = alpha
    expr = {(0, a2, a3): jp_const(1.0)}
    for _ in range(a1):
        expr = _boost_material_apply(expr)
    return {beta: dict(sorted(p.items())) for beta, p in sorted(expr.items()) if p}


@lru_cache(maxsize=MAX_JET_ORDER + 1)
def _boost_tables(order: int) -> tuple[CompiledPoly, np.ndarray]:
    """The boost cores of every alpha of one jet order as arrays.

    The coefficients of all cores are compiled together, in order. Row i
    of ``slots`` holds the positions in Jet.vector (``_positions``) of
    the psi_beta of the i-th core from column 1 on, and -1 (the vector's
    trailing 1.0) in column 0 and the padding, whose coefficient 0.0
    stands in for the sum's initial 0.0.
    """
    positions = _positions(order)
    cores = [_boost_core(alpha) for alpha in positions]
    slots = np.full((len(cores), 1 + max(map(len, cores))), -1, dtype=np.intp)
    for row, core in enumerate(cores):
        slots[row, 1 : len(core) + 1] = [positions[beta] for beta in core]
    return jp_compile(*(p for core in cores for p in core.values())), slots


def prolong_action(gel: GroupElement, z: Jet) -> Jet:
    """Transformed jet at the transformed base point, same order."""
    t, x, y = z.point
    r = z.order
    if r > MAX_JET_ORDER:
        raise JetOrderError(f"jet order {r} exceeds cap {MAX_JET_ORDER}")
    e1 = gel.eps1
    f_derivs = gel.f.derivative_values(t, r + 1)
    g_derivs = gel.g.derivative_values(t, r)

    T = math.exp(e1) * (t + gel.eps2)
    X = math.exp(-e1) * (x + f_derivs[0])
    Y = math.exp(-e1) * (y + gel.eps3)

    compiled, slots = _boost_tables(r)
    positions = _positions(r)
    f_vector = np.zeros(len(positions) + 1)
    f_vector[[positions[k, 0, 0] for k in range(r + 1)]] = f_derivs[: r + 1]
    f_vector[-1] = 1.0
    f_jet = Jet(r, z.point, f_vector)
    coefficients = np.zeros(slots.shape)
    coefficients[slots >= 0] = compiled.evaluate(f_jet)  # row by row
    products = coefficients * z.vector[slots]
    cores = np.add.accumulate(products, axis=1)[:, -1].tolist()

    values = []
    for (a1, a2, a3), core in zip(positions, cores):
        if a2 == 0 and a3 == 1:
            core -= f_derivs[a1 + 1]
        elif a2 == 0 and a3 == 0:
            core += g_derivs[a1] - f_derivs[a1 + 1] * y
        weight = a2 + a3 - a1 - 3
        values.append(math.exp(weight * e1) * core)
    values.append(1.0)
    return Jet(r, (T, X, Y), np.array(values))


# ---------------------------------------------------------------------------
# Moving frame and normalized invariants.
# ---------------------------------------------------------------------------

# The cached polynomials are read-only, so no caller can alter them.
@lru_cache(maxsize=None)
def _invariant_poly(a1: int, a2: int, a3: int) -> Mapping[Monomial, float]:
    """(D_t - psi_y D_x)^{a1} psi_{0 a2 a3}: the core of I_alpha, and of
    the frame's f^{(a1+1)} (a2, a3 = 0, 1) and -h^{(a1)} (a2, a3 = 0, 0)."""
    return MappingProxyType(material_power(jp_coord((0, a2, a3)), a1))


def moving_frame(z: Jet) -> FrameParameters:
    """Solve the normalization conditions at the jet.

    eps1 = ln sqrt|psi_x|, eps2 = -t, eps3 = -y, f = -x,
    f^{(k+1)} = (D_t - psi_y D_x)^k psi_y,
    h^{(k)} = -(D_t - psi_y D_x)^k psi.
    """
    t, x, y = z.point
    psi_x = z[(0, 1, 0)]
    if psi_x == 0.0:
        raise SingularFrameError("moving frame is singular where psi_x = 0")
    orders = range(z.order)
    f_derivs = [-x] + [jp_eval(_invariant_poly(k, 0, 1), z) for k in orders]
    h_derivs = [-jp_eval(_invariant_poly(k, 0, 0), z) for k in orders]
    return FrameParameters(
        eps1=0.5 * math.log(abs(psi_x)),
        eps2=-t,
        eps3=-y,
        sign=math.copysign(1.0, psi_x),
        f_derivs=tuple(f_derivs),
        h_derivs=tuple(h_derivs),
    )


def is_phantom(alpha: Alpha) -> bool:
    a1, a2, a3 = alpha
    return (a2 == 0 and a3 in (0, 1)) or alpha == (0, 1, 0)


def normalized_invariant(z: Jet, alpha: Alpha) -> float:
    """I_alpha = |psi_x|^{(a2+a3-a1-3)/2} (D_t - psi_y D_x)^{a1} psi_{0 a2 a3}."""
    alpha = tuple(alpha)
    if is_phantom(alpha):
        raise PhantomIndexError(f"{alpha} is a phantom index")
    if sum(alpha) > z.order:
        raise JetOrderError(
            f"invariant {alpha} needs jet order {sum(alpha)}, have {z.order}"
        )
    psi_x = z[(0, 1, 0)]
    if psi_x == 0.0:
        raise SingularFrameError("invariants are singular where psi_x = 0")
    a1, a2, a3 = alpha
    weight = (a2 + a3 - a1 - 3) / 2.0
    return abs(psi_x) ** weight * jp_eval(_invariant_poly(a1, a2, a3), z)


def nonphantom_indices(max_order: int) -> list[Alpha]:
    return [a for a in multi_indices(max_order) if sum(a) > 0 and not is_phantom(a)]
