"""Moving-frame normalization and invariance of the normalized
differential invariants under the prolonged group action."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from betaplane.invariants import (
    GroupElement,
    PhantomIndexError,
    SingularFrameError,
    _boost_core,
    is_phantom,
    moving_frame,
    nonphantom_indices,
    normalized_invariant,
    prolong_action,
)
from betaplane.jets import (
    MAX_JET_ORDER,
    AnalyticField,
    Jet,
    JetOrderError,
    TimeFunction,
    analytic_jet,
    multi_indices,
)

POINT = (0.3, 0.9, -0.4)


def jet_of(order, point, values):
    """The jet with the given psi_alpha, from a mapping of every alpha."""
    entries = [values[alpha] for alpha in multi_indices(order)]
    return Jet(order, point, np.array([*entries, 1.0]))


def random_group_element(rng, max_eps1=2.0, degree=4):
    return GroupElement(
        eps1=rng.uniform(-max_eps1, max_eps1),
        eps2=rng.uniform(-1.0, 1.0),
        eps3=rng.uniform(-1.0, 1.0),
        f=TimeFunction.random(rng, degree=degree),
        g=TimeFunction.random(rng, degree=degree),
    )


def admissible_jet(rng, order=5):
    """Jet of a random analytic field at a point where psi_x != 0."""
    for _ in range(200):
        field = AnalyticField.random(rng)
        point = tuple(rng.uniform(-2.0, 2.0, size=3))
        if abs(field.derivative((0, 1, 0), point)) > 0.1:
            return analytic_jet(field, point, order)
    raise AssertionError("could not sample an admissible jet")


# Oracles: group composition, invariantization by the jet's own frame
# and the invariant form of the vorticity equation, which only these
# tests read.


def compose(outer: GroupElement, inner: GroupElement) -> GroupElement:
    """Element acting as outer after inner, for boost-free elements.

    General composition drags f through the scaling of t in a way that
    leaves the canonical form only for f = 0, which is all the
    composition-consistency checks need.
    """
    if any(outer.f.coeffs) or any(inner.f.coeffs):
        raise ValueError("composition is only supported for boost-free elements")
    e1 = inner.eps1 + outer.eps1
    e2 = inner.eps2 + math.exp(-inner.eps1) * outer.eps2
    e3 = inner.eps3 + math.exp(inner.eps1) * outer.eps3
    # Psi2 = e^{-3(e1a+e1b)} (psi + g_in(t) + e^{3 e1_in} g_out(T_in(t)))
    # with T_in(t) = e^{e1_in} t + e^{e1_in} e2_in
    t_in = Polynomial([math.exp(inner.eps1) * inner.eps2, math.exp(inner.eps1)])
    g = (Polynomial(inner.g.coeffs)
         + math.exp(3.0 * inner.eps1) * Polynomial(outer.g.coeffs)(t_in))
    return GroupElement(e1, e2, e3, TimeFunction.zero(),
                        TimeFunction(tuple(g.coef.tolist())))


class TaylorData:
    """A time function given by its derivatives at the jet's own time,
    zero past the last: all prolong_action reads of f and g."""

    def __init__(self, values):
        self.values = list(values)

    def derivative_values(self, t: float, up_to: int) -> list[float]:
        return (self.values + [0.0] * (up_to + 1))[: up_to + 1]


def invariantize(z: Jet) -> Jet:
    """Apply the jet's own frame: prolong_action(frame(z), z), with
    g^{(k)} = h^{(k)} + f^{(k+1)} y at the jet point."""
    frame = moving_frame(z)
    y = z.point[2]
    g_derivs = [h + fk1 * y for h, fk1 in zip(frame.h_derivs, frame.f_derivs[1:])]
    gel = GroupElement(frame.eps1, frame.eps2, frame.eps3,
                       TaylorData(frame.f_derivs), TaylorData(g_derivs))
    return prolong_action(gel, z)


def invariant_representation_residual(z: Jet, beta: float) -> float:
    """(zeta_t - psi_y zeta_x)/psi_x + zeta_y + beta, the invariant form
    of the vorticity equation evaluated on a jet."""
    psi_x = z[(0, 1, 0)]
    if psi_x == 0.0:
        raise SingularFrameError("invariant representation undefined at psi_x = 0")
    zeta_t = z[(1, 2, 0)] + z[(1, 0, 2)]
    zeta_x = z[(0, 3, 0)] + z[(0, 1, 2)]
    zeta_y = z[(0, 2, 1)] + z[(0, 0, 3)]
    psi_y = z[(0, 0, 1)]
    return (zeta_t - psi_y * zeta_x) / psi_x + zeta_y + beta


def test_phantom_classification():
    assert is_phantom((0, 0, 0))
    assert is_phantom((3, 0, 0))
    assert is_phantom((2, 0, 1))
    assert is_phantom((0, 1, 0))
    assert not is_phantom((0, 2, 0))
    assert not is_phantom((1, 1, 0))
    assert not is_phantom((0, 0, 2))


def test_nonphantom_indices_count():
    alphas = nonphantom_indices(4)
    assert (0, 2, 0) in alphas
    assert all(not is_phantom(a) for a in alphas)
    assert all(0 < sum(a) <= 4 for a in alphas)


def test_identity_acts_trivially():
    rng = np.random.default_rng(0)
    z = admissible_jet(rng)
    z2 = prolong_action(GroupElement(), z)
    assert z2.point == pytest.approx(z.point)
    for alpha in multi_indices(z.order):
        assert z2[alpha] == pytest.approx(z[alpha], rel=1e-14, abs=1e-14)


def test_prolonged_action_composes():
    """Boost-free elements: acting twice equals acting by the composite."""
    rng = np.random.default_rng(1)
    z = admissible_jet(rng)
    zero = TimeFunction.zero()
    a = GroupElement(0.4, 0.2, -0.3, zero, TimeFunction((0.5, 1.0, -0.2)))
    b = GroupElement(-0.7, -0.1, 0.6, zero, TimeFunction((1.0, 0.3)))
    lhs = prolong_action(a, prolong_action(b, z))
    rhs = prolong_action(compose(a, b), z)
    assert lhs.point == pytest.approx(rhs.point, rel=1e-12)
    for alpha in multi_indices(z.order):
        assert lhs[alpha] == pytest.approx(rhs[alpha], rel=1e-10, abs=1e-10)


def test_action_respects_scaling_weights():
    """Pure scaling multiplies psi_alpha by e^{(a2+a3-a1-3) eps1}."""
    rng = np.random.default_rng(2)
    z = admissible_jet(rng)
    eps1 = 0.9
    gel = GroupElement(eps1, 0.0, 0.0, TimeFunction.zero(), TimeFunction.zero())
    z2 = prolong_action(gel, z)
    for alpha in multi_indices(3):
        a1, a2, a3 = alpha
        w = math.exp((a2 + a3 - a1 - 3) * eps1)
        assert z2[alpha] == pytest.approx(w * z[alpha], rel=1e-12, abs=1e-12)


def test_boost_core_closed_form():
    """(D_t - f' D_x)^2 psi = psi_tt - 2 f' psi_tx - f'' psi_x + f'^2 psi_xx,
    with f^(k) the jet coordinate (k, 0, 0)."""
    f1, f2 = (1, 0, 0), (2, 0, 0)
    assert _boost_core((2, 0, 0)) == {
        (0, 1, 0): {(f2,): -1.0},
        (0, 2, 0): {(f1, f1): 1.0},
        (1, 1, 0): {(f1,): -2.0},
        (2, 0, 0): {(): 1.0},
    }


def prolonged_digest(seed, orders=(3, 5, 6, 8), per_order=25):
    """sha256 of the float64 point and values of prolonged random jets.

    Every fourth element is the identity, whose boost coefficients are
    zeros, acting on a jet whose negative entries are -0.0; in the first
    jet of each order every entry is -0.0, which pins the sign of zero
    sums."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for order in orders:
        indices = multi_indices(order)
        for i in range(per_order):
            point = tuple(rng.uniform(-2.0, 2.0, size=3).tolist())
            values = rng.uniform(-1.0, 1.0, size=len(indices)).tolist()
            if i % 4 == 0:
                values = [v if v > 0.0 and i else -0.0 for v in values]
            z = Jet(order, point, np.array([*values, 1.0]))
            gel = random_group_element(rng) if i % 4 else GroupElement()
            gz = prolong_action(gel, z)
            packed = np.array(gz.point + tuple(gz[a] for a in indices))
            digest.update(packed.astype("<f8").tobytes())
    return digest.hexdigest()


# Recorded while the boost coefficients were still expanded by a separate
# polynomial algebra, so the JetPoly tables must reproduce it bit for bit.
# It also depends on IEEE float64 arithmetic and on the platform's
# math.exp and float powers.
PROLONGED_DIGESTS = {
    0: "1556017a86e3d5328f2bce7880db3a0ad4fcc87c959b875f23f79be908447dea",
    1: "3dd07f46ef6505b5752ce89f0c0424ecfbbe042822a5be9ae5e5672514e7a574",
}


@pytest.mark.parametrize("seed", sorted(PROLONGED_DIGESTS))
def test_prolonged_action_bit_identical(seed):
    assert prolonged_digest(seed) == PROLONGED_DIGESTS[seed]


def test_prolong_action_order_cap():
    indices = multi_indices(MAX_JET_ORDER + 1)
    z = Jet(MAX_JET_ORDER + 1, POINT, np.ones(len(indices) + 1))
    with pytest.raises(JetOrderError):
        prolong_action(GroupElement(), z)


def test_moving_frame_normalization_conditions():
    """The invariantized jet satisfies the cross-section exactly:
    psi_x = +-1 and every other phantom coordinate is 0."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = admissible_jet(rng)
        iz = invariantize(z)
        scale = max(abs(iz[alpha]) for alpha in multi_indices(iz.order))
        tol = 1e-10 * (1.0 + scale)
        assert abs(abs(iz[(0, 1, 0)]) - 1.0) <= tol
        for alpha in multi_indices(z.order - 1):
            if is_phantom(alpha) and alpha != (0, 1, 0):
                assert abs(iz[alpha]) <= tol, (alpha, iz[alpha])


def test_invariantized_jet_at_origin():
    rng = np.random.default_rng(4)
    z = admissible_jet(rng)
    iz = invariantize(z)
    assert iz.point == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_normalized_invariant_matches_invariantization_replay():
    """I_alpha(z) equals the alpha-entry of the invariantized jet."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = admissible_jet(rng, order=5)
        iz = invariantize(z)
        for alpha in nonphantom_indices(4):
            direct = normalized_invariant(z, alpha)
            replay = iz[alpha]
            assert direct == pytest.approx(replay, rel=1e-9, abs=1e-9)


def test_theorem_1_invariance():
    """I_alpha(g.z) = I_alpha(z): the verification at desk tolerance."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(25):
        z = admissible_jet(rng, order=5)
        gel = random_group_element(rng)
        gz = prolong_action(gel, z)
        if gz[(0, 1, 0)] == 0.0:
            continue
        for alpha in nonphantom_indices(4):
            ia = normalized_invariant(z, alpha)
            ib = normalized_invariant(gz, alpha)
            worst = max(worst, abs(ia - ib) / (1.0 + abs(ia)))
    assert worst <= 1e-9


def test_singular_frame_raises():
    field = AnalyticField.from_terms([(1.0, 0.5, 0.0, 1.0, 0.3)])  # no x modes
    z = analytic_jet(field, POINT, 4)
    with pytest.raises(SingularFrameError):
        moving_frame(z)
    with pytest.raises(SingularFrameError):
        normalized_invariant(z, (0, 2, 0))


def test_phantom_invariant_rejected():
    rng = np.random.default_rng(7)
    z = admissible_jet(rng)
    with pytest.raises(PhantomIndexError):
        normalized_invariant(z, (0, 1, 0))


def test_jet_order_shortfall():
    rng = np.random.default_rng(8)
    z = admissible_jet(rng, order=2)
    with pytest.raises(JetOrderError):
        normalized_invariant(z, (2, 2, 0))


def forced_jet(field, point, beta, order=4):
    """Jet with psi_txx overridden so the vorticity equation holds."""
    z = analytic_jet(field, point, order)
    values = {alpha: z[alpha] for alpha in multi_indices(order)}
    psi_x, psi_y = z[(0, 1, 0)], z[(0, 0, 1)]
    zeta_x = z[(0, 3, 0)] + z[(0, 1, 2)]
    zeta_y = z[(0, 2, 1)] + z[(0, 0, 3)]
    target_zeta_t = psi_y * zeta_x - psi_x * zeta_y - beta * psi_x
    values[(1, 2, 0)] = target_zeta_t - z[(1, 0, 2)]
    return jet_of(order, z.point, values)


def test_representation_residual_zero_on_solutions():
    rng = np.random.default_rng(9)
    beta = 1.3
    for _ in range(10):
        field = AnalyticField.random(rng)
        point = tuple(rng.uniform(-2.0, 2.0, size=3))
        if abs(field.derivative((0, 1, 0), point)) < 0.1:
            continue
        z = forced_jet(field, point, beta)
        assert abs(invariant_representation_residual(z, beta)) < 1e-10


def test_representation_residual_proportional_to_raw_equation():
    rng = np.random.default_rng(10)
    beta = 0.7
    for _ in range(10):
        z = admissible_jet(rng, order=4)
        res = invariant_representation_residual(z, beta)
        zeta_t = z[(1, 2, 0)] + z[(1, 0, 2)]
        zeta_x = z[(0, 3, 0)] + z[(0, 1, 2)]
        zeta_y = z[(0, 2, 1)] + z[(0, 0, 3)]
        raw = (
            zeta_t
            + z[(0, 1, 0)] * zeta_y
            - z[(0, 0, 1)] * zeta_x
            + beta * z[(0, 1, 0)]
        )
        assert res * z[(0, 1, 0)] == pytest.approx(raw, rel=1e-12, abs=1e-12)


def test_functional_independence_proxy():
    """The four second-order invariants depend on (psi_tx, psi_xx,
    psi_xy, psi_yy) with a nonsingular Jacobian."""
    rng = np.random.default_rng(11)
    z = admissible_jet(rng, order=4)
    alphas = [(1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    coords = [(1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    h = 1e-6
    jac = np.zeros((4, 4))
    for j, coord in enumerate(coords):
        vp = {alpha: z[alpha] for alpha in multi_indices(z.order)}
        vm = dict(vp)
        vp[coord] += h
        vm[coord] -= h
        zp = jet_of(z.order, z.point, vp)
        zm = jet_of(z.order, z.point, vm)
        for i, alpha in enumerate(alphas):
            jac[i, j] = (
                normalized_invariant(zp, alpha) - normalized_invariant(zm, alpha)
            ) / (2.0 * h)
    det = np.linalg.det(jac)
    assert abs(det) > 1e-8
