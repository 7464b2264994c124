"""Leapfrog time integration of the closed vorticity equation.

The advection bracket uses the Arakawa stencil, the beta term and the
Poisson inversion are spectral, and the closure is evaluated at the
lagged leapfrog level to avoid the diffusive leapfrog instability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipation import DissipationSpec, closure
from .grid import Grid, RealField
from .kernels import arakawa
from .spectral import derive, spectral_derivative, workspace


class InstabilityError(RuntimeError):
    """Non-finite state detected during stepping."""

    def __init__(self, step: int):
        super().__init__(f"non-finite values at step {step}")
        self.step = step


@dataclass(frozen=True)
class ModelParams:
    """Model constants: beta, time step, closure and mean flow.

    mean_velocity is a uniform x-velocity carried outside the periodic
    streamfunction (a -u0*y ramp in psi has no periodic representation);
    it only adds -u0*zeta_x to the tendency.
    """

    beta: float
    dt: float
    dissipation: DissipationSpec = DissipationSpec("none")
    raw_gamma: float = 0.1
    raw_alpha: float = 0.53
    mean_velocity: float = 0.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= self.raw_gamma < 1.0:
            raise ValueError("raw_gamma must lie in [0, 1)")
        if not 0.0 < self.raw_alpha <= 1.0:
            raise ValueError("raw_alpha must lie in (0, 1]")


@dataclass(frozen=True)
class SimState:
    """Two leapfrog vorticity levels plus the current streamfunction and
    its x-derivative (the beta term and the closures both need psi_x)."""

    zeta_prev: RealField
    zeta_curr: RealField
    psi_curr: RealField
    psi_x: RealField
    step: int
    time: float

    @property
    def grid(self) -> Grid:
        return self.zeta_curr.grid


def _zero_mean(values: np.ndarray) -> np.ndarray:
    return values - values.mean()


def _level(zeta_prev: RealField, zeta_curr: RealField, step: int,
           time: float) -> SimState:
    """State whose psi_curr and psi_x come from one transform of zeta_curr.

    rfft2 gives psi_hat = -zeta_hat/k^2, and two irfft2 give psi and
    psi_x: three transforms where a Poisson solve plus a separate
    derivative of psi would take four.
    """
    grid = zeta_curr.grid
    ws = workspace(grid)
    psi_hat = np.fft.rfft2(zeta_curr.values)
    psi_hat *= ws.inv_laplacian
    psi = np.fft.irfft2(psi_hat, s=grid.shape)
    psi_hat *= ws.ikx
    psi_x = np.fft.irfft2(psi_hat, s=grid.shape)
    return SimState(zeta_prev, zeta_curr, RealField(grid, psi),
                    RealField(grid, psi_x), step, time)


def tendency(state: SimState, params: ModelParams) -> RealField:
    """zeta_t = -J(psi, zeta) - beta*psi_x + D, projected to zero mean.

    Advection and the beta term act on the current level; the closure on
    the lagged level (with the current streamfunction as coefficient).
    """
    grid = state.grid
    adv = arakawa(
        state.psi_curr.values, state.zeta_curr.values, grid.dx, grid.dy
    )
    rhs = -adv - params.beta * state.psi_x.values
    if params.mean_velocity:
        rhs = rhs - params.mean_velocity * spectral_derivative(
            state.zeta_curr, "x"
        ).values
    if params.dissipation.kind != "none":
        rhs = rhs + closure(
            params.dissipation, state.psi_curr, state.psi_x.values,
            state.zeta_prev, params.beta,
        ).values
    return RealField(grid, _zero_mean(rhs))


def _guarded_tendency(state: SimState, params: ModelParams) -> RealField:
    """Tendency with overflow during closure/assembly mapped to
    InstabilityError at the step being produced."""
    try:
        return tendency(state, params)
    except (ValueError, FloatingPointError) as exc:
        raise InstabilityError(state.step + 1) from exc


def initial_state(zeta0: RealField) -> SimState:
    """Single-level state at t = 0; bootstrap before stepping."""
    z = RealField(zeta0.grid, _zero_mean(zeta0.values))
    return _level(z, z, step=0, time=0.0)


def bootstrap(state0: SimState, params: ModelParams) -> SimState:
    """Produce the second leapfrog level from a single-level state.

    Forward-Euler half step to the midpoint, then a centered full step
    using the midpoint tendency; first-order start-up that leaves the
    global leapfrog error at O(dt^2).
    """
    grid = state0.grid
    dt = params.dt
    t0 = _guarded_tendency(state0, params)
    z_half = RealField(grid, _zero_mean(state0.zeta_curr.values + 0.5 * dt * t0.values))
    mid = _level(z_half, z_half, state0.step, state0.time + 0.5 * dt)
    t_half = _guarded_tendency(mid, params)
    z1 = RealField(grid, _zero_mean(state0.zeta_curr.values + dt * t_half.values))
    if not np.all(np.isfinite(z1.values)):
        raise InstabilityError(state0.step + 1)
    return _level(state0.zeta_curr, z1, state0.step + 1, state0.time + dt)


def step_leapfrog_raw(state: SimState, params: ModelParams) -> SimState:
    """One leapfrog step with the Robert-Asselin-Williams filter."""
    grid = state.grid
    dt = params.dt
    tend = _guarded_tendency(state, params)
    z_new = state.zeta_prev.values + 2.0 * dt * tend.values
    if params.raw_gamma > 0.0:
        d = params.raw_gamma * (state.zeta_prev.values - 2.0 * state.zeta_curr.values + z_new)
        z_mid = state.zeta_curr.values + params.raw_alpha * d
        z_new = z_new + (params.raw_alpha - 1.0) * d
    else:
        z_mid = state.zeta_curr.values
    z_new = _zero_mean(z_new)
    z_mid = _zero_mean(z_mid)
    if not np.all(np.isfinite(z_new)):
        raise InstabilityError(state.step + 1)
    return _level(RealField(grid, z_mid), RealField(grid, z_new),
                  state.step + 1, state.time + dt)


def integrate(zeta0: RealField, params: ModelParams, steps: int,
              observer=None) -> SimState:
    """Bootstrap and run a fixed number of leapfrog steps in memory.

    observer, if given, is called with each state including the initial
    one (after the Poisson solve, before its step is taken).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    state = initial_state(zeta0)
    if observer is not None:
        observer(state)
    state = bootstrap(state, params)
    if observer is not None:
        observer(state)
    while state.step < steps:
        state = step_leapfrog_raw(state, params)
        if observer is not None:
            observer(state)
    return state


def auto_dt(psi: RealField) -> float:
    """Fixed advective step 0.4*min(dx, dy)/max|grad psi|, set at t=0."""
    grid = psi.grid
    ws = workspace(grid)
    umax = max(np.abs(u).max() for u in derive(psi, ws.iky, ws.ikx))
    if umax == 0.0:
        raise ValueError("cannot size dt for a quiescent field")
    return 0.4 * min(grid.dx, grid.dy) / umax
