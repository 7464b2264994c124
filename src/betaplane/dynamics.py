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
from .spectral import derive, spectral_derivative


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


def _level(grid: Grid, zeta_prev: np.ndarray, zeta_curr: np.ndarray,
           step: int, time: float) -> SimState:
    """State whose psi_curr and psi_x come from one transform of zeta_curr.

    Each new field is checked once, where it is wrapped: both vorticity
    levels before the transforms, then psi and psi_x. rfft2 gives psi_hat
    = -zeta_hat/k^2, and two irfft2 give psi and psi_x: three transforms
    where a Poisson solve and a separate derivative of psi take four.
    """
    zeta_prev = RealField(grid, zeta_prev)
    zeta_curr = RealField(grid, zeta_curr)
    psi_hat = np.fft.rfft2(zeta_curr.values)
    psi_hat *= grid.inv_laplacian
    psi = np.fft.irfft2(psi_hat, s=grid.shape)
    psi_hat *= grid.ikx
    psi_x = np.fft.irfft2(psi_hat, s=grid.shape)
    return SimState(zeta_prev, zeta_curr, RealField(grid, psi),
                    RealField(grid, psi_x), step, time)


def tendency(state: SimState, params: ModelParams) -> np.ndarray:
    """zeta_t = -J(psi, zeta) - beta*psi_x + D, projected to zero mean.

    Advection and the beta term act on the current level; the closure on
    the lagged level (with the current streamfunction as coefficient).
    The result is unchecked: the step that adds it checks its new level.
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
        )
    return _zero_mean(rhs)


def initial_state(zeta0: RealField) -> SimState:
    """Single-level state at t = 0; bootstrap before stepping."""
    z = _zero_mean(zeta0.values)
    return _level(zeta0.grid, z, z, step=0, time=0.0)


def bootstrap(state0: SimState, params: ModelParams) -> SimState:
    """Produce the second leapfrog level from a single-level state.

    Forward-Euler half step to the midpoint, then a centered full step
    using the midpoint tendency; first-order start-up that leaves the
    global leapfrog error at O(dt^2). Any non-finite or overflowing new
    field is an InstabilityError at the step being produced.
    """
    grid = state0.grid
    dt = params.dt
    zeta0 = state0.zeta_curr.values
    try:
        z_half = _zero_mean(zeta0 + 0.5 * dt * tendency(state0, params))
        mid = _level(grid, z_half, z_half, state0.step, state0.time + 0.5 * dt)
        z1 = _zero_mean(zeta0 + dt * tendency(mid, params))
        return _level(grid, zeta0, z1, state0.step + 1, state0.time + dt)
    except (ValueError, FloatingPointError) as exc:
        raise InstabilityError(state0.step + 1) from exc


def step_leapfrog_raw(state: SimState, params: ModelParams) -> SimState:
    """One leapfrog step with the Robert-Asselin-Williams filter; any
    non-finite or overflowing new field is an InstabilityError."""
    dt = params.dt
    try:
        z_new = state.zeta_prev.values + 2.0 * dt * tendency(state, params)
        if params.raw_gamma > 0.0:
            d = params.raw_gamma * (state.zeta_prev.values - 2.0 * state.zeta_curr.values + z_new)
            z_mid = state.zeta_curr.values + params.raw_alpha * d
            z_new = z_new + (params.raw_alpha - 1.0) * d
        else:
            z_mid = state.zeta_curr.values
        z_new = _zero_mean(z_new)
        z_mid = _zero_mean(z_mid)
        return _level(state.grid, z_mid, z_new, state.step + 1, state.time + dt)
    except (ValueError, FloatingPointError) as exc:
        raise InstabilityError(state.step + 1) from exc


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
    umax = max(np.abs(u).max() for u in derive(psi, grid.iky, grid.ikx))
    if umax == 0.0:
        raise ValueError("cannot size dt for a quiescent field")
    return 0.4 * min(grid.dx, grid.dy) / umax
