"""Exponential CBF rows for quadratic barriers on integrator chains.

The barriers are position-level and quadratic (squared distance minus a
squared keep-out radius), so every Lie derivative along the chain flow is
available in closed form through the Leibniz rule: with D^0 the position
offset, D^m the m-th derivative chain block, and D^n the top-order
derivative (input plus exogenous drift),

    L^k h = sum_m binom(k, m) <D^m, D^{k-m}>.

Only the k = n derivative contains the input, entering through 2 <D^0, v>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, DimensionMismatch, NotHurwitz, ScenarioError
from .models import BrunovskyDims, Obstacle

DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class QuadraticBarrier:
    """Obstacle barrier ||p - c||^2 - R^2 or pairwise ||p_i - p_j||^2 - d^2.

    An obstacle barrier may stand for a stack of obstacles: ``center`` is
    then ``(..., d)`` and ``eff_radius`` ``(...)``, broadcast against the
    states' stack axes (see ``for_obstacles``).
    """

    kind: str  # "obstacle" or "pairwise"
    dims: BrunovskyDims
    center: tuple | None = None
    eff_radius: float | tuple = 0.0
    safe_dist: float = 0.0

    def __post_init__(self):
        if self.kind not in ("obstacle", "pairwise"):
            raise ScenarioError(f"unknown barrier kind {self.kind!r}")
        if self.kind == "obstacle" and self.center is None:
            raise ScenarioError("obstacle barrier needs a center")

    @classmethod
    def for_obstacle(cls, dims: BrunovskyDims, obstacle: Obstacle) -> QuadraticBarrier:
        return cls(
            kind="obstacle",
            dims=dims,
            center=tuple(obstacle.center),
            eff_radius=obstacle.effective_radius,
        )

    @classmethod
    def for_obstacles(cls, dims: BrunovskyDims, obstacles) -> QuadraticBarrier:
        """One barrier over the obstacle stack; states broadcast as ``(..., n_obs, nd)``."""
        return cls(
            kind="obstacle",
            dims=dims,
            center=tuple(tuple(o.center) for o in obstacles),
            eff_radius=tuple(o.effective_radius for o in obstacles),
        )

    @classmethod
    def for_pair(cls, dims: BrunovskyDims, safe_dist: float) -> QuadraticBarrier:
        return cls(kind="pairwise", dims=dims, safe_dist=safe_dist)

    @property
    def relative_degree(self) -> int:
        return self.dims.n

    @functools.cached_property
    def _center_chain(self) -> np.ndarray:
        """(..., n, d) chain of the obstacle center(s): the center, then zero derivatives."""
        center = np.asarray(self.center, dtype=float)
        chain = np.zeros(center.shape[:-1] + (self.dims.n, self.dims.d))
        chain[..., 0, :] = center
        return chain

    @property
    def reference(self) -> float | np.ndarray:
        """Keep-out radius R (per obstacle of a stack) or the safe distance d."""
        return np.asarray(self.eff_radius) if self.kind == "obstacle" else self.safe_dist

    def offset_chain(self, x_self: np.ndarray, x_other: np.ndarray | None) -> np.ndarray:
        """(..., n, d) stack of D^0 .. D^{n-1}: position offset then derivative blocks."""
        d, n = self.dims.d, self.dims.n
        x_self = np.asarray(x_self)
        chain = x_self.reshape(x_self.shape[:-1] + (n, d))
        if self.kind == "obstacle":
            return chain - self._center_chain
        if x_other is None:
            raise DimensionMismatch("pairwise barrier needs both agents' states")
        x_other = np.asarray(x_other)
        return chain - x_other.reshape(x_other.shape[:-1] + (n, d))

    def value(self, x_self: np.ndarray, x_other: np.ndarray | None = None) -> float | np.ndarray:
        d0 = self.offset_chain(x_self, x_other)[..., 0, :]
        ref = self.reference
        return np.sum(d0 * d0, axis=-1) - ref * ref

    def gradient_self(self, x_self: np.ndarray, x_other: np.ndarray | None = None) -> np.ndarray:
        """Gradient over agent i's full chain state (position block only)."""
        d0 = self.offset_chain(x_self, x_other)[..., 0, :]
        grad = np.zeros(d0.shape[:-1] + (self.dims.nd,))
        grad[..., : self.dims.d] = 2.0 * d0
        return grad

    def gradient_other(self, x_self: np.ndarray, x_other: np.ndarray) -> np.ndarray:
        return -self.gradient_self(x_self, x_other)


@dataclass(frozen=True)
class EcbfCoefficients:
    """Class-kappa chain coefficients kappa_0 .. kappa_{r-1}.

    The polynomial s^r + kappa_{r-1} s^{r-1} + ... + kappa_0 must be
    Hurwitz, checked through the roots of the companion polynomial.
    """

    kappa: tuple[float, ...]

    def __post_init__(self):
        if any(k <= 0.0 for k in self.kappa):
            raise NotHurwitz("kappa coefficients must be positive")
        poly = np.concatenate(([1.0], np.asarray(self.kappa)[::-1]))
        if np.max(np.roots(poly).real) >= 0.0:
            raise NotHurwitz("eCBF coefficient polynomial is not Hurwitz")

    @classmethod
    def from_poles(cls, poles: tuple[float, ...]) -> EcbfCoefficients:
        coeffs = np.poly(np.asarray(poles, dtype=float))
        return cls(kappa=tuple(coeffs[::-1][:-1]))


@dataclass(frozen=True)
class LieDerivatives:
    """Orders 0..r-1 plus the split top derivative L^r h = drift + row . v.

    For a stack of states every field carries the stack's leading axes.
    """

    values: tuple  # h, Lh, ..., L^{r-1} h: floats, or (...) arrays for a stack
    input_row: np.ndarray  # (..., d): coefficient of the own nominal input
    drift_term: float | np.ndarray  # input-free part of L^r h


@functools.lru_cache(maxsize=None)
def _leibniz_weights(n: int) -> np.ndarray:
    """(n*n, n+1) Leibniz weights on the flattened Gram matrix G[m, j] = <D^m, D^j>.

    Column k < n sums binom(k, m) G[m, k-m] (L^k h before subtracting the
    squared radius); column n holds the terms m = 1 .. n-1 of L^n h, the
    part with neither the input nor the exogenous drift.
    """
    w = np.zeros((n, n, n + 1))
    for k in range(n + 1):
        for m in range(k + 1) if k < n else range(1, n):
            w[m, k - m, k] = math.comb(k, m)
    w.setflags(write=False)
    return w.reshape(n * n, n + 1)


def lie_derivatives(
    barrier: QuadraticBarrier,
    x_self: np.ndarray,
    x_other: np.ndarray | None = None,
    drift_top_self: np.ndarray | None = None,
    top_other: np.ndarray | None = None,
) -> LieDerivatives:
    """Closed-form Lie derivatives of a quadratic barrier along the chain flow.

    The states are one ``(nd,)`` vector each or ``(..., nd)`` stacks that
    broadcast together (as do ``(..., d)`` top derivatives); the result then
    holds one set of derivatives per stacked state.
    ``drift_top_self`` is the exogenous part of agent i's top-order
    derivative (the held leader feedforward sample); ``top_other`` is the
    neighbor's full predicted top derivative for pairwise barriers.
    Raises DegenerateGradient when a position offset is numerically zero.
    """
    n = barrier.dims.n
    blocks = barrier.offset_chain(x_self, x_other)
    gram = blocks @ blocks.swapaxes(-1, -2)  # G[m, j] = <D^m, D^j>
    if (gram[..., 0, 0] < DEGENERATE_TOL**2).any():
        raise DegenerateGradient("barrier gradient undefined at zero offset")
    orders = gram.reshape(gram.shape[:-2] + (n * n,)) @ _leibniz_weights(n)

    ref = barrier.reference
    values = [orders[..., k] for k in range(n)]
    values[0] = values[0] - ref * ref

    d_n_exo = np.zeros(barrier.dims.d) if drift_top_self is None else np.asarray(drift_top_self)
    if barrier.kind == "pairwise" and top_other is not None:
        d_n_exo = d_n_exo - np.asarray(top_other)
    d0 = blocks[..., 0, :]
    drift = 2.0 * np.einsum("...i,...i->...", d0, d_n_exo) + orders[..., n]
    return LieDerivatives(values=tuple(values), input_row=2.0 * d0, drift_term=drift)


def margin_obstacle(r_ball: float, grad: np.ndarray) -> float | np.ndarray:
    """Tightening margin r_ball * ||grad h|| for one obstacle constraint (or a stack)."""
    return r_ball * np.linalg.norm(grad, axis=-1)


def margin_pairwise(
    r_ball_i: float | np.ndarray,
    r_ball_j: float | np.ndarray,
    grad_i: np.ndarray,
    grad_j: np.ndarray,
) -> float | np.ndarray:
    """Sum of both agents' support terms along the pairwise barrier gradients."""
    return r_ball_i * np.linalg.norm(grad_i, axis=-1) + r_ball_j * np.linalg.norm(
        grad_j, axis=-1
    )


def assemble_row(
    barrier: QuadraticBarrier,
    kappa: EcbfCoefficients,
    x_self: np.ndarray,
    x_other: np.ndarray | None,
    margin: float | np.ndarray,
    drift_top_self: np.ndarray | None = None,
    top_other: np.ndarray | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Tightened eCBF row(s) ``a . v + b >= 0`` at the given nominal linearization state(s).

    Returns ``(a, b)``: ``a`` (..., d) and ``b`` carry the states' stack axes.
    """
    lie = lie_derivatives(barrier, x_self, x_other, drift_top_self, top_other)
    if len(kappa.kappa) != barrier.relative_degree:
        raise DimensionMismatch("kappa length must equal the relative degree")
    b = lie.drift_term
    for q in range(1, barrier.relative_degree):
        b = b + kappa.kappa[q] * lie.values[q]
    b = b + kappa.kappa[0] * (lie.values[0] - margin)
    return lie.input_row, b
