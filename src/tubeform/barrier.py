"""Exponential CBF rows for the quadratic barrier on integrator chains.

Every eCBF row, obstacle or neighbor, tightens one barrier: the squared
position offset minus a squared keep-out radius, h = ||D^0||^2 - R^2, on the
offset chain D = x_i - x_other. ``x_other`` is a neighbor's predicted chain
or, for an obstacle, the constant chain (c, 0, ..., 0). The barrier is
position-level and quadratic, so every Lie derivative along the chain flow is
available in closed form through the Leibniz rule: with D^m the m-th
derivative chain block and D^n the top-order derivative (own input plus the
exogenous part),

    L^k h = sum_m binom(k, m) <D^m, D^{k-m}>.

Only the k = n derivative contains the input, entering through 2 <D^0, v>.
The tube tightening is r_i ||grad h|| + r_j ||grad h|| with the other
chain's broadcast radius r_j, which is 0 for an obstacle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, NotHurwitz
from .models import BrunovskyDims

DEGENERATE_TOL = 1e-9


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


def row_norm(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm over the last axis: ``np.linalg.norm(x, axis=-1)`` for real ``x``.

    That call computes exactly this sum of squares and square root, behind
    a few more numpy calls.
    """
    return np.sqrt((x * x).sum(axis=-1))


def lie_derivatives(
    dims: BrunovskyDims,
    x_self: np.ndarray,
    x_other: np.ndarray,
    keep_out: float | np.ndarray,
    top_exo: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form Lie derivatives of h = ||D^0||^2 - R^2 along the chain flow.

    ``x_self`` and ``x_other`` are ``(nd,)`` vectors or ``(..., nd)`` stacks
    that broadcast together; ``keep_out`` (R) broadcasts against their stack
    axes and ``top_exo`` ``(..., d)`` is the exogenous part of the offset's
    top derivative: own feedforward minus the other chain's top derivative.
    Returns ``(values, input_row, drift)``: ``values`` ``(..., n)`` holds
    h, Lh, ..., L^{n-1} h, and L^n h = drift + input_row . v for the own
    nominal input v.
    Raises DegenerateGradient when a position offset is numerically zero.
    """
    n, d = dims.n, dims.d
    x_self, x_other = np.asarray(x_self), np.asarray(x_other)
    blocks = x_self.reshape(*x_self.shape[:-1], n, d) - x_other.reshape(*x_other.shape[:-1], n, d)
    gram = blocks @ blocks.swapaxes(-1, -2)  # G[m, j] = <D^m, D^j>
    if (gram[..., 0, 0] < DEGENERATE_TOL**2).any():
        raise DegenerateGradient("barrier gradient undefined at zero offset")
    orders = gram.reshape(gram.shape[:-2] + (n * n,)) @ _leibniz_weights(n)
    values = orders[..., :n].copy()
    values[..., 0] -= keep_out * keep_out
    d0 = blocks[..., 0, :]
    drift = 2.0 * np.einsum("...i,...i->...", d0, top_exo) + orders[..., n]
    return values, 2.0 * d0, drift


def assemble_row(
    kappa: EcbfCoefficients,
    dims: BrunovskyDims,
    x_self: np.ndarray,
    x_other: np.ndarray,
    keep_out: float | np.ndarray,
    radius_self: float | np.ndarray,
    radius_other: float | np.ndarray,
    top_exo: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Tightened eCBF row(s) ``a . v + b >= 0`` at the given nominal linearization state(s).

    The operands are those of ``lie_derivatives`` plus both chains' tube
    radii; ``kappa`` must hold one coefficient per chain order. Returns
    ``(a, b)``: ``a`` (..., d) and ``b`` carry the operands' stack axes.
    """
    values, a, b = lie_derivatives(dims, x_self, x_other, keep_out, top_exo)
    grad_norm = row_norm(a)
    margin = radius_self * grad_norm + radius_other * grad_norm
    for q in range(1, dims.n):
        b = b + kappa.kappa[q] * values[..., q]
    b = b + kappa.kappa[0] * (values[..., 0] - margin)
    return a, b
