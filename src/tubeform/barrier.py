"""Exponential CBF rows for the quadratic barrier on integrator chains.

Every eCBF row, obstacle or follower pair, tightens one barrier: the squared
position offset minus a squared keep-out radius, h = ||D^0||^2 - R^2, on the
offset chain D = x_i - x_other. ``x_other`` is another follower's predicted
chain or, for an obstacle, the constant chain (c, 0, ..., 0). The barrier is
position-level and quadratic, so every Lie derivative along the chain flow is
available in closed form through the Leibniz rule: with D^m the m-th
derivative chain block and D^n the top-order derivative (own input plus the
exogenous part),

    L^k h = sum_m binom(k, m) <D^m, D^{k-m}>.

Only the k = n derivative contains the input, entering through 2 <D^0, v>.
The tube tightening is r_i ||grad h|| + r_j ||grad h|| with the other
chain's broadcast radius r_j, which is 0 for an obstacle.

``assemble_row`` also returns each tightened row's gradient in the own state,
in closed form, so the OCP can linearize a row in the state its plan
reaches as well as in the input.

One agent's rows at one sampling step are data, a ``RowGrid`` of operands
per (step, obstacle + other follower) cell: ``RowGrid.rows`` evaluates them
with one ``assemble_row`` call into the ``BarrierRows`` block the OCP solves,
keeping the cells within the activation range by one rule for every cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    return _lie_terms(dims, _offset_blocks(dims, x_self, x_other), keep_out, top_exo)


def _offset_blocks(dims: BrunovskyDims, x_self: np.ndarray, x_other: np.ndarray) -> np.ndarray:
    """(..., n, d) derivative blocks D^m of the offset chain D = x_self - x_other."""
    n, d = dims.n, dims.d
    x_self, x_other = np.asarray(x_self), np.asarray(x_other)
    return x_self.reshape(*x_self.shape[:-1], n, d) - x_other.reshape(*x_other.shape[:-1], n, d)


def _lie_terms(dims: BrunovskyDims, blocks: np.ndarray, keep_out, top_exo: np.ndarray) -> tuple:
    """``lie_derivatives`` on the offset chain's (..., n, d) derivative ``blocks``."""
    n = dims.n
    gram = blocks @ blocks.swapaxes(-1, -2)  # G[m, j] = <D^m, D^j>
    if (gram[..., 0, 0] < DEGENERATE_TOL**2).any():
        raise DegenerateGradient("barrier gradient undefined at zero offset")
    orders = gram.reshape(gram.shape[:-2] + (n * n,)) @ _leibniz_weights(n)
    values = orders[..., :n]  # the product is this call's own array: h is written into it
    values[..., 0] -= keep_out * keep_out
    d0 = blocks[..., 0, :]
    drift = 2.0 * np.einsum("...i,...i->...", d0, top_exo) + orders[..., n]
    return values, 2.0 * d0, drift


@functools.lru_cache(maxsize=None)
def _state_weights(kappa: tuple[float, ...]) -> np.ndarray:
    """(n, n) Omega + Omega' with Omega = sum_k kappa_k W_k + W_n (kappa_n = 1), W_k the Leibniz
    weights of L^k h: the tightened row's quadratic part is D' (Omega (x) I_d) D on the offset chain."""
    n = len(kappa)
    omega = (_leibniz_weights(n) @ np.r_[kappa, 1.0]).reshape(n, n)
    out = omega + omega.T
    out.setflags(write=False)
    return out


def assemble_row(
    kappa: EcbfCoefficients,
    dims: BrunovskyDims,
    x_self: np.ndarray,
    x_other: np.ndarray,
    keep_out: float | np.ndarray,
    radius_self: float | np.ndarray,
    radius_other: float | np.ndarray,
    top_exo: np.ndarray,
    inputs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tightened eCBF row(s) ``a . v + b >= 0`` at the given nominal linearization state(s).

    The operands are those of ``lie_derivatives`` plus both chains' tube
    radii; ``kappa`` must hold one coefficient per chain order. Returns
    ``(a, b, grad)``: ``a`` (..., d), ``b`` and ``grad`` (..., nd) carry the
    operands' stack axes. ``grad`` is the gradient of ``a . v + b`` in the own
    state at the own nominal ``inputs`` v (..., d), zero when omitted: on the
    offset chain it is (Omega + Omega') D, plus 2 (top_exo + v) - 2 kappa_0
    (r_self + r_other) D^0 / ||D^0|| on the position block.
    """
    blocks = _offset_blocks(dims, x_self, x_other)
    values, a, b = _lie_terms(dims, blocks, keep_out, top_exo)
    grad_norm = np.linalg.norm(a, axis=-1)
    radii = radius_self + radius_other
    margin = radius_self * grad_norm + radius_other * grad_norm
    for q in range(1, dims.n):
        b = b + kappa.kappa[q] * values[..., q]
    b = b + kappa.kappa[0] * (values[..., 0] - margin)
    grad = _state_weights(kappa.kappa) @ blocks
    top = top_exo if inputs is None else top_exo + inputs
    grad[..., 0, :] += 2.0 * top - (2.0 * kappa.kappa[0] * radii / grad_norm)[..., None] * a
    return a, b, grad.reshape(*a.shape[:-1], dims.nd)


class BarrierRows(NamedTuple):
    """One block of barrier rows ``a[r] . v_step[r] + b[r] >= 0`` on the nominal inputs.

    ``step`` is in 0..H-2, the freely optimized inputs: the last input
    follows the terminal law. ``group`` tags each row with its entry of
    ``ocp.SLACK_PENALTY``: 0 for an obstacle row, 1 for an inter-agent row.
    ``grad`` is each row's gradient in the own nominal state at that step,
    at the inputs the block was evaluated with: ``ocp.build_qp`` linearizes
    the row there in both the input and the state it reaches.
    """

    step: np.ndarray  # (m,) int
    a: np.ndarray  # (m, d)
    b: np.ndarray  # (m,)
    group: np.ndarray  # (m,) int
    grad: np.ndarray  # (m, nd)


class RowGrid(NamedTuple):
    """One agent's ``assemble_row`` operands over the (step, obstacle + other follower) grid of one solve.

    The steps are the free inputs 0..H-2; the cells are the obstacles, as
    constant center chains, then the other followers, as predicted chains, by index.
    """

    kappa: EcbfCoefficients
    dims: BrunovskyDims
    x_other: np.ndarray  # (H-1, cells, nd) the other chains
    top_exo: np.ndarray  # (H-1, cells, d) own feedforward minus the other chain's top derivative
    keep_out: np.ndarray  # (cells,)
    margin: float  # the own tube radius
    radius_other: np.ndarray  # (cells,) 0 per obstacle, then each other follower's broadcast radius
    group: np.ndarray  # (cells,) 0 per obstacle, then 1 per other follower
    activation: float  # a cell is a row only within this distance of the other chain's position

    def rows(self, states: np.ndarray, inputs: np.ndarray) -> BarrierRows:
        """The rows at the (H+1, nd) nominal ``states`` and their (H, d) ``inputs``, the active
        cells in row-major order: per step, the cells within the activation range.

        A cell's input row is a = 2 (x - x_other) on the position block, so ||a|| <= 2 activation
        is the distance test, bit for bit: doubling scales each square and their sum by exactly 4.
        """
        steps = len(self.x_other)
        xs, vs = states[:steps, None], inputs[:steps, None]
        ops = self.x_other, self.keep_out, self.margin, self.radius_other, self.top_exo, vs
        a, b, grad = assemble_row(self.kappa, self.dims, xs, *ops)
        step, col = (np.linalg.norm(a, axis=-1) <= 2.0 * self.activation).nonzero()
        return BarrierRows(step, a[step, col], b[step, col], self.group[col], grad[step, col])
