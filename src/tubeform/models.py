"""Domain types: chain-of-integrators agents, declarative drift terms, disturbances, obstacles.

Drift functions are not arbitrary code. Each agent's drift is a tagged list
of parametric terms (linear state taps, cubics of position combinations,
tanh saturations, time sinusoids, squared-position/tanh cross couplings)
multiplied by a common outer gain. This keeps scenario files declarative,
serializable, and hashable. Every form is one setting of a single product,
so ``DriftTable.compile`` turns each agent's terms into one ``DriftTable``:
one value and one closed-form Jacobian evaluator serve the world, the
feedforward, the Lipschitz checks and the leader linearization, and several
agents' tables stack into one table evaluated row by row. Each agent's
disturbance is its ``DisturbanceConfig`` (a per-axis sinusoid or a seeded
ball); a team's configs compile into one ``DisturbanceStack``, which
evaluates one time or an array of times and draws its ball rows a block of
``BALL_BLOCK`` fine steps at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, ScenarioError

TERM_FORMS = ("state", "cubic", "tanh", "sin_t", "sq_tanh")
BALL_BLOCK = 1024  # fine-step indices per ball-disturbance draw


@dataclass(frozen=True)
class BrunovskyDims:
    """Chain order n, spatial dimension d per block, follower count N."""

    n: int
    d: int
    followers: int

    @property
    def nd(self) -> int:
        return self.n * self.d


def chain_matrices(dims: BrunovskyDims) -> tuple[np.ndarray, np.ndarray]:
    """Block upshift matrix A0 and top-order selector G for the chain."""
    n, d, nd = dims.n, dims.d, dims.nd
    a0 = np.zeros((nd, nd))
    for p in range(n - 1):
        a0[p * d : (p + 1) * d, (p + 1) * d : (p + 2) * d] = np.eye(d)
    g = np.zeros((nd, d))
    g[(n - 1) * d :, :] = np.eye(d)
    return a0, g


def chain_derivative(dims: BrunovskyDims, x: np.ndarray, top: np.ndarray, exo: np.ndarray | None = None) -> np.ndarray:
    """dx/dt for the chain (or a stack of chains) with the given top-order block derivative, or
    with ``top + exo`` there, added straight into the derivative."""
    d = dims.d
    out = np.empty_like(x)
    out[..., :-d] = x[..., d:]
    if exo is None:
        out[..., -d:] = top
    else:
        np.add(top, exo, out=out[..., -d:])
    return out


@dataclass(frozen=True)
class DriftTerm:
    """One additive term of a drift axis expression.

    form "state":   coeff * x[order, axis]
    form "cubic":   coeff * (sum_a weights[a] * x[order, a])^3
    form "tanh":    coeff * tanh(scale * x[order, axis])
    form "sin_t":   coeff * sin(freq * t + phase)
    form "sq_tanh": coeff * x[order, sq_axis]^2 * tanh(scale * x[order, axis])
    """

    form: str
    coeff: float
    order: int = 1
    axis: int = 0
    scale: float = 1.0
    freq: float = 0.0
    phase: float = 0.0
    weights: tuple[float, ...] = ()
    sq_axis: int = 0


class _DriftArrays(NamedTuple):
    u: np.ndarray
    expo: np.ndarray
    v: np.ndarray
    offset: np.ndarray
    freq: np.ndarray
    phase: np.ndarray
    scatter: np.ndarray


class DriftTable(_DriftArrays):
    """K terms ``(u.x)^expo (offset + tanh(v.x)) sin(freq t + phase)``, each scattered to its axis.

    ``scatter`` (K, d) holds -outer_gain * coeff; ``offset`` is 1 and ``phase`` pi/2
    where a term lacks that factor. A one-model table evaluates one ``(nd,)`` state
    or any ``(..., nd)`` stack; a ``stack`` (arrays led by R rows) evaluates
    ``(R, nd)`` rows, each by its model. The arrays are the table's only fields;
    what ``at`` derives from them is formed on first use and kept.
    """

    @classmethod
    def compile(
        cls, dims: BrunovskyDims, outer_gain: float, axes: tuple[tuple[DriftTerm, ...], ...]
    ) -> "DriftTable":
        """Drift f(x, t) = -outer_gain * sum(terms) per axis, compiled into one table."""
        n, d = dims.n, dims.d
        terms = [(axis, term) for axis, axis_terms in enumerate(axes) for term in axis_terms]
        u, v = np.zeros((2, len(terms), dims.nd))
        expo, freq = np.zeros((2, len(terms)))
        offset, phase = np.ones(len(terms)), np.full(len(terms), 0.5 * math.pi)
        scatter = np.zeros((len(terms), d))
        for k, (axis, term) in enumerate(terms):
            if not (1 <= term.order <= n and 0 <= term.axis < d and 0 <= term.sq_axis < d) or (
                term.form == "cubic" and len(term.weights) != d
            ):
                raise DimensionMismatch(f"drift term {term} does not fit {n} blocks of {d} axes")
            block = slice((term.order - 1) * d, term.order * d)
            scatter[k, axis] = -outer_gain * term.coeff
            if term.form == "state":
                u[k, block][term.axis], expo[k] = 1.0, 1.0
            elif term.form == "cubic":
                u[k, block], expo[k] = term.weights, 3.0
            elif term.form == "sin_t":
                freq[k], phase[k] = term.freq, term.phase
            else:  # tanh, and sq_tanh times x[order, sq_axis]^2
                v[k, block][term.axis], offset[k] = term.scale, 0.0
                if term.form == "sq_tanh":
                    u[k, block][term.sq_axis], expo[k] = 1.0, 2.0
        return cls(u, expo, v, offset, freq, phase, scatter)

    @classmethod
    def stack(cls, tables: Sequence["DriftTable"], rows: np.ndarray) -> "DriftTable":
        """Row r evaluates with ``tables[rows[r]]``; zero terms pad the shorter tables, with offset 1
        and phase pi/2 as ``compile`` marks absent factors, so tanh-free tables skip tanh in ``at``."""
        width = max(len(t.expo) for t in tables)
        pads = {"offset": 1.0, "phase": 0.5 * math.pi}
        fields = []
        for name, field in zip(cls._fields, zip(*tables)):
            stacked = np.full((len(tables), width, *field[0].shape[1:]), pads.get(name, 0.0))
            for table, a in zip(stacked, field):
                table[: len(a)] = a
            fields.append(stacked[rows])
        return cls(*fields)

    def value(self, x: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """Drift (..., d) at the states x (..., nd), at one time t or at times t (...) per state."""
        return self.at(x, self.sines(t))

    def sines(self, t: float | np.ndarray) -> np.ndarray:
        """The time factors sin(freq t + phase) at the times t (...): (..., K), or a stack's (..., R, K)."""
        angle = self.freq * np.asarray(t)[..., None]
        angle += self.phase
        return np.sin(angle, out=angle)

    def at(self, x: np.ndarray, sines: np.ndarray) -> np.ndarray:
        """Drift (..., d) at the states x (..., nd) with time factors ``sines`` that broadcast against them.

        The projections are one matrix-vector product per state, so a state's
        value does not depend on the other states (one matrix product over
        the stack would round some two-weight cubic projections differently).
        A one-model table raises to a power only the entries whose exponent is
        2 or 3: x^0 = 1 and x^1 = x hold bit for bit (also for -0.0, inf and
        NaN), and ``pow`` gives each entry the same bits wherever it sits.
        Every offset is 0 or 1, so where all are 1 the table has no tanh term
        and the factor (offset + tanh(v.x)) is exactly 1 at a finite state: it
        is skipped. A state term still makes the value non-finite at a
        non-finite state, through its projection.
        """
        tanh_free, linear, high, high_expo = self._at_constants
        ux = (self.u @ x[..., None])[..., 0]
        if linear is not None:
            power = np.where(linear, ux, 1.0)
            power[..., high] = ux[..., high] ** high_expo
        else:  # a row stack: masking each row's exponents costs more than it saves
            power = ux**self.expo
        if not tanh_free:
            power = power * (self.offset + np.tanh((self.v @ x[..., None])[..., 0]))
        terms = power * sines
        return (terms[..., None, :] @ self.scatter)[..., 0, :]

    @functools.cached_property
    def _at_constants(self) -> tuple:
        """What ``at`` reads of the table besides its arrays: whether no term has a tanh factor
        and, for a one-model table, its exponent-1 mask, its mask of exponents 2 and 3 and those
        exponents (None for a row stack)."""
        if self.expo.ndim != 1:
            return bool(self.offset.all()), None, None, None
        high = self.expo >= 2.0
        return bool(self.offset.all()), self.expo == 1.0, high, self.expo[high]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Drift Jacobian (..., d, nd) at the states x (..., nd); time-only terms drop out."""
        ux, vx = (self.u @ x[..., None])[..., 0], (self.v @ x[..., None])[..., 0]
        d_power = self.expo * ux ** np.maximum(self.expo - 1.0, 0.0)
        grad = (d_power * (self.offset + np.tanh(vx)))[..., None] * self.u
        grad += (ux**self.expo / np.cosh(vx) ** 2)[..., None] * self.v
        return self.scatter.swapaxes(-1, -2) @ grad


@dataclass(frozen=True)
class Box:
    """Axis-aligned box over the full chain state."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ScenarioError("box has lower bound above upper bound")

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lower) + np.asarray(self.upper))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo, hi = np.asarray(self.lower), np.asarray(self.upper)
        return lo + rng.random((count, len(self.lower))) * (hi - lo)


def sinusoid(amp, freq, phase, t):
    """The sinusoid disturbance ``amp * sin(freq * t + phase)``, entry by entry."""
    return amp * np.sin(freq * t + phase)


@dataclass(frozen=True)
class DisturbanceConfig:
    kind: str  # "sinusoid" or "ball"
    amp: tuple[float, ...] = ()
    freq: tuple[float, ...] = ()
    phase: tuple[float, ...] = ()
    bound: float = 0.0


class DisturbanceStack:
    """The agents' disturbances as one (rows, d) array per time, row r by ``configs[r]``.

    The sinusoid rows are one expression over their stacked amplitudes,
    frequencies and phases. A ball row is uniform in the ball of radius
    ``bound`` (a normal direction, radius ``bound * U^(1/d)``), one draw per
    fine-step index j. The draws come a block of ``BALL_BLOCK`` indices at a
    time: row r's block b is one generator seeded with (seed, r, b), and
    index j reads row j % BALL_BLOCK of block j // BALL_BLOCK. So a draw
    depends on the seed, the row and the index alone, not on the run length,
    the other rows or the other times evaluated with it. The index is taken at
    each time (``index``), so an RK4 substep over fine step j reads draw j at
    its first three stages and draw j + 1 at its last stage, at the step's end
    time. A stack keeps nothing from one call to the next.
    """

    def __init__(self, configs: list[DisturbanceConfig], d: int, seed: int, step_duration: float):
        self._configs, self._shape = configs, (len(configs), d)
        self._seed, self._step_duration = seed, step_duration
        self._sine_rows = [r for r, c in enumerate(configs) if c.kind == "sinusoid"]
        self._amp, self._freq, self._phase = (
            np.array([getattr(configs[r], f) for r in self._sine_rows], dtype=float).reshape(-1, d)
            for f in ("amp", "freq", "phase")
        )
        self._ball_rows = [r for r, c in enumerate(configs) if c.kind == "ball"]

    def draw(self, row: int, block: int) -> np.ndarray:
        """Row ``row``'s (BALL_BLOCK, d) ball draws for the fine-step indices of ``block``."""
        d = self._shape[1]
        rng = np.random.default_rng((self._seed, row, block))
        vec = rng.normal(size=(BALL_BLOCK, d))
        radius = self._configs[row].bound * rng.random(BALL_BLOCK) ** (1.0 / d)
        nrm = np.linalg.norm(vec, axis=1)
        scale = np.divide(radius, nrm, out=np.zeros(BALL_BLOCK), where=nrm != 0.0)
        return vec * scale[:, None]

    def index(self, t: float | np.ndarray) -> float | np.ndarray:
        """The fine-step index whose draw holds at time t (or at each time), as a whole float.

        The world's clock restarts at k ts and adds a step per substep, so by
        3,000 s it lands up to 2e-10 of a step below a boundary. 1e-6 of a step
        covers that; no stage time (a whole or half step) lies that close below one.
        """
        return np.floor(t / self._step_duration + 1e-6)

    def evaluate(self, t: float | np.ndarray) -> np.ndarray:
        """The read-only (..., rows, d) disturbances at the times t (...); each ball row draws
        every block its times reach once, then gathers by index."""
        shape, t = np.shape(t), np.ravel(t).astype(float)
        w = np.empty(t.shape + self._shape)
        if self._sine_rows:
            w[:, self._sine_rows, :] = sinusoid(self._amp, self._freq, self._phase, t[:, None, None])
        if self._ball_rows:
            blocks, j = np.divmod(self.index(t).astype(int), BALL_BLOCK)
            reached, at = np.unique(blocks, return_inverse=True)
            draws = np.array([[self.draw(r, b) for b in reached.tolist()] for r in self._ball_rows])
            w[:, self._ball_rows, :] = np.moveaxis(draws[:, at, j], 0, -2)
        w = w.reshape(shape + self._shape)
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class Obstacle:
    """Circular obstacle; the barrier uses radius + inflation as keep-out."""

    center: tuple[float, ...]
    radius: float
    inflation: float = 0.0

    @property
    def effective_radius(self) -> float:
        return self.radius + self.inflation


@dataclass(frozen=True)
class LyapunovPair:
    """Ancillary gain K with Lyapunov certificate (P, Q) for Acl = A0 - G K."""

    gain: np.ndarray  # (d, nd)
    acl: np.ndarray  # (nd, nd)
    p: np.ndarray
    q: np.ndarray
    lambda_min_p: float
    lambda_max_p: float
    lambda_min_q: float

    def residual(self) -> float:
        return float(np.linalg.norm(self.acl.T @ self.p + self.p @ self.acl + self.q, "fro"))
