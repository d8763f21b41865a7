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
ball); a team's configs compile into one ``DisturbanceStack``, evaluated once
per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ScenarioError

TERM_FORMS = ("state", "cubic", "tanh", "sin_t", "sq_tanh")


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


def chain_derivative(dims: BrunovskyDims, x: np.ndarray, top: np.ndarray) -> np.ndarray:
    """dx/dt for the chain (or a stack of chains) with the given top-order block derivative."""
    d = dims.d
    out = np.empty_like(x)
    out[..., :-d] = x[..., d:]
    out[..., -d:] = top
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


class DriftTable(NamedTuple):
    """K terms ``(u.x)^expo (offset + tanh(v.x)) sin(freq t + phase)``, each scattered to its axis.

    ``scatter`` (K, d) holds -outer_gain * coeff; ``offset`` is 1 and ``phase`` pi/2
    where a term lacks that factor. A one-model table evaluates one ``(nd,)`` state
    or any ``(..., nd)`` stack; a ``stack`` (arrays led by R rows) evaluates
    ``(R, nd)`` rows, each by its model.
    """

    u: np.ndarray
    expo: np.ndarray
    v: np.ndarray
    offset: np.ndarray
    freq: np.ndarray
    phase: np.ndarray
    scatter: np.ndarray

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
    def stack(cls, tables: list["DriftTable"], rows: np.ndarray) -> "DriftTable":
        """Row r evaluates with ``tables[rows[r]]``; all-zero terms pad the shorter tables."""
        width = max(len(t.expo) for t in tables)

        def pad(a: np.ndarray) -> np.ndarray:
            return np.pad(a, [(0, width - len(a))] + [(0, 0)] * (a.ndim - 1))

        return cls(*(np.stack([pad(a) for a in field])[rows] for field in zip(*tables)))

    def value(self, x: np.ndarray, t: float) -> np.ndarray:
        """Drift (..., d) at the states x (..., nd)."""
        ux, vx = (self.u @ x[..., None])[..., 0], (self.v @ x[..., None])[..., 0]
        terms = ux**self.expo * (self.offset + np.tanh(vx)) * np.sin(self.freq * t + self.phase)
        return (terms[..., None, :] @ self.scatter)[..., 0, :]

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
    ``bound``, one draw per fine-step index j, derived from (seed, r, j) alone.
    The index is taken at each call's own time, so an RK4 substep over fine
    step j reads draw j at its first three stages and draw j + 1 at its last
    stage, at the step's end time. The ball rows keep the last index's draws
    and draw again only when the index changes; keyed by index, the memo is
    exact for any order of times.
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
        self._index, self._draws = None, None

    def draw(self, row: int, j: int) -> np.ndarray:
        """Row ``row``'s ball draw for fine-step index j."""
        d = self._shape[1]
        rng = np.random.default_rng((self._seed, row, j))
        vec = rng.normal(size=d)
        nrm = np.linalg.norm(vec)
        if nrm == 0.0:
            return np.zeros(d)
        radius = self._configs[row].bound * rng.random() ** (1.0 / d)
        return vec * (radius / nrm)

    def __call__(self, t: float) -> np.ndarray:
        w = np.empty(self._shape)
        w[self._sine_rows] = sinusoid(self._amp, self._freq, self._phase, t)
        if self._ball_rows:
            j = math.floor(t / self._step_duration + 1e-12)
            if self._index != j:
                self._index, self._draws = j, np.array([self.draw(r, j) for r in self._ball_rows])
            w[self._ball_rows] = self._draws
        return w


@dataclass(frozen=True)
class AgentModel:
    """One agent: drift, disturbance, and its design-time constants.

    id 0 is the leader. ``drift_lipschitz`` must bound the drift's state
    Lipschitz constant over ``operating_box`` (spot-checked at certify time).
    """

    id: int
    drift: DriftTable
    drift_lipschitz: float
    disturbance: DisturbanceConfig
    disturbance_bound: float
    operating_box: Box

    def check_disturbance_bound(self, t_end: float, samples: int = 2000) -> None:
        """Declared bound >= sup |w|: exact for a ball, sampled for sinusoids."""
        dist = self.disturbance
        if dist.kind == "ball":
            # the draws come arbitrarily close to the radius
            worst, slack = dist.bound, 0.0
        else:
            w = sinusoid(dist.amp, dist.freq, dist.phase, np.linspace(0.0, t_end, samples)[:, None])
            worst = float(np.max(np.linalg.norm(w, axis=1)))
            slack = 1e-12
        if worst > self.disturbance_bound + slack:
            raise ScenarioError(
                f"agent {self.id}: disturbance reaches {worst:.6g}, "
                f"declared bound {self.disturbance_bound:.6g}"
            )

    def check_lipschitz(self, rng: np.random.Generator, pairs: int = 200) -> None:
        """Spot-check |f(a) - f(b)| <= L |a - b| on sampled box pairs."""
        a = self.operating_box.sample(rng, pairs)
        b = self.operating_box.sample(rng, pairs)
        gap = np.linalg.norm(a - b, axis=1)
        diff = np.linalg.norm(self.drift.value(a, 0.0) - self.drift.value(b, 0.0), axis=1)
        bad = (gap >= 1e-12) & (diff > self.drift_lipschitz * gap * (1.0 + 1e-9) + 1e-12)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ScenarioError(
                f"agent {self.id}: drift violates declared Lipschitz bound "
                f"({diff[i] / gap[i]:.6g} > {self.drift_lipschitz:.6g})"
            )


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
