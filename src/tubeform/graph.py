"""Communication topology, leader rooting, and the global formation-error bound.

The augmented Laplacian M = nu1 L + nu2 B0 is the one graph matrix: the
synchronization errors are -M q on the stacked offset-corrected chain
states, each agent's coupling is its diagonal entry, the exogenous error
drive is nu1 A on the shifted plans (the off-diagonal of -M), and the local
deviation bounds are |M| r + nu2 b0 r0. M and each follower's hop count from
the leader are built on first use and kept with the graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GraphNotRooted


@dataclass(frozen=True)
class CommGraph:
    """Weighted follower digraph with leader pinning weights.

    adjacency[i, j] = a_ij > 0 iff agent i listens to agent j (edge j -> i),
    using 0-based follower indices. b0[i] > 0 iff agent i is pinned to the
    leader. nu1, nu2 are the coupling scalars of the synchronization error.
    The adjacency's shape, signs and zero diagonal are checked at parse.
    """

    adjacency: np.ndarray
    b0: np.ndarray
    nu1: float = 1.0
    nu2: float = 1.0

    @property
    def n_followers(self) -> int:
        return self.adjacency.shape[0]

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.n_followers) if self.adjacency[i, j] > 0.0]

    @functools.cached_property
    def m(self) -> np.ndarray:
        """M = nu1 L + nu2 B0; m[i, i] = nu1 d_i + nu2 b_i0 is the gain on agent i's own input."""
        laplacian = np.diag(np.sum(self.adjacency, axis=1)) - self.adjacency
        m = self.nu1 * laplacian + self.nu2 * np.diag(self.b0)
        m.setflags(write=False)
        return m

    @functools.cached_property
    def hops(self) -> np.ndarray:
        """(N,) int hop counts from the leader over the augmented digraph: the BFS depths.

        A pinned agent is 0 hops away. Raises ``GraphNotRooted`` if a
        follower is unreachable.
        """
        hops = np.where(self.b0 > 0.0, 0, -1)
        for level in range(1, self.n_followers):  # a hop count is below N
            listens = np.any(self.adjacency[:, hops == level - 1] > 0.0, axis=1)
            hops[listens & (hops < 0)] = level
        if np.any(hops < 0):
            raise GraphNotRooted("no spanning tree rooted at the leader")
        hops.setflags(write=False)
        return hops

    def sync_errors(self, q: np.ndarray) -> np.ndarray:
        """All followers' e^i = -M (q_i - q_0) from (N+1, ...) offset-corrected states, leader first."""
        return -self.m @ (q[1:] - q[0])


@dataclass(frozen=True)
class GlobalBoundCertificate:
    """Minimum singular value of the augmented Laplacian and the error bound."""

    sv_min: float
    zbars: np.ndarray
    bound: float


def global_bound(g: CommGraph, radii: np.ndarray, r0: float) -> GlobalBoundCertificate:
    """Steady-state stacked formation-error bound from the followers' and the leader's radii.

    The local bounds on e^i - ebar^i are zbar = |M| r + nu2 b0 r0; the
    stacked bound is |zbar| / sv_min(M).
    """
    g.hops  # raises GraphNotRooted: the bound holds only on a rooted graph
    zbars = np.abs(g.m) @ np.asarray(radii, dtype=float) + g.nu2 * g.b0 * r0
    sv = float(np.linalg.norm(g.m, -2))  # sigma_min from numpy's SVD
    bound = float(np.linalg.norm(zbars) / sv)
    return GlobalBoundCertificate(sv_min=sv, zbars=zbars, bound=bound)
