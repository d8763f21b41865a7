"""Communication topology, leader rooting, and the global formation-error bound.

The augmented Laplacian M = nu1 L + nu2 B0 is the one graph matrix: the
synchronization errors are -M q on the stacked offset-corrected chain
states, the exogenous error drive is nu1 A on the shifted plans (the
off-diagonal of -M), and the local deviation bounds are |M| r + nu2 b0 r0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphNotRooted
from .linalg import eig_sym


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

    def degree(self, i: int) -> float:
        return float(np.sum(self.adjacency[i]))

    def laplacian(self) -> np.ndarray:
        return np.diag(np.sum(self.adjacency, axis=1)) - self.adjacency

    def augmented(self) -> np.ndarray:
        """M = nu1 * L + nu2 * B0."""
        return self.nu1 * self.laplacian() + self.nu2 * np.diag(self.b0)

    def coupling(self, i: int) -> float:
        """nu1 * d_i + nu2 * b_i0, the gain on agent i's own input in e^i."""
        return self.nu1 * self.degree(i) + self.nu2 * float(self.b0[i])

    def sync_errors(self, q: np.ndarray) -> np.ndarray:
        """All followers' e^i = -M (q_i - q_0) from (N+1, ...) offset-corrected states, leader first."""
        return -self.augmented() @ (q[1:] - q[0])


def bfs_from_leader(g: CommGraph) -> tuple[list[int | None], list[int]]:
    """BFS over the augmented digraph from the leader.

    Returns (parent, depth) per follower, parent -1 meaning the leader,
    None/-(1) depth meaning unreachable. Ties break toward the lowest index.
    """
    n = g.n_followers
    parent: list[int | None] = [None] * n
    depth = [-1] * n
    queue: list[int] = []
    for i in range(n):
        if g.b0[i] > 0.0:
            parent[i] = -1
            depth[i] = 0
            queue.append(i)
    for j in queue:  # the queue grows while it is walked
        for i in range(n):
            if g.adjacency[i, j] > 0.0 and depth[i] < 0:
                parent[i] = j
                depth[i] = depth[j] + 1
                queue.append(i)
    return parent, depth


def has_leader_spanning_tree(g: CommGraph) -> bool:
    """True iff every follower is reachable from the leader node."""
    _, depth = bfs_from_leader(g)
    return all(d >= 0 for d in depth)


def min_singular_value(m: np.ndarray) -> float:
    """Smallest singular value via eig_sym of M^T M, clamped at zero."""
    w, _ = eig_sym(m.T @ m)
    return float(np.sqrt(max(0.0, w[0])))


@dataclass(frozen=True)
class GlobalBoundCertificate:
    """Minimum singular value of the augmented Laplacian and the error bound."""

    m: np.ndarray
    sv_min: float
    zbars: np.ndarray
    bound: float


def global_bound(g: CommGraph, radii: np.ndarray, r0: float) -> GlobalBoundCertificate:
    """Steady-state stacked formation-error bound from the followers' and the leader's radii.

    The local bounds on e^i - ebar^i are zbar = |M| r + nu2 b0 r0; the
    stacked bound is |zbar| / sv_min(M).
    """
    if not has_leader_spanning_tree(g):
        raise GraphNotRooted("no spanning tree rooted at the leader")
    m = g.augmented()
    zbars = np.abs(m) @ np.asarray(radii, dtype=float) + g.nu2 * g.b0 * r0
    sv = min_singular_value(m)
    bound = float(np.linalg.norm(zbars) / sv)
    return GlobalBoundCertificate(m=m, sv_min=sv, zbars=zbars, bound=bound)
