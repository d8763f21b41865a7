"""Non-iterative plan exchange: radius broadcast, plan board and shift, leader relay.

Every exchanged quantity is one array over the followers: the board holds
all agents' last plans ``inputs (N, H, d)``, terminal errors ``terminal
(N, nd)`` and ``stamps (N,)``; ``shift_plan`` shifts all senders' plans in
one call; the relay maps the ``(N, nd)`` leader estimates and ``(N,)`` ages
through the BFS relay tree, which is built once per run. The neighbor
predictions built from the shifted plans are one batched ``ocp.rollout``
over all (reader, sender) pairs; see ``sim.SimWorld``.

All communication is synchronous and lock-step: plans written during the
broadcast phase of step k are read only at step k+1, so there is never a
same-step circular dependency between agents.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphNotRooted, NonFiniteState, StalePlan
from .graph import CommGraph, bfs_from_leader


class MessageBoard:
    """Shared per-step mailbox of all agents' plans; stamps strictly increase.

    A stamp of -1 means the agent has posted nothing yet.
    """

    def __init__(self, n: int, horizon: int, d: int, nd: int):
        self.inputs = np.zeros((n, horizon, d))
        self.terminal = np.zeros((n, nd))
        self.stamps = np.full(n, -1)
        self.posts = 0

    def post(self, stamp: int, inputs: np.ndarray, terminal: np.ndarray) -> None:
        """Every agent's plan from sampling instant ``stamp``, as one broadcast."""
        bad = ~(np.isfinite(inputs).all(axis=(1, 2)) & np.isfinite(terminal).all(axis=1))
        if bad.any():
            raise NonFiniteState(f"agent {np.argmax(bad) + 1}: plan carries non-finite values")
        stale = stamp <= self.stamps
        if stale.any():
            i = int(np.argmax(stale))
            raise StalePlan(f"agent {i + 1} re-posted stamp {stamp} (have {self.stamps[i]})")
        self.inputs = np.array(inputs, dtype=float)  # a fresh copy: earlier reads stay valid
        self.terminal = np.array(terminal, dtype=float)
        self.stamps[:] = stamp
        self.posts += len(self.stamps)

    def read(self, now: int) -> tuple[np.ndarray, np.ndarray]:
        """(inputs, terminal) from the previous sampling instant; StalePlan if older."""
        old = (self.stamps < 0) | (self.stamps < now - 1)
        if old.any():
            i = int(np.argmax(old))
            have = "none" if self.stamps[i] < 0 else str(self.stamps[i])
            raise StalePlan(f"agent {i + 1}: need stamp {now - 1}, have {have}")
        return self.inputs, self.terminal


def initial_broadcast(margin_radii: np.ndarray, g: CommGraph) -> np.ndarray:
    """One-time scalar radius exchange: table[i, j] = r_j for j in N_i, else 0.

    ``margin_radii`` holds r_1 .. r_N. Executed once; the number of scalar
    messages equals the number of directed edges of the follower graph.
    """
    return np.where(g.adjacency > 0.0, np.asarray(margin_radii, dtype=float), 0.0)


def shift_plan(inputs: np.ndarray, terminal: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """(..., H, d) predicted inputs for the current instant from last instant's plans.

    Drops each sender's already-applied first input and appends its
    terminal law ``-K e`` applied to its broadcast terminal error; the
    (..., d, nd) ``gains`` broadcast against the (..., nd) ``terminal``.
    """
    tail = np.matmul(-gains, terminal[..., None]).swapaxes(-1, -2)
    return np.concatenate([inputs[..., 1:, :], tail], axis=-2)


def relay_parents(g: CommGraph) -> tuple[np.ndarray, np.ndarray]:
    """BFS relay tree (lowest-index tie-breaking) as int arrays (parent, depth).

    A pinned agent's parent is -1 (the leader). Raises if not rooted.
    """
    parent, depth = bfs_from_leader(g)
    if any(d < 0 for d in depth):
        raise GraphNotRooted("no spanning tree rooted at the leader")
    return np.array(parent, dtype=int), np.array(depth, dtype=int)


def relay_leader(
    parent: np.ndarray, leader_state: np.ndarray, previous: np.ndarray, ages: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous relay round: (N, nd) leader estimates and (N,) ages.

    Pinned agents (``parent`` -1) copy the exact current leader state at age
    0. Every other agent receives the estimate its BFS parent held at the
    previous step, one sampling step older (one step of delay per hop).
    """
    pinned = parent < 0
    return (
        np.where(pinned[:, None], leader_state, previous[parent]),
        np.where(pinned, 0, ages[parent] + 1),
    )
