"""Non-iterative plan exchange: radius broadcast, plan shift, leader relay.

The neighbor predictions built from the shifted plans are one batched
``ocp.rollout`` over all (reader, sender) pairs; see ``sim.SimWorld``.

All communication is synchronous and lock-step: plans written during the
broadcast phase of step k are read only at step k+1, so there is never a
same-step circular dependency between agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphNotRooted, NonFiniteState, StalePlan
from .graph import CommGraph, bfs_from_leader


@dataclass(frozen=True)
class PlanMessage:
    """One agent's broadcast nominal input plan from sampling instant ``stamp``."""

    sender: int
    stamp: int
    inputs: np.ndarray  # (H, d)
    terminal_error: np.ndarray  # (nd,)

    def __post_init__(self):
        if not np.all(np.isfinite(self.inputs)) or not np.all(
            np.isfinite(self.terminal_error)
        ):
            raise NonFiniteState("plan message carries non-finite values")


class MessageBoard:
    """Shared per-step mailbox; enforces strictly increasing stamps per sender."""

    def __init__(self):
        self._latest: dict[int, PlanMessage] = {}
        self.posts = 0

    def post(self, msg: PlanMessage) -> None:
        prev = self._latest.get(msg.sender)
        if prev is not None and msg.stamp <= prev.stamp:
            raise StalePlan(
                f"agent {msg.sender} re-posted stamp {msg.stamp} (have {prev.stamp})"
            )
        self._latest[msg.sender] = msg
        self.posts += 1

    def read(self, sender: int, now: int) -> PlanMessage:
        """Plan from the previous sampling instant; StalePlan if older."""
        msg = self._latest.get(sender)
        if msg is None or msg.stamp < now - 1:
            have = "none" if msg is None else str(msg.stamp)
            raise StalePlan(f"agent {sender}: need stamp {now - 1}, have {have}")
        return msg


def initial_broadcast(margin_radii: np.ndarray, g: CommGraph) -> np.ndarray:
    """One-time scalar radius exchange: table[i, j] = r_j for j in N_i, else 0.

    ``margin_radii`` holds r_1 .. r_N. Executed once; the number of scalar
    messages equals the number of directed edges of the follower graph.
    """
    return np.where(g.adjacency > 0.0, np.asarray(margin_radii, dtype=float), 0.0)


def shift_plan(msg: PlanMessage, terminal_gain: np.ndarray) -> np.ndarray:
    """Predicted inputs for the current instant from last instant's plan.

    Drops the already-applied first element and appends the sender's
    terminal law applied to its broadcast terminal error.
    """
    tail = -terminal_gain @ msg.terminal_error
    return np.vstack([msg.inputs[1:], tail])


@dataclass(frozen=True)
class LeaderEstimate:
    """One agent's propagated leader state estimate."""

    hops: int
    value: np.ndarray
    age: int  # sampling steps since the source measurement


def relay_parents(g: CommGraph) -> tuple[list[int | None], list[int]]:
    """BFS relay tree (lowest-index tie-breaking); raises if not rooted."""
    parent, depth = bfs_from_leader(g)
    if any(d < 0 for d in depth):
        raise GraphNotRooted("no spanning tree rooted at the leader")
    return parent, depth


def relay_leader(
    g: CommGraph,
    leader_state: np.ndarray,
    previous: dict[int, LeaderEstimate] | None,
) -> dict[int, LeaderEstimate]:
    """One synchronous relay round.

    Pinned agents copy the exact current leader state. Every other agent
    receives the estimate its BFS parent held at the previous step (one
    sampling step of delay per hop). With ``previous`` None (deployment
    time), all agents are initialized with the true leader state.
    """
    parent, depth = relay_parents(g)
    estimates: dict[int, LeaderEstimate] = {}
    for i in range(g.n_followers):
        if depth[i] == 0 or previous is None:
            value, age = leader_state, 0
        else:
            src = previous[parent[i] + 1]
            value, age = src.value, src.age + 1
        estimates[i + 1] = LeaderEstimate(hops=depth[i], value=value.copy(), age=age)
    return estimates
