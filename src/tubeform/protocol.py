"""Non-iterative plan exchange: radius broadcast, plan board and shift, leader relay.

Every exchanged quantity is one array over the followers: the board holds
all agents' last plans ``inputs (N, H, d)`` and terminal errors ``terminal
(N, nd)`` under the one ``stamp`` of their broadcast; ``shift_plan`` shifts
all senders' plans in one call; the leader relay is one sampling step of
delay per hop, so a whole run's ``(steps, N, nd)`` leader estimates are one
gather over the leader's samples by hop count. The neighbor predictions built
from the shifted plans are one batched ``ocp.rollout`` over all (reader,
sender) pairs; see ``sim.SimWorld``.

All communication is synchronous and lock-step: plans written during the
broadcast phase of step k are read only at step k+1, so there is never a
same-step circular dependency between agents.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteState, StalePlan
from .graph import CommGraph


class MessageBoard:
    """Shared per-step mailbox of all agents' plans, posted as one stamped broadcast.

    Stamps strictly increase; a stamp of -1 means nothing has been posted yet.
    """

    def __init__(self, n: int, horizon: int, d: int, nd: int):
        self.inputs = np.zeros((n, horizon, d))
        self.terminal = np.zeros((n, nd))
        self.stamp = -1
        self.posts = 0

    def post(self, stamp: int, inputs: np.ndarray, terminal: np.ndarray) -> None:
        """Every agent's plan from sampling instant ``stamp``, as one broadcast."""
        bad = ~(np.isfinite(inputs).all(axis=(1, 2)) & np.isfinite(terminal).all(axis=1))
        if bad.any():
            raise NonFiniteState(f"agent {np.argmax(bad) + 1}: plan carries non-finite values")
        if stamp <= self.stamp:
            raise StalePlan(f"broadcast re-posted stamp {stamp} (have {self.stamp})")
        self.inputs = np.array(inputs, dtype=float)  # a fresh copy: earlier reads stay valid
        self.terminal = np.array(terminal, dtype=float)
        self.stamp = stamp
        self.posts += len(self.inputs)

    def read(self, now: int) -> tuple[np.ndarray, np.ndarray]:
        """(inputs, terminal) from the previous sampling instant; StalePlan if older."""
        if self.stamp < 0 or self.stamp < now - 1:
            have = "none" if self.stamp < 0 else str(self.stamp)
            raise StalePlan(f"broadcast: need stamp {now - 1}, have {have}")
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


def relayed_estimates(leader: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """(steps, N, nd) relayed leader estimates from the (steps, nd) leader samples, one gather.

    Every agent holds the true leader state at deployment; at each later
    step a pinned agent copies the leader and every other one takes what an
    agent one hop nearer held the step before. So at step k a follower
    ``hops`` away holds the sample from min(k, hops) steps ago, its age.
    """
    k = np.arange(len(leader))[:, None]
    return leader[k - np.minimum(k, hops)]
