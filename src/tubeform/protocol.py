"""Non-iterative plan exchange: radius broadcast, plan shift, leader relay.

Three pure functions over arrays of all followers: ``initial_broadcast``
builds the one-time radius table; ``shift_plan`` shifts all senders' last
plans ``(N, H, d)`` by their terminal errors ``(N, nd)`` in one call; the
leader relay is one sampling step of delay per hop, so a whole run's
``(steps, N, nd)`` leader estimates are one gather over the leader's samples
by hop count. ``sim.SimWorld`` holds the last broadcast and builds the
neighbor predictions from the shifted plans, one batched ``ocp.rollout``
over all (reader, sender) pairs.

All communication is synchronous and lock-step: plans broadcast at step k
are read only at step k+1, so there is never a same-step circular
dependency between agents.
"""

from __future__ import annotations

import numpy as np

from .graph import CommGraph


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
