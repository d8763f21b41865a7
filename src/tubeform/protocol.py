"""Non-iterative plan exchange: radius broadcast, plan shift, leader relay.

Pure functions over arrays of all followers: ``protected_pairs`` lists the
ordered follower pairs that an eCBF row protects, every pair, and
``initial_broadcast`` builds the one-time radius table over them;
``shift_plan`` shifts all senders' last plans ``(N, H, d)`` by their
terminal errors ``(N, nd)`` in one call; the leader relay is one sampling
step of delay per hop, so a whole run's ``(steps, N, nd)`` leader estimates
are one gather over the leader's samples by hop count. ``sim.SimWorld`` holds the last broadcast and builds the
neighbor predictions from the shifted plans, one batched ``ocp.rollout``
over all (reader, sender) pairs.

All communication is synchronous and lock-step: plans broadcast at step k
are read only at step k+1, so there is never a same-step circular
dependency between agents.
"""

from __future__ import annotations

import numpy as np


def protected_pairs(followers: int) -> np.ndarray:
    """(N(N-1), 2) follower indices (i, j), i != j, in row-major order: reader i keeps a pair row
    against j's predicted chain. Every ordered pair is protected, graph neighbors or not."""
    return np.argwhere(~np.eye(followers, dtype=bool))


def initial_broadcast(margin_radii: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """One-time scalar radius exchange: table[i, j] = r_j for each protected pair (i, j), else 0.

    ``margin_radii`` holds r_1 .. r_N and ``pairs`` the ``protected_pairs``.
    Executed once; the number of scalar messages is the number of pairs, N(N-1).
    """
    radii = np.asarray(margin_radii, dtype=float)
    table = np.zeros((radii.size, radii.size))
    table[pairs[:, 0], pairs[:, 1]] = radii[pairs[:, 1]]
    return table


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
