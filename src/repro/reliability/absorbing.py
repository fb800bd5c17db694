"""Absorbing-chain analysis: mean time to failure and absorption probabilities.

For a CTMC with transient states T and absorbing states A, partition the
generator as::

        | Q_TT  Q_TA |
    Q = |  0     0   |

Then with initial distribution pi0 restricted to T:

* expected total time spent in the transient states before absorption
  (the **MTTF** when A are the failure states) is  pi0_T @ (-Q_TT)^-1 @ 1;
* the absorption probability into each absorbing state a is
  pi0_T @ (-Q_TT)^-1 @ Q_TA[:, a]  (plus any initial mass on a).

Independent absorbing chains run side by side form one product chain
whose transient states are the tuples of the chains' transient states.
Its transient block is the Kronecker sum Q_TT^1 (+) ... (+) Q_TT^n and its
initial vector the Kronecker product pi0_T^1 (x) ... (x) pi0_T^n, so the
same solve gives the mean time until the *first* chain is absorbed — the
MTTF of a series (OR-of-failures) composition, R(t) = R_1(t) ... R_n(t).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ModelError, NotAbsorbingError
from .ctmc import MarkovChain


def _partition(
    chain: MarkovChain, failure_states: Optional[Sequence[str]]
) -> tuple[List[int], List[int], np.ndarray]:
    """Return (transient indices, absorbing indices, Q)."""
    if failure_states is None:
        failure_states = chain.absorbing_states()
    if not failure_states:
        raise NotAbsorbingError(
            f"chain {chain.name!r} has no absorbing states and none were specified"
        )
    failure_set = set(failure_states)
    unknown = failure_set - set(chain.states)
    if unknown:
        raise ModelError(f"unknown failure states {sorted(unknown)}")
    q = chain.generator_matrix()
    absorbing = [chain.state_index(s) for s in chain.states if s in failure_set]
    transient = [chain.state_index(s) for s in chain.states if s not in failure_set]
    if not transient:
        raise ModelError("all states are failure states; MTTF is trivially zero")
    return transient, absorbing, q


def mean_time_to_absorption(
    chain: MarkovChain, failure_states: Optional[Sequence[str]] = None
) -> float:
    """Mean time (hours) until the chain enters a failure state.

    Raises :class:`NotAbsorbingError` if the failure states are unreachable
    from the initial distribution (the fundamental-matrix solve is singular).
    """
    transient, _, q = _partition(chain, failure_states)
    q_tt = q[np.ix_(transient, transient)]
    return _expected_time(q_tt, chain.initial_distribution[transient], f"chain {chain.name!r}")


def mean_time_to_first_absorption(chains: Sequence[MarkovChain]) -> float:
    """Mean time (hours) until the first of independent chains is absorbed.

    Each chain's absorbing states are its failure states, as in
    :func:`~repro.reliability.hierarchy.markov_event`, so this is the exact
    MTTF of the series composition R(t) = R_1(t) ... R_n(t) — the value
    :func:`~repro.reliability.measures.mttf_from_reliability` approximates
    by quadrature.  One solve over the Kronecker-sum transient block; its
    size is the product of the chains' transient-state counts.

    Raises :class:`NotAbsorbingError` if some chain has no absorbing state,
    or if no chain reaches its absorbing states (the solve is singular).
    """
    if not chains:
        raise ModelError("need at least one chain")
    q_sum = np.zeros((1, 1))
    pi0 = np.ones(1)
    for chain in chains:
        transient, _, q = _partition(chain, None)
        q_tt = q[np.ix_(transient, transient)]
        q_sum = np.kron(q_sum, np.eye(len(transient))) + np.kron(np.eye(len(q_sum)), q_tt)
        pi0 = np.kron(pi0, chain.initial_distribution[transient])
    names = ", ".join(repr(chain.name) for chain in chains)
    return _expected_time(q_sum, pi0, f"chains {names}")


def _expected_time(q_tt: np.ndarray, pi0: np.ndarray, what: str) -> float:
    """pi0 @ (-Q_TT)^-1 @ 1, guarded against unreachable failure states."""
    if pi0.sum() <= 0:
        return 0.0  # starts already absorbed
    try:
        # Solve (-Q_TT) tau = 1 for expected residence time vector tau.
        tau = np.linalg.solve(-q_tt, np.ones(len(pi0)))
    except np.linalg.LinAlgError as exc:
        raise NotAbsorbingError(
            f"failure states of {what} are not reachable from "
            "every transient state; MTTF is infinite"
        ) from exc
    if (tau <= 0).any():
        raise NotAbsorbingError(
            f"{what}: non-positive expected absorption time "
            "indicates the failure states are not almost-surely reached"
        )
    return float(pi0 @ tau)


def absorption_probabilities(
    chain: MarkovChain, failure_states: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Probability of eventually being absorbed into each failure state."""
    transient, absorbing, q = _partition(chain, failure_states)
    q_tt = q[np.ix_(transient, transient)]
    q_ta = q[np.ix_(transient, absorbing)]
    pi0_t = chain.initial_distribution[transient]
    pi0_a = chain.initial_distribution[absorbing]
    try:
        n_matrix = np.linalg.solve(-q_tt, q_ta)  # (-Q_TT)^-1 Q_TA
    except np.linalg.LinAlgError as exc:
        raise NotAbsorbingError(
            f"absorption probabilities undefined for chain {chain.name!r}"
        ) from exc
    probs = pi0_t @ n_matrix + pi0_a
    states = chain.states
    return {states[a]: float(p) for a, p in zip(absorbing, probs)}


def expected_visits(
    chain: MarkovChain, failure_states: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Expected total time (hours) spent in each transient state before
    absorption — useful for identifying where a subsystem spends its life."""
    transient, _, q = _partition(chain, failure_states)
    q_tt = q[np.ix_(transient, transient)]
    pi0 = chain.initial_distribution[transient]
    try:
        occupancy = np.linalg.solve(-q_tt.T, pi0)
    except np.linalg.LinAlgError as exc:
        raise NotAbsorbingError(
            f"expected visit times undefined for chain {chain.name!r}"
        ) from exc
    states = chain.states
    return {states[i]: float(v) for i, v in zip(transient, occupancy)}
