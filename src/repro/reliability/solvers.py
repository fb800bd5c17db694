"""Numerical solvers for CTMC transient and stationary analysis.

Three independent transient methods are provided; they cross-check each other
in the test suite:

``expm``
    pi(t) = pi(0) @ expm(Q t) via scipy's Pade-based matrix exponential.
    Exact up to floating point; the default.
``uniformization``
    Jensen's method: randomise the CTMC with rate LAMBDA >= max_i |q_ii| and
    sum Poisson-weighted DTMC powers.  Implemented from scratch (no scipy)
    with a truncation bound on the Poisson tail.
``ode``
    Integrate the Kolmogorov forward equations dpi/dt = pi Q with scipy's
    solve_ivp; useful for dense time grids.

All transient entry points consult :func:`repro.perf.fast_enabled` per call.
On the fast path, results and reusable intermediates (uniformization DTMC
powers, expm step matrices) are served from
:mod:`repro.reliability.solver_cache`; the uniformization fast path and
single-point memo hits are bit-identical to the reference algorithms, the
expm *grid* fast path replaces N independent matrix exponentials by one
scaled decomposition propagated along the grid (within solver tolerance —
see ``tests/property/test_solver_equivalence.py``).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .. import perf
from ..errors import ModelError
from ..obs import metrics as obs_metrics
from . import solver_cache
from .ctmc import MarkovChain

_METHODS = ("expm", "uniformization", "ode")


def transient_distribution(
    chain: MarkovChain, t: float, method: str = "expm", tol: float = 1e-12
) -> np.ndarray:
    """State-probability vector of *chain* at time *t* (hours)."""
    if t < 0:
        raise ModelError(f"time must be non-negative, got {t}")
    if method not in _METHODS:
        raise ModelError(f"unknown method {method!r}; choose from {_METHODS}")
    pi0 = chain.initial_distribution
    if t == 0:
        return pi0
    q = chain.generator_matrix()
    if perf.fast_enabled():
        entry = solver_cache.active_cache().entry(q)
        key = (method, float(t), float(tol), pi0.tobytes())
        cached = entry.point_result(key)
        if cached is None:
            with obs_metrics.span(f"solver.{method}"):
                if method == "expm":
                    cached = _clip(pi0 @ expm(q * t))
                elif method == "uniformization":
                    cached = _clip(
                        solver_cache.uniformization_cached(pi0, q, t, tol)
                    )
                else:
                    cached = _clip(_ode(pi0, q, [t])[-1])
            entry.store_point_result(key, cached)
        return cached.copy()
    with obs_metrics.span(f"solver.{method}"):
        if method == "expm":
            return _clip(pi0 @ expm(q * t))
        if method == "uniformization":
            return _clip(_uniformization(pi0, q, t, tol))
        return _clip(_ode(pi0, q, [t])[-1])


def transient_distributions(
    chain: MarkovChain, times: Sequence[float], method: str = "expm", tol: float = 1e-12
) -> np.ndarray:
    """State probabilities at several times; returns array (len(times), n).

    For the ``ode`` method all times are solved in one integration pass,
    which is much faster than repeated single-point solves on dense grids.
    On the fast path the ``expm`` method solves the whole grid with one
    scaled decomposition (step-matrix propagation) instead of one matrix
    exponential per point.
    """
    times = [float(t) for t in times]
    if not times:
        raise ModelError("time grid must not be empty")
    if any(t < 0 for t in times):
        raise ModelError("all times must be non-negative")
    if method == "ode" and times == sorted(times) and times[-1] > 0:
        pi0 = chain.initial_distribution
        q = chain.generator_matrix()
        with obs_metrics.span("solver.ode"):
            return np.vstack([_clip(row) for row in _ode(pi0, q, times)])
    if method == "expm" and perf.fast_enabled() and len(times) > 1:
        pi0 = chain.initial_distribution
        q = chain.generator_matrix()
        with obs_metrics.span("solver.expm"):
            grid = solver_cache.expm_grid_propagated(pi0, q, times)
        # t == 0 rows return pi0 exactly as the per-point reference does.
        return np.vstack([pi0 if t == 0.0 else _clip(grid[t]) for t in times])
    return np.vstack([transient_distribution(chain, t, method=method, tol=tol) for t in times])


def steady_state(chain: MarkovChain) -> np.ndarray:
    """Stationary distribution pi with pi Q = 0, sum(pi) = 1.

    Solved as a constrained linear system.  Chains with absorbing states
    reachable from everywhere trivially put all mass on the absorbing class;
    irreducibility is the caller's responsibility (we verify the result
    satisfies the balance equations and raise a :class:`ModelError` for
    singular systems).
    """
    q = chain.generator_matrix()
    n = q.shape[0]
    # Replace one balance equation by the normalisation constraint.
    a = np.vstack([q.T[:-1, :], np.ones((1, n))])
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        with obs_metrics.span("solver.steady_state"):
            pi, residual, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ModelError(f"steady-state solve failed: {exc}") from exc
    if rank < n:
        raise ModelError(
            f"chain {chain.name!r} has no unique stationary distribution "
            "(reducible chain?)"
        )
    if not np.allclose(pi @ q, 0.0, atol=1e-8):
        raise ModelError("stationary solution does not satisfy balance equations")
    return _clip(pi)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _clip(pi: np.ndarray) -> np.ndarray:
    """Clamp tiny negative round-off and renormalise."""
    pi = np.asarray(pi, dtype=float).ravel()
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if (pi < -1e-9).any():
        raise ModelError(f"solver produced significantly negative probability: {pi}")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise ModelError("solver produced an all-zero distribution")
    return pi / total


def _uniformization(pi0: np.ndarray, q: np.ndarray, t: float, tol: float) -> np.ndarray:
    """Jensen's uniformization: pi(t) = sum_k Pois(k; L t) pi0 P^k."""
    rate = float(np.max(-np.diag(q)))
    if rate == 0.0:
        return pi0.copy()
    # Modest inflation of the uniformization rate improves conditioning.
    rate *= 1.02
    p = np.eye(q.shape[0]) + q / rate
    lt = rate * t
    # Truncation point: mean + wide normal-tail margin, floor for small lt.
    k_max = int(lt + 8.0 * math.sqrt(lt) + 20.0)
    result = np.zeros_like(pi0)
    vector = pi0.copy()
    # Accumulate in log space to avoid overflow of lt^k / k!.
    log_weight = -lt  # log Poisson(0)
    accumulated = 0.0
    for k in range(k_max + 1):
        weight = math.exp(log_weight)
        result += weight * vector
        accumulated += weight
        if accumulated >= 1.0 - tol:
            break
        vector = vector @ p
        log_weight += math.log(lt) - math.log(k + 1)
    # Assign remaining tail mass to the last computed vector (standard
    # correction keeping the result a distribution).
    if accumulated < 1.0:
        result += (1.0 - accumulated) * vector
    return result


def _ode(pi0: np.ndarray, q: np.ndarray, times: List[float]) -> np.ndarray:
    """Integrate dpi/dt = pi Q, evaluating at *times* (sorted ascending)."""
    t_end = times[-1]
    solution = solve_ivp(
        fun=lambda _t, y: y @ q,
        t_span=(0.0, t_end),
        y0=pi0,
        t_eval=times,
        method="LSODA",
        rtol=1e-10,
        atol=1e-14,
    )
    if not solution.success:  # pragma: no cover - defensive
        raise ModelError(f"ODE transient solve failed: {solution.message}")
    return solution.y.T
