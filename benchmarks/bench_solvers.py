"""Ablation benchmark — CTMC transient solver back-ends and the fast path.

Run:  pytest benchmarks/bench_solvers.py --benchmark-only -s [--json PATH]

Times the three independent transient solvers (matrix exponential,
uniformization, Kolmogorov ODE) on the paper's largest model (the 5-state
NLFT degraded wheel subsystem) and verifies they agree to tight tolerance.
This is the DESIGN.md ablation for the choice of default solver.

The grid benchmark is the PR's solver fast-path gate: a dense R(t) grid
solved with the SolverCache (one scaled decomposition propagated along the
grid) must be at least 2x faster than the reference path (one independent
matrix exponential per point) while agreeing within solver tolerance.

The system-MTTF gate holds the exact BBW system MTTF (one solve over the
Kronecker sum of the two subsystem chains) to the adaptive quadrature of
R_sys(t) it replaced: within 1e-8 relative and at least 50x faster.
"""

import numpy as np
import pytest

import common
from repro import perf
from repro.models import BbwParameters, build_bbw_system, build_wn_nlft_degraded
from repro.reliability import (
    clear_solver_cache,
    mttf_from_reliability,
    transient_distribution,
    transient_distributions,
)
from repro.units import HOURS_PER_YEAR

#: Uniformization must sum ~LAMBDA*t Poisson terms; with the paper's stiff
#: repair rates (mu = 2250/h) a year-long horizon needs ~2e7 terms (~50 s).
#: The ablation therefore compares the solvers at a 100 h horizon — long
#: enough for meaningful transients, short enough to time all three — and
#: the stiffness finding is documented here: for stiff dependability models
#: the matrix exponential is the right default, which is why it is ours.
HORIZON_HOURS = 100.0

#: The fast-path grid gate: points on the R(t) grid and required speedup.
GRID_POINTS = 201
REQUIRED_SPEEDUP = 2.0
BEST_OF = 3

#: The system-MTTF gate: quadrature horizon (R_sys is numerically zero long
#: before 80 years), agreement and required speedup of the exact solve.
MTTF_HORIZON_HOURS = 80.0 * HOURS_PER_YEAR
MTTF_TOLERANCE = 1e-8
MTTF_REQUIRED_SPEEDUP = 50.0


@pytest.fixture(scope="module")
def chain():
    return build_wn_nlft_degraded(BbwParameters.paper())


@pytest.fixture(scope="module")
def reference(chain):
    with perf.reference_path():
        return transient_distribution(chain, HORIZON_HOURS, method="expm")


@pytest.mark.parametrize("method", ["expm", "uniformization", "ode"])
def test_benchmark_transient_solver(benchmark, chain, reference, method):
    result = benchmark(
        lambda: transient_distribution(chain, HORIZON_HOURS, method=method)
    )
    assert np.allclose(result, reference, atol=1e-6)
    common.report(
        f"solvers.point_{method}",
        wall_s=common.benchmark_mean(benchmark),
        horizon_hours=HORIZON_HOURS,
    )


def test_benchmark_transient_grid_fast_vs_reference(chain):
    """The PR 3 acceptance gate: dense-grid transients >= 2x faster on the
    cached fast path, within tolerance of the reference path."""
    times = list(np.linspace(0.0, HORIZON_HOURS, GRID_POINTS))

    with perf.reference_path():
        ref_result = transient_distributions(chain, times, method="expm")
        ref_s = common.best_of(
            BEST_OF, lambda: transient_distributions(chain, times, method="expm")
        )

    def fast_cold():
        clear_solver_cache()
        return transient_distributions(chain, times, method="expm")

    fast_result = fast_cold()
    fast_s = common.best_of(BEST_OF, fast_cold)
    speedup = ref_s / max(fast_s, 1e-12)

    common.report(
        "solvers.grid_expm_fast",
        wall_s=fast_s,
        trials=GRID_POINTS,
        reference_s=round(ref_s, 6),
        speedup=round(speedup, 2),
    )
    assert np.allclose(fast_result, ref_result, atol=1e-9)
    assert np.allclose(fast_result.sum(axis=1), 1.0, atol=1e-12)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"solver fast path must be >= {REQUIRED_SPEEDUP}x the reference on "
        f"a {GRID_POINTS}-point grid, measured {speedup:.2f}x"
    )


def test_benchmark_mttf_exact_vs_integration(benchmark, chain):
    """Fundamental-matrix MTTF vs numerical integration of R(t)."""
    from repro.reliability import markov_reliability_fn

    exact = chain.mttf()
    integrated = benchmark.pedantic(
        lambda: mttf_from_reliability(
            markov_reliability_fn(chain), horizon=40 * HOURS_PER_YEAR
        ),
        rounds=1, iterations=1,
    )
    assert integrated == pytest.approx(exact, rel=1e-3)
    common.report("solvers.mttf_integration", wall_s=common.benchmark_mean(benchmark))


def test_benchmark_bbw_system_mttf_exact_vs_quadrature():
    """The system-MTTF gate on the FS degraded model: the exact solve agrees
    with the quadrature of R_sys(t) and is >= 50x faster.  Each call builds
    a fresh model, so no memoised R(t) point carries over between calls."""
    params = BbwParameters.paper()

    values = {}

    def fresh_model():
        clear_solver_cache()
        return build_bbw_system(params, "fs", "degraded")

    def exact():
        values["exact"] = fresh_model().mttf_hours()

    def quadrature():
        values["quadrature"] = mttf_from_reliability(
            fresh_model().reliability, horizon=MTTF_HORIZON_HOURS
        )

    exact_s = common.best_of(BEST_OF, exact)
    quadrature_s = common.best_of(1, quadrature)
    speedup = quadrature_s / max(exact_s, 1e-12)

    common.report(
        "solvers.bbw_system_mttf_exact",
        wall_s=exact_s,
        quadrature_s=round(quadrature_s, 6),
        speedup=round(speedup, 1),
    )
    assert values["exact"] == pytest.approx(values["quadrature"], rel=MTTF_TOLERANCE)
    assert speedup >= MTTF_REQUIRED_SPEEDUP, (
        f"exact system MTTF must be >= {MTTF_REQUIRED_SPEEDUP}x the quadrature, "
        f"measured {speedup:.1f}x"
    )
