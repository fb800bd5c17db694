"""The repository benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bbw_stops --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload's units back to back for ``--seconds``
seconds and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of units twice, untraced and then traced, and prints the per-layer
metrics and the tracing overhead.  Both check the program's outputs.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (workload facts, environment stamp, named throughput, counts).
The exit code is 0 only when every check passed.

See ``perfbench/README.md`` for why each workload exists and what each
metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

#: Set-up is repeated this many times; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A timed run executes at least this many units, however long they take;
#: the traced run executes exactly this many, untraced and then traced.
MIN_UNITS = 3
#: Default workload seed.  Seed 7 is held back for confirming claims.
DEFAULT_SEED = 1
#: The gated times are in reference seconds: one reference second is the
#: host time in which the reference loop below runs this many iterations.
#: Host speed on shared machines drifts by tens of percent within minutes;
#: timing the loop next to every measurement cancels that drift.
REFERENCE_ITERATIONS_PER_S = 10_000_000
REFERENCE_ITERATIONS = 200_000

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "started = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - started)\n"
)


# ----------------------------------------------------------------------
# Per-layer metrics of the traced run: name, unit, value from the merged
# tracer spans and unit work counts.
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _callbacks(v: Dict[str, float]) -> float:
    return sum(value for name, value in v.items() if name.endswith(".callbacks_s"))


PER_LAYER: Tuple[Tuple[str, str, Callable[[Dict[str, float]], float]], ...] = (
    ("sim.events", "count", lambda v: v["sim.events"]),
    ("sim.loop_self_s", "s", lambda v: v["sim.run.s"] - _callbacks(v)),
    ("net.callbacks_s", "s", lambda v: v["net.callbacks_s"]),
    ("kernel.callbacks_s", "s", lambda v: v["kernel.callbacks_s"]),
    ("core.callbacks_s", "s", lambda v: v["core.callbacks_s"]),
    ("node.callbacks_s", "s", lambda v: v["node.callbacks_s"]),
    ("apps.callbacks_s", "s", lambda v: v["apps.callbacks_s"]),
    ("net.deliver.calls", "count", lambda v: v["net.deliver.calls"]),
    ("net.deliver.s", "s", lambda v: v["net.deliver.s"]),
    ("net.crc.calls", "count", lambda v: v["net.crc.calls"]),
    ("net.crc.s", "s", lambda v: v["net.crc.s"]),
    ("net.frames_sealed", "count", lambda v: v["net.seal.calls"]),
    ("net.crc_per_frame", "count/frame", lambda v: _ratio(v["net.crc.calls"], v["net.seal.calls"])),
    ("kernel.jobs_released", "count", lambda v: v["kernel.jobs_released"]),
    ("kernel.preemptions", "count", lambda v: v["kernel.preemptions"]),
    ("kernel.deadline_misses", "count", lambda v: v["kernel.deadline_misses"]),
    ("node.masked", "count", lambda v: v["node.masked"]),
    ("node.omissions", "count", lambda v: v["node.omissions"]),
    ("node.fail_silent", "count", lambda v: v["node.fail_silent"]),
    ("cpu.run.calls", "count", lambda v: v["cpu.run.calls"]),
    ("cpu.run.s", "s", lambda v: v["cpu.run.s"]),
    ("cpu.steps", "count", lambda v: v["cpu.steps"]),
    ("cpu.steps_per_s", "1/s", lambda v: _ratio(v["cpu.steps"], v["cpu.run.s"])),
    ("tem.copies_per_trial", "copies/trial", lambda v: _ratio(v["tem.copies"], v["tem.trials"])),
    ("faults.inject.calls", "count", lambda v: v["faults.inject.calls"]),
    ("faults.no_effect", "count", lambda v: v["faults.no_effect"]),
    ("faults.masked", "count", lambda v: v["faults.masked"]),
    ("faults.omission", "count", lambda v: v["faults.omission"]),
    ("faults.fail_silent", "count", lambda v: v["faults.fail_silent"]),
    ("harness.trials_dispatched", "count", lambda v: v["harness.trials_dispatched"]),
    ("harness.retries", "count", lambda v: v["harness.retries"]),
    ("harness.failures", "count", lambda v: v["harness.failures"]),
    ("harness.worker_busy_frac", "frac",
     lambda v: _ratio(v["harness.trial_s"], v["harness.worker_capacity_s"])),
    ("journal.append.calls", "count", lambda v: v["journal.append.calls"]),
    ("journal.append.s", "s", lambda v: v["journal.append.s"]),
    ("journal.sync.s", "s", lambda v: v["journal.sync.s"]),
    ("journal.overhead_frac", "frac", lambda v: v["journal.overhead_frac"]),
    ("cpu.batch.machines", "count", lambda v: v["cpu.batch.machines"]),
    ("cpu.batch.setup_s", "s", lambda v: v["cpu.batch.setup_s"]),
    ("cpu.batch.step.calls", "count", lambda v: v["cpu.batch.step.calls"]),
    ("cpu.batch.step.s", "s", lambda v: v["cpu.batch.step.s"]),
    ("cpu.batch.lane_util", "frac",
     lambda v: _ratio(v["cpu.batch.lane_instructions"], v["cpu.batch.lane_steps"])),
    ("cpu.batch.evicted_frac", "frac",
     lambda v: _ratio(v["cpu.batch.evicted_lanes"], v["cpu.batch.lanes"])),
    ("models.build.s", "s", lambda v: v["models.build.s"]),
    ("reliability.curve.s", "s", lambda v: v["reliability.curve.s"]),
    ("reliability.mttf.s", "s", lambda v: v["reliability.mttf.s"]),
    ("reliability.mttf_integrand_calls", "count", lambda v: v["reliability.integrand.calls"]),
    ("reliability.point_first_s", "s",
     lambda v: _ratio(v["reliability.point_first_s"], v["reliability.points_first"])),
    ("reliability.point_repeat_s", "s",
     lambda v: _ratio(v["reliability.point_repeat_s"], v["reliability.points_repeat"])),
    ("reliability.repeat_share", "frac",
     lambda v: _ratio(v["reliability.points_repeat"],
                      v["reliability.points_first"] + v["reliability.points_repeat"])),
    ("solver.expm.calls", "count", lambda v: v["solver.expm.calls"]),
    ("solver.expm.s", "s", lambda v: v["solver.expm.s"]),
)


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------

def _git_commit() -> "str | None":
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over ``src/`` (path and content), for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def import_seconds(modules: Sequence[str]) -> float:
    """Import time of *modules* in a fresh interpreter (interpreter start-up
    excluded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *modules],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reference_s() -> float:
    """Host seconds of one pass of the reference loop: fixed pure-Python
    integer arithmetic.  One contiguous pass, so a reading reflects the
    speed the program gets, slowdowns included."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def to_reference_s(host_s: float, references: Sequence[float]) -> float:
    """Convert host seconds to reference seconds at the median speed of the
    reference readings taken around the measurement."""
    loop_rate = REFERENCE_ITERATIONS / statistics.median(references)
    return host_s * loop_rate / REFERENCE_ITERATIONS_PER_S


def measure_setup(workload) -> Dict[str, object]:
    """Imports in a fresh interpreter plus in-process construction, repeated.

    ``setup_s`` is the median host time, converted to reference seconds
    with every reference reading of the run (see ``main``).
    """
    host, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(reference_s())
        imported = import_seconds(workload.imports)
        started = time.perf_counter()
        workload.setup()
        host.append(imported + time.perf_counter() - started)
    return {"host_s": host, "references": references}


def run_unit(workload, index: int, tracer=None, probe: bool = False):
    """One unit under a metrics capture; worker spans reach *tracer*."""
    from repro.obs import metrics as obs_metrics

    with obs_metrics.capture() as registry:
        result = workload.unit(index, probe=probe)
    if tracer is not None:
        tracer.absorb(registry.snapshot())
    return result


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def fixed_digest(results) -> str:
    """Digest of the first units' fixed counts, comparable across runs of
    one seed, traced or not."""
    return hashlib.sha256(repr([r.fixed for r in results[:MIN_UNITS]]).encode()).hexdigest()


def timed_run(workload, seconds: float) -> Dict[str, object]:
    """Closed loop of units for *seconds* of host time.

    The throughput is the run's total amount over the units' total time,
    per host second and per reference second.
    """
    results, rates, host_s_spent, references = [], [], [], []
    started = time.perf_counter()
    while len(results) < MIN_UNITS or time.perf_counter() - started < seconds:
        gc.collect()  # the previous unit's garbage is not this unit's cost
        references.append(reference_s())
        unit_started = time.perf_counter()
        result = run_unit(workload, len(results))
        host_s = time.perf_counter() - unit_started
        rates.append(result.amount / host_s)
        host_s_spent.append(host_s)
        results.append(result)
    references.append(reference_s())
    rss = peak_rss_mb()
    amount = sum(r.amount for r in results)
    return {
        "results": results, "rates": rates,
        "throughput": amount / to_reference_s(sum(host_s_spent), references),
        "references": references,
        "host_throughput": amount / sum(host_s_spent),
        "wall_s": time.perf_counter() - started, "peak_rss_mb": rss,
    }


def traced_run(workload) -> Dict[str, object]:
    """The same fixed units untraced, then traced."""
    from tracing import Tracer

    units = MIN_UNITS
    tracer = Tracer()
    gc.collect()
    before = reference_s()
    started = time.perf_counter()
    plain = [run_unit(workload, index) for index in range(units)]
    plain_host_s = time.perf_counter() - started
    gc.collect()
    middle = reference_s()
    started = time.perf_counter()
    with tracer:
        unit_started = time.perf_counter()
        traced = [run_unit(workload, 0, tracer)]
        traced_unit0_s = time.perf_counter() - unit_started
        traced += [run_unit(workload, index, tracer) for index in range(1, units)]
    traced_host_s = time.perf_counter() - started
    after = reference_s()
    problems = []
    probe = workload.trace_probe()
    if probe is not None:
        with tracer:
            started = time.perf_counter()
            probed = run_unit(workload, 0, tracer, probe=True)
            probe_host_s = time.perf_counter() - started
        if probed.fixed != traced[0].fixed:
            problems.append("unit 0: result counts differ with the probe on")
        tracer.values[probe + ".overhead_frac"] = probe_host_s / traced_unit0_s - 1.0
    plain_s = to_reference_s(plain_host_s, (before, middle))
    traced_s = to_reference_s(traced_host_s, (middle, after))
    problems += [
        f"unit {index}: traced result counts differ from untraced"
        for index, (a, b) in enumerate(zip(plain, traced))
        if a.fixed != b.fixed
    ]
    values: Dict[str, float] = dict(tracer.values)
    for result in traced:
        for name, value in result.work.items():
            values[name] = values.get(name, 0) + value
    merged = _Missing(values)
    metrics = {name: (fn(merged), unit) for name, unit, fn in PER_LAYER}
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    return {
        "results": plain + traced, "metrics": metrics,
        "problems": problems, "plain_host_s": plain_host_s, "traced_host_s": traced_host_s,
        "references": [before, middle, after],
    }


class _Missing(dict):
    """Counters a workload never touched read as zero."""

    def __missing__(self, key: str) -> float:
        return 0.0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv: "Sequence[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bbw_stops", "fi_pool", "fi_lockstep", "reliability_sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: "Sequence[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT, tiny=args.tiny)
    try:
        setup = measure_setup(workload)
        if args.trace:
            run = traced_run(workload)
        else:
            run = timed_run(workload, args.seconds)
        run_problems = run.get("problems", []) + workload.check()
    finally:
        workload.close()

    setup["setup_s"] = to_reference_s(
        statistics.median(setup["host_s"]), setup.pop("references") + run["references"]
    )
    results = run["results"]
    problems: List[str] = [p for r in results for p in r.problems] + run_problems
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results) + len(run_problems)
    details: Dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "units": len(results),
        "workload_facts": workload.describe(),
        "setup": setup,
        "fixed_digest": fixed_digest(results),
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
        "env": environment(),
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["metrics"].items()}
        details["plain_host_s"] = run["plain_host_s"]
        details["traced_host_s"] = run["traced_host_s"]
    else:
        metrics = {
            "ops_per_s": {"value": run["throughput"], "unit": "1/s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        details[workload.throughput_name] = {
            "value": run["host_throughput"],
            "unit": workload.throughput_unit,
            "per": "host second",
        }
        details["unit_rates"] = run["rates"]
        details["wall_s"] = run["wall_s"]
    print(json.dumps({"perfbench": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
