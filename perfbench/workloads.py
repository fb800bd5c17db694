"""The benchmark's workloads: inputs made from the seed, one unit of work
at a time, and the checks on the program's outputs.

Each workload is a closed loop: the loop in ``run.py`` starts unit
``i + 1`` only after unit ``i`` returned.  A unit's inputs depend on the
workload seed and the unit index only, so unit ``i`` is the same work in
every run of one seed, traced or not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import runtime
from repro.apps.bbw_system import WHEEL_NODES, BbwConfig, BbwSimulation
from repro.apps.pedal import step_brake
from repro.experiments.coverage_table import (
    e5_fault_payloads,
    make_brake_workload,
    run_coverage_campaign,
)
from repro.faults.campaign import TemInjectionHarness
from repro.faults.outcomes import OutcomeClass
from repro.faults.types import FaultType
from repro.models import bbw
from repro.models.parameters import BbwParameters
from repro.reliability.solvers import transient_distribution
from repro.units import HOURS_PER_YEAR, seconds, ticks_to_seconds


@dataclasses.dataclass
class UnitResult:
    """What one unit of work produced."""

    #: Numerator of the throughput: trials, simulated seconds or points.
    amount: float
    #: Operations attempted and failed (stops, trials or model points).
    attempted: int
    failed: int
    #: Result counts that must repeat exactly for the unit's inputs.
    fixed: tuple
    #: Work counts summed into the per-layer metrics; they may change with
    #: an optimisation.
    work: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Failed per-operation checks, described.
    problems: List[str] = dataclasses.field(default_factory=list)


def derived_seed(seed: int, *words: int) -> int:
    """A 32-bit seed for one unit, from the workload seed."""
    return int(np.random.SeedSequence([seed, *words]).generate_state(1)[0])


class Workload:
    """Base class: a named, seeded stream of units plus their checks."""

    name = ""
    #: Name and unit of the throughput per host second (details line).
    throughput_name = ""
    throughput_unit = ""
    #: Modules a fresh interpreter imports before the first unit can run.
    imports: Tuple[str, ...] = ()
    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.root = root
        self.tiny = tiny

    def setup(self) -> None:
        """Program-side construction before the first unit."""

    def unit(self, index: int, probe: bool = False) -> UnitResult:
        """Unit *index*; *probe* adds the work :meth:`trace_probe` names."""
        raise NotImplementedError

    def trace_probe(self) -> Optional[str]:
        """Layer the traced run measures once more on unit 0 with extra,
        result-neutral work the timed run leaves out; None for none."""
        return None

    def check(self) -> List[str]:
        """Whole-run checks on the outputs; one line per failure."""
        return []

    def describe(self) -> Dict[str, object]:
        """Workload-specific facts printed with every result."""
        return {}

    def close(self) -> None:
        """Release what the workload created (temporary files)."""


# ----------------------------------------------------------------------
# bbw_stops
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Burst:
    """A seeded burst of transient faults for one FS/NLFT stop pair."""

    sim_seed: int
    faults: Tuple[Tuple[str, float], ...]  # (target node, time in s)


class BbwStops(Workload):
    """Back-to-back emergency stops, FS nodes then NLFT nodes, same burst.

    A burst hits two distinct wheel nodes and one central-unit replica, at
    seeded times early in the stop.  At most one CU replica and two wheel
    nodes go down at once, so both node kinds must still stop the vehicle
    within the stop time: the check on that is meaningful on every seed.
    """

    name = "bbw_stops"
    throughput_name = "sim_s_per_host_s"
    throughput_unit = "s/s"
    imports = ("repro.apps.bbw_system", "repro.apps.pedal", "repro.faults.types")

    STOP_S = 1.5
    INITIAL_SPEED_MPS = 6.0
    BRAKE_AT_S = 0.05
    FAULT_WINDOW_S = (0.1, 0.6)

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        super().__init__(seed, root, tiny)
        self.stop_s = 0.5 if tiny else self.STOP_S
        self.initial_speed_mps = 1.5 if tiny else self.INITIAL_SPEED_MPS

    def setup(self) -> None:
        for kind in ("fs", "nlft"):
            BbwSimulation(self._config(kind, self.seed))

    def _config(self, kind: str, sim_seed: int) -> BbwConfig:
        return BbwConfig(
            node_kind=kind,
            pedal=step_brake(self.BRAKE_AT_S),
            seed=sim_seed,
            initial_speed_mps=self.initial_speed_mps,
        )

    def burst(self, index: int) -> Burst:
        rng = np.random.default_rng(derived_seed(self.seed, index))
        wheels = [WHEEL_NODES[i] for i in rng.choice(len(WHEEL_NODES), 2, replace=False)]
        targets = wheels + [("cu_a", "cu_b")[int(rng.integers(2))]]
        rng.shuffle(targets)
        low, high = self.FAULT_WINDOW_S
        if self.tiny:
            low, high = low / 3, high / 3
        times = sorted(round(float(t), 3) for t in rng.uniform(low, high, size=len(targets)))
        return Burst(
            sim_seed=int(rng.integers(2**31)),
            faults=tuple(zip(targets, times)),
        )

    def stop(self, kind: str, burst: Burst) -> "tuple[dict, dict, int]":
        """One stop: returns ``(summary, summed JobStats, DES events)``."""
        simulation = BbwSimulation(self._config(kind, burst.sim_seed))
        for target, at_s in burst.faults:
            simulation.inject_fault(target, FaultType.TRANSIENT, at_s)
        simulation.run(self.stop_s)
        kernel = {"jobs_released": 0, "preemptions": 0, "deadline_misses": 0}
        for node in simulation.nodes.values():
            stats = node.kernel.stats
            kernel["jobs_released"] += stats.released
            kernel["preemptions"] += stats.preemptions
            kernel["deadline_misses"] += stats.deadline_misses
        summary = dict(simulation.summary())
        summary["sim_now"] = simulation.sim.now
        return summary, kernel, simulation.sim.events_executed

    def unit(self, index: int, probe: bool = False) -> UnitResult:
        burst = self.burst(index)
        fixed = [burst]
        work: Dict[str, float] = {}
        problems: List[str] = []
        failed = 0
        simulated_s = 0.0
        silent = {}
        for kind in ("fs", "nlft"):
            summary, kernel, events = self.stop(kind, burst)
            fixed.append(tuple(sorted(summary.items())) + tuple(sorted(kernel.items())))
            simulated_s += ticks_to_seconds(summary["sim_now"])
            silent[kind] = summary["fail_silent_total"]
            stop_problems = self.check_stop(kind, summary)
            problems += [f"stop {index}: {p}" for p in stop_problems]
            failed += bool(stop_problems)
            work["sim.events"] = work.get("sim.events", 0) + events
            for key, value in kernel.items():
                work["kernel." + key] = work.get("kernel." + key, 0) + value
            for key, name in (
                ("masked_total", "node.masked"),
                ("omissions_total", "node.omissions"),
                ("fail_silent_total", "node.fail_silent"),
            ):
                work[name] = work.get(name, 0) + summary[key]
        if silent["nlft"] > silent["fs"]:
            problems.append(
                f"stop {index}: NLFT fail-silent {silent['nlft']} > FS {silent['fs']}"
            )
            failed += 1
        return UnitResult(
            amount=simulated_s, attempted=2, failed=failed,
            fixed=tuple(fixed), work=work, problems=problems,
        )

    def check_stop(self, kind: str, summary: dict) -> List[str]:
        problems = []
        requested = seconds(self.stop_s)
        if summary["sim_now"] != requested:
            problems.append(
                f"{kind} stopped the clock at {summary['sim_now']} ticks, not {requested}"
            )
        if not summary["stopped"]:
            problems.append(f"{kind} vehicle still moving at {summary['speed_mps']:.3f} m/s")
        return problems

    def describe(self) -> Dict[str, object]:
        return {
            "stop_s": self.stop_s,
            "initial_speed_mps": self.initial_speed_mps,
            "faults_per_burst": 3,
        }


# ----------------------------------------------------------------------
# fi_pool / fi_lockstep
# ----------------------------------------------------------------------

class FaultInjection(Workload):
    """The E5 brake-task campaign, one campaign per unit."""

    throughput_name = "trials_per_s"
    throughput_unit = "1/s"
    imports = ("repro.experiments.coverage_table", "repro.faults.campaign")

    TRIALS = 2000
    #: True runs the campaign in numpy lockstep, False in the worker pool.
    lockstep = False
    #: Trials of the first campaign re-run serially by the correctness check.
    RERUN_SAMPLE = 16
    BATCH = 1024

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        super().__init__(seed, root, tiny)
        self.trials = 150 if tiny else self.TRIALS
        self.workers = min(2, os.cpu_count() or 1)
        self.harness: Optional[TemInjectionHarness] = None
        self.first_records: Optional[list] = None

    def setup(self) -> None:
        self.harness = TemInjectionHarness(make_brake_workload())  # golden run

    def campaign_seed(self, index: int) -> int:
        return derived_seed(self.seed, index)

    def campaign(self, index: int, lockstep: bool, journal: Optional[Path] = None):
        if lockstep:
            return run_coverage_campaign(
                experiments=self.trials, seed=self.campaign_seed(index), batch=self.BATCH,
            )
        return run_coverage_campaign(
            experiments=self.trials, seed=self.campaign_seed(index),
            workers=self.workers, journal_path=journal,
        )

    def run_campaign(self, index: int, journal: bool = False):
        raise NotImplementedError

    def unit(self, index: int, probe: bool = False) -> UnitResult:
        stats = self.run_campaign(index, probe).stats
        if index == 0 and not probe:
            self.first_records = list(stats.records)
        counts = stats.outcome_counts()
        copies = sum(record.copies_run for record in stats.records)
        injected = sum(1 for record in stats.records if record.copies_run > 0)
        work: Dict[str, float] = {"tem.copies": copies, "tem.trials": injected}
        for outcome in (
            OutcomeClass.NO_EFFECT, OutcomeClass.MASKED,
            OutcomeClass.OMISSION, OutcomeClass.FAIL_SILENT,
        ):
            work["faults." + outcome.value] = counts[outcome.value]
        problems = []
        if stats.total != self.trials:
            problems.append(
                f"campaign {index} classified {stats.total} of {self.trials} trials"
            )
        return UnitResult(
            amount=stats.total,
            attempted=self.trials,
            failed=stats.harness_failures + max(0, self.trials - stats.total),
            fixed=(
                tuple(sorted(counts.items())),
                copies,
                tuple(sorted(stats.mechanism_counts().items())),
            ),
            work=work,
            problems=problems,
        )

    def check(self) -> List[str]:
        return self.check_serial_rerun(self.first_records) + self.check_other_path(
            self.first_records
        )

    def check_serial_rerun(self, records: Optional[list]) -> List[str]:
        """Re-run a fixed sample of the first campaign's trials serially."""
        if not records:
            return ["no campaign ran"]
        # run_coverage_campaign appends its modelled kernel hits after the
        # injected trials, which stay in trial order.
        injected = [r for r in records if not r.fault_description.startswith("kernel hit #")]
        if records[: len(injected)] != injected:
            return ["campaign records are not in trial order"]
        payloads = e5_fault_payloads(len(injected), seed=self.campaign_seed(0))
        for record, (_copies, fault) in zip(injected, payloads):
            if record.fault_description != fault.describe():
                return [f"trial {fault.describe()!r} recorded as {record.fault_description!r}"]
        rng = np.random.default_rng(derived_seed(self.seed, 2**31))
        sample = sorted(rng.choice(len(injected), min(self.RERUN_SAMPLE, len(injected)),
                                   replace=False))
        problems = []
        for trial in sample:
            expected = self.harness.run_experiment(payloads[trial][1]).to_json()
            if injected[trial].to_json() != expected:
                problems.append(
                    f"trial {trial}: campaign {injected[trial].to_json()} "
                    f"!= serial {expected}"
                )
        return problems

    def check_other_path(self, records: Optional[list]) -> List[str]:
        """The pool and lockstep paths agree on the first campaign."""
        if not records:
            return []
        other = self.campaign(0, lockstep=not self.lockstep).stats.records
        if [r.to_json() for r in other] != [r.to_json() for r in records]:
            return [f"{self.name} and the other campaign path disagree on campaign 0"]
        return []

    def describe(self) -> Dict[str, object]:
        return {
            "trials_per_campaign": self.trials,
            "workers": 0 if self.lockstep else self.workers,
            "batch": self.BATCH if self.lockstep else 0,
        }


class FiPool(FaultInjection):
    """Worker-pool campaigns.

    The timed runs write no checkpoint journal: its fsyncs wait on the
    disk, whose latency no reference loop tracks, and with the journal the
    run-to-run spread reached 0.15-0.24 against 0.05 without.  The traced
    run measures the journal on its own instead: campaign 0 once more,
    journaled the way ``--resume`` runs are (``journal.*`` metrics).
    """

    name = "fi_pool"
    lockstep = False

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        super().__init__(seed, root, tiny)
        self._journal_dir: Optional[Path] = None

    def trace_probe(self) -> Optional[str]:
        return "journal"

    def run_campaign(self, index: int, journal: bool = False):
        if not journal:
            return self.campaign(index, lockstep=False)
        work = self.root / ".perfbench-work"
        work.mkdir(exist_ok=True)
        self._journal_dir = Path(tempfile.mkdtemp(dir=work))
        try:
            return self.campaign(index, lockstep=False,
                                 journal=self._journal_dir / f"campaign{index}.jsonl")
        finally:
            self.close()

    def close(self) -> None:
        if self._journal_dir is not None:
            shutil.rmtree(self._journal_dir, ignore_errors=True)
            try:
                self._journal_dir.parent.rmdir()
            except OSError:
                pass  # another run still uses it
            self._journal_dir = None


class FiLockstep(FaultInjection):
    """The same campaigns in-process, stepped in numpy lockstep."""

    name = "fi_lockstep"
    lockstep = True

    def run_campaign(self, index: int, journal: bool = False):
        return self.campaign(index, lockstep=True)


# ----------------------------------------------------------------------
# reliability_sweep
# ----------------------------------------------------------------------

Point = Tuple[float, float, str, str]  # coverage, transient scale, node type, mode


class ReliabilitySweep(Workload):
    """Seeded BBW model points from a finite grid, a share of them repeated.

    A unit evaluates every grid cell once, in a seeded order, with seeded
    repeats of earlier points mixed in.  Point costs differ by up to 3x
    across the grid, so covering the whole grid keeps the cost of a unit
    the same on every seed.  Each unit runs in a fresh run context: the
    solver cache starts empty, a repeat hits what the unit's own earlier
    point left behind, and the time per unit does not drift with the
    number of units run before it.
    """

    name = "reliability_sweep"
    throughput_name = "points_per_s"
    throughput_unit = "1/s"
    imports = ("repro.models.bbw", "repro.models.parameters", "repro.reliability.solvers")

    COVERAGES = (0.95, 0.99, 0.999)
    TRANSIENT_SCALES = (1.0, 4.0)
    #: Stated share of points in a unit that repeat an earlier point.
    REPEAT_SHARE = 0.25
    #: One year in hours: day one, then weekly.
    TIMES = (0.0, 24.0) + tuple(HOURS_PER_YEAR * week / 52 for week in range(1, 53))
    #: Agreement of R(t) with the uniformization solver (absolute).
    TOLERANCE = 1e-9
    #: Grid index the uniformization check solves at.  Jensen's method
    #: needs about (largest exit rate x t) terms, and restart and omission
    #: recovery rates are ~10^3/h, so the check stays at day one.
    CHECKED_TIME = 1

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        super().__init__(seed, root, tiny)
        self.coverages = self.COVERAGES[1:2] if tiny else self.COVERAGES
        self.scales = self.TRANSIENT_SCALES[:1] if tiny else self.TRANSIENT_SCALES
        self.grid: List[Point] = []
        self.params: Dict[Tuple[float, float], BbwParameters] = {}
        self.first_unit: Optional[List[Tuple[Point, tuple]]] = None

    def setup(self) -> None:
        paper = BbwParameters.paper()
        self.params = {
            (coverage, scale): paper.with_coverage(coverage).with_transient_scale(scale)
            for coverage in self.coverages
            for scale in self.scales
        }
        self.grid = [
            (coverage, scale, node_type, mode)
            for coverage, scale in self.params
            for node_type in bbw.NODE_TYPES
            for mode in bbw.MODES
        ]

    def points(self, index: int) -> "tuple[List[Point], List[bool]]":
        """The unit's points, and which of them repeat an earlier one."""
        rng = np.random.default_rng(derived_seed(self.seed, index))
        fresh = [self.grid[int(i)] for i in rng.permutation(len(self.grid))]
        repeats = round(len(fresh) * self.REPEAT_SHARE / (1 - self.REPEAT_SHARE))
        count = len(fresh) + repeats
        repeat_at = set(int(i) for i in rng.choice(np.arange(1, count), repeats, replace=False))
        next_fresh = iter(fresh)
        points: List[Point] = []
        for position in range(count):
            if position in repeat_at:
                points.append(points[int(rng.integers(position))])
            else:
                points.append(next(next_fresh))
        return points, [position in repeat_at for position in range(count)]

    def evaluate(self, point: Point) -> tuple:
        coverage, scale, node_type, mode = point
        model = bbw.build_bbw_system(self.params[(coverage, scale)], node_type, mode)
        curve = model.reliability_curve(self.TIMES)
        subsystems = model.subsystem_mttf_hours()
        years = model.mttf_years()
        return tuple(curve), tuple(sorted(subsystems.items())), years

    def unit(self, index: int, probe: bool = False) -> UnitResult:
        points, repeated = self.points(index)
        context = runtime.RunContext(runtime.RunConfig())
        outputs = []
        work = {"reliability.point_first_s": 0.0, "reliability.points_first": 0,
                "reliability.point_repeat_s": 0.0, "reliability.points_repeat": 0}
        with runtime.activate(context):
            for point, repeat in zip(points, repeated):
                started = time.perf_counter()
                outputs.append(self.evaluate(point))
                kind = "repeat" if repeat else "first"
                work[f"reliability.point_{kind}_s"] += time.perf_counter() - started
                work[f"reliability.points_{kind}"] += 1
        solver = context.metrics.snapshot().get("timers", {}).get("solver.expm", {})
        work["solver.expm.calls"] = solver.get("count", 0)
        work["solver.expm.s"] = solver.get("total_s", 0.0)
        problems = []
        failed = 0
        first_output: Dict[Point, tuple] = {}
        for position, (point, output) in enumerate(zip(points, outputs)):
            point_problems = self.check_point(point, output, first_output)
            problems += [f"unit {index} point {position}: {p}" for p in point_problems]
            failed += bool(point_problems)
        if index == 0:
            self.first_unit = list(zip(points, outputs))
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        return UnitResult(
            amount=len(points),
            attempted=len(points),
            failed=failed,
            fixed=(tuple(points), digest),
            work=work,
            problems=problems,
        )

    @staticmethod
    def check_point(point: Point, output: tuple, first_output: Dict[Point, tuple]) -> List[str]:
        """R(t) is a probability that never increases; repeats are exact."""
        curve, _subsystems, years = output
        problems = []
        if any(not 0.0 <= r <= 1.0 for r in curve):
            problems.append("R(t) outside [0, 1]")
        if any(later > earlier for earlier, later in zip(curve, curve[1:])):
            problems.append("R(t) increases")
        if not years > 0.0:
            problems.append(f"MTTF {years} years")
        if first_output.setdefault(point, output) != output:
            problems.append("repeat differs from its first evaluation")
        return problems

    def check(self) -> List[str]:
        """The first unit's first two points agree with uniformization."""
        if not self.first_unit:
            return ["no unit ran"]
        problems = []
        with runtime.activate(runtime.RunContext(runtime.RunConfig())):
            for point, (curve, _subsystems, _years) in self.first_unit[:2]:
                coverage, scale, node_type, mode = point
                model = bbw.build_bbw_system(self.params[(coverage, scale)], node_type, mode)
                at = self.TIMES[self.CHECKED_TIME]
                expected = 1.0
                for chain in (model.central_unit, model.wheel_subsystem):
                    pi = transient_distribution(chain, at, method="uniformization")
                    failed = sum(pi[chain.state_index(s)] for s in chain.absorbing_states())
                    expected *= 1.0 - failed
                if abs(curve[self.CHECKED_TIME] - expected) > self.TOLERANCE:
                    problems.append(
                        f"point {point} at {at} h: R={curve[self.CHECKED_TIME]!r}, "
                        f"uniformization {expected!r}"
                    )
        return problems

    def describe(self) -> Dict[str, object]:
        return {
            "fresh_points_per_unit": len(self.grid),
            "stated_repeat_share": self.REPEAT_SHARE,
        }


WORKLOADS = {
    cls.name: cls for cls in (BbwStops, FiPool, FiLockstep, ReliabilitySweep)
}
