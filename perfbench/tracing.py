"""Layer spans for the benchmark's traced run, recorded from outside ``src/``.

The traced run installs a :class:`Tracer`, which swaps public functions and
methods of each layer for wrappers that count calls and time them, and
restores the originals afterwards.  The program's code is never edited and
no wrapper changes an argument or a return value, so every result bit stays
the same; only host time is added, which the run reports as
``trace_overhead_frac``.

Spans recorded in forked campaign workers travel back through the program's
own per-trial metrics snapshots: a wrapper running outside the process that
installed the tracer records into :mod:`repro.obs.metrics` under the
``perfbench.`` prefix, the campaign supervisor merges those snapshots into
the caller's registry, and :meth:`Tracer.absorb` folds them in.
"""

from __future__ import annotations

import collections
import functools
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Prefix of the counters that forked workers record into repro.obs.metrics.
WORKER_PREFIX = "perfbench."

#: Callback layers of the DES, keyed by the defining package.
CALLBACK_LAYERS = ("net", "kernel", "core", "node", "apps")

_clock = time.perf_counter


def callback_layer(callback: Callable[..., Any]) -> str:
    """Layer of a scheduled callable: the ``repro`` package that defined it."""
    fn = getattr(callback, "func", callback)  # functools.partial
    module = getattr(fn, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in CALLBACK_LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """Counters and summed spans for one traced pass (a plain dict)."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = collections.defaultdict(float)
        self._pid = os.getpid()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._batch: Optional[Any] = None
        self._batch_steps = 0

    # ------------------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        if os.getpid() == self._pid:
            self.values[name] += value
        else:
            from repro.obs import metrics as obs_metrics

            obs_metrics.inc(WORKER_PREFIX + name, value)

    def absorb(self, snapshot: Optional[dict]) -> None:
        """Fold worker-side ``perfbench.*`` counters of a metrics snapshot."""
        for name, value in (snapshot or {}).get("counters", {}).items():
            if name.startswith(WORKER_PREFIX):
                self.values[name[len(WORKER_PREFIX):]] += value

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _swap(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        add = self.add

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name + ".s", _clock() - started)
                add(name + ".calls")

        return wrapper

    def time_method(self, owner: Any, attr: str, name: str) -> None:
        """Count and time calls of a plain, static or class method."""
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._swap(owner, attr, staticmethod(self._timed(name, raw.__func__)))
        elif isinstance(raw, classmethod):
            self._swap(owner, attr, classmethod(self._timed(name, raw.__func__)))
        else:
            self._swap(owner, attr, self._timed(name, raw))

    def install(self) -> "Tracer":
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.cpu.batch import BatchMachine
        from repro.cpu.machine import Machine
        from repro.faults.injector import MachineFaultInjector
        from repro.harness.journal import CampaignJournal
        from repro.harness.supervisor import CampaignSupervisor
        from repro.models import bbw
        from repro.net.controller import NetworkInterface
        from repro.net.frame import Frame
        from repro.sim.simulator import Simulator

        self._install_sim(Simulator)
        self.time_method(NetworkInterface, "deliver", "net.deliver")
        self.time_method(Frame, "compute_crc", "net.crc")
        self.time_method(Frame, "seal", "net.seal")
        self._install_cpu(Machine)
        self.time_method(MachineFaultInjector, "apply", "faults.inject")
        self._install_supervisor(CampaignSupervisor)
        self.time_method(CampaignJournal, "append", "journal.append")
        self.time_method(CampaignJournal, "sync", "journal.sync")
        self._install_batch(BatchMachine)
        self.time_method(bbw, "build_bbw_system", "models.build")
        self.time_method(bbw.BbwSystemModel, "reliability_curve", "reliability.curve")
        self.time_method(bbw.BbwSystemModel, "subsystem_mttf_hours", "reliability.sub_mttf")
        self.time_method(bbw.BbwSystemModel, "mttf_years", "reliability.mttf")
        self.time_method(bbw.BbwSystemModel, "reliability", "reliability.integrand")
        return self

    def uninstall(self) -> None:
        """Restore every original, newest swap first."""
        self.finish_batch()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _install_sim(self, simulator: Any) -> None:
        self.time_method(simulator, "run", "sim.run")
        schedule_at = simulator.__dict__["schedule_at"]
        values = self.values

        # schedule_after delegates to schedule_at, so wrapping the latter
        # sees every event exactly once.  The DES runs in this process only.
        @functools.wraps(schedule_at)
        def traced_schedule_at(sim: Any, time_: int, callback: Any, **kwargs: Any) -> Any:
            key = callback_layer(callback) + ".callbacks_s"

            def fire() -> Any:
                started = _clock()
                try:
                    return callback()
                finally:
                    values[key] += _clock() - started

            return schedule_at(sim, time_, fire, **kwargs)

        self._swap(simulator, "schedule_at", traced_schedule_at)

    def _install_cpu(self, machine: Any) -> None:
        run = machine.__dict__["run"]
        add = self.add

        @functools.wraps(run)
        def traced_run(*args: Any, **kwargs: Any) -> Any:
            started = _clock()
            result = run(*args, **kwargs)
            add("cpu.run.s", _clock() - started)
            add("cpu.run.calls")
            add("cpu.steps", result.steps)
            return result

        self._swap(machine, "run", traced_run)

    def _install_supervisor(self, supervisor: Any) -> None:
        run = supervisor.__dict__["run"]
        add = self.add

        @functools.wraps(run)
        def traced_run(sup: Any, payloads: Any) -> Any:
            result = run(sup, payloads)
            counters = result.harness_metrics.get("counters", {})
            durations = result.harness_metrics.get("histograms", {}).get(
                "harness.trial_duration_s", {}
            )
            add("harness.campaigns")
            add("harness.trials_dispatched", counters.get("harness.trials_dispatched", 0))
            add("harness.retries", counters.get("harness.retries", 0))
            add("harness.failures", len(result.failures))
            add("harness.trial_s", durations.get("total", 0.0))
            add("harness.worker_capacity_s", max(1, sup.config.workers) * result.elapsed_s)
            return result

        self._swap(supervisor, "run", traced_run)

    def _install_batch(self, batch_machine: Any) -> None:
        init = batch_machine.__dict__["__init__"]
        load_rom = batch_machine.__dict__["load_rom"]
        step = batch_machine.__dict__["step"]
        pop_evicted = batch_machine.__dict__["pop_evicted"]
        tracer = self
        values = self.values

        @functools.wraps(init)
        def traced_init(bm: Any, lanes: int, *args: Any, **kwargs: Any) -> None:
            # Settle the previous machine before this one allocates, so the
            # tracer never keeps two lane memories alive at once.
            tracer.finish_batch()
            started = _clock()
            init(bm, lanes, *args, **kwargs)
            values["cpu.batch.setup_s"] += _clock() - started
            values["cpu.batch.machines"] += 1
            values["cpu.batch.lanes"] += bm.lanes
            tracer._batch = bm
            tracer._batch_steps = 0

        @functools.wraps(load_rom)
        def traced_load_rom(bm: Any, *args: Any, **kwargs: Any) -> None:
            started = _clock()
            load_rom(bm, *args, **kwargs)
            values["cpu.batch.setup_s"] += _clock() - started

        @functools.wraps(step)
        def traced_step(bm: Any) -> bool:
            started = _clock()
            stepped = step(bm)
            values["cpu.batch.step.s"] += _clock() - started
            values["cpu.batch.step.calls"] += 1
            if stepped and bm is tracer._batch:
                tracer._batch_steps += 1
            return stepped

        @functools.wraps(pop_evicted)
        def traced_pop_evicted(bm: Any) -> Any:
            lanes = pop_evicted(bm)
            values["cpu.batch.evicted_lanes"] += len(lanes)
            return lanes

        self._swap(batch_machine, "__init__", traced_init)
        self._swap(batch_machine, "load_rom", traced_load_rom)
        self._swap(batch_machine, "step", traced_step)
        self._swap(batch_machine, "pop_evicted", traced_pop_evicted)

    def finish_batch(self) -> None:
        """Fold the live batch machine's retired instructions into the totals."""
        bm = self._batch
        if bm is None:
            return
        self.values["cpu.batch.lane_instructions"] += int(bm.instruction_count.sum())
        self.values["cpu.batch.lane_steps"] += bm.lanes * self._batch_steps
        self._batch = None
        self._batch_steps = 0
