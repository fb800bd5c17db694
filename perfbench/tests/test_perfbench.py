"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.faults.outcomes import OutcomeClass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload at tiny size, untraced and traced."""
    out = {}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            done = bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                         "--trace", trace, "--tiny")
            assert done.returncode == 0, done.stderr[-3000:] + done.stdout[-3000:]
            lines = done.stdout.strip().splitlines()
            out[name, trace] = (json.loads(lines[-2])["perfbench"], json.loads(lines[-1]))
    return out


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(tiny_runs, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in WORKLOADS:
        details, result = tiny_runs[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected, name
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        if trace == "0":
            assert details[workloads.WORKLOADS[name].throughput_name]["value"] > 0
            assert all(result["metrics"][m]["value"] > 0 for m in expected)


def test_traced_run_keeps_fixed_counts(tiny_runs):
    for name in WORKLOADS:
        assert tiny_runs[name, "0"][0]["fixed_digest"] == tiny_runs[name, "1"][0]["fixed_digest"]


def test_shared_seed_gives_identical_campaigns(tiny_runs):
    assert tiny_runs["fi_pool", "0"][0]["fixed_digest"] == tiny_runs["fi_lockstep", "0"][0]["fixed_digest"]


def test_layers_light_up_where_predicted(tiny_runs):
    layers = {name: tiny_runs[name, "1"][1]["metrics"] for name in WORKLOADS}
    assert layers["bbw_stops"]["net.crc.calls"]["value"] > 0
    assert layers["bbw_stops"]["cpu.run.calls"]["value"] == 0
    assert layers["fi_pool"]["cpu.run.calls"]["value"] > 0  # recorded in workers
    assert layers["fi_pool"]["journal.append.calls"]["value"] > 0
    assert layers["fi_pool"]["cpu.batch.machines"]["value"] == 0
    assert layers["fi_lockstep"]["cpu.batch.step.calls"]["value"] > 0
    assert layers["fi_lockstep"]["sim.events"]["value"] == 0
    assert layers["reliability_sweep"]["reliability.mttf_integrand_calls"]["value"] > 0
    assert layers["reliability_sweep"]["net.deliver.calls"]["value"] == 0


def test_same_seed_repeats_fixed_counts():
    first = bench("--workload", "reliability_sweep", "--seed", "5", "--seconds", "0.1", "--tiny")
    second = bench("--workload", "reliability_sweep", "--seed", "5", "--seconds", "0.1", "--tiny")
    digest = [json.loads(d.stdout.splitlines()[-2])["perfbench"]["fixed_digest"]
              for d in (first, second)]
    assert digest[0] == digest[1]


# ----------------------------------------------------------------------
# Corrupted results are caught
# ----------------------------------------------------------------------

def test_corrupted_campaign_record_is_caught():
    workload = workloads.FiLockstep(3, ROOT, tiny=True)
    workload.setup()
    workload.unit(0)
    records = list(workload.first_records)
    assert workload.check_serial_rerun(records) == []
    outcome = OutcomeClass.MASKED if records[0].outcome is not OutcomeClass.MASKED else (
        OutcomeClass.NO_EFFECT
    )
    records[0] = dataclasses.replace(records[0], outcome=outcome)
    workload.RERUN_SAMPLE = len(records)  # sample every trial
    assert workload.check_serial_rerun(records)
    assert workload.check_other_path(records)


def test_failed_stop_is_caught():
    workload = workloads.BbwStops(3, ROOT, tiny=True)
    summary, _kernel, _events = workload.stop("fs", workload.burst(0))
    assert workload.check_stop("fs", summary) == []
    assert workload.check_stop("fs", dict(summary, stopped=False, speed_mps=1.0))
    assert workload.check_stop("fs", dict(summary, sim_now=summary["sim_now"] - 1))


def test_corrupted_reliability_output_is_caught():
    workload = workloads.ReliabilitySweep(3, ROOT, tiny=True)
    workload.setup()
    result = workload.unit(0)
    assert result.problems == [] and workload.check() == []
    point, (curve, subsystems, years) = workload.first_unit[0]
    assert workload.check_point(point, (curve[:5] + (1.5,) + curve[6:], subsystems, years), {})
    rising = list(curve)
    rising[3] = rising[2] + 1e-6
    assert workload.check_point(point, (tuple(rising), subsystems, years), {})
    earlier = {point: (curve, subsystems, years * 2)}
    assert workload.check_point(point, (curve, subsystems, years), earlier)
    nudged = list(curve)
    nudged[workload.CHECKED_TIME] -= 1e-6
    workload.first_unit[0] = (point, (tuple(nudged), subsystems, years))
    assert workload.check()


def test_corrupted_result_makes_the_command_fail(monkeypatch, capsys):
    evaluate = workloads.ReliabilitySweep.evaluate

    def corrupted(self, point):
        curve, subsystems, years = evaluate(self, point)
        return (curve[0] + 0.5,) + curve[1:], subsystems, years

    monkeypatch.setattr(workloads.ReliabilitySweep, "evaluate", corrupted)
    code = run.main(["--workload", "reliability_sweep", "--seconds", "0.1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "bbw_stops", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
