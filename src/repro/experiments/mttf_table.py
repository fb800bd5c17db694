"""Experiment E2 — the headline MTTF/R(1 y) table (Section 3.4).

Paper numbers for the degraded-functionality configuration:

* R(1 year): 0.45 (FS) -> 0.70 (NLFT), a 55% increase;
* MTTF: 1.2 years (FS) -> 1.9 years (NLFT), an almost-60% increase.

This driver computes both measures for all four configurations and the
per-subsystem MTTFs.  All MTTFs are exact fundamental-matrix solves: the
system MTTF over the Kronecker sum of the two subsystem chains, the
subsystem MTTFs over each chain alone.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..models import BbwParameters, build_all_configurations
from ..units import HOURS_PER_YEAR
from .asciiplot import render_table

#: Paper anchors.
PAPER = {
    ("fs", "degraded"): {"r_1y": 0.45, "mttf_years": 1.2},
    ("nlft", "degraded"): {"r_1y": 0.70, "mttf_years": 1.9},
}


@dataclasses.dataclass
class MttfTableResult:
    """R(1 y) and MTTF for every configuration."""

    r_one_year: Dict[Tuple[str, str], float]
    mttf_years: Dict[Tuple[str, str], float]
    subsystem_mttf_years: Dict[Tuple[str, str], Dict[str, float]]

    @property
    def reliability_improvement(self) -> float:
        """Degraded-mode R(1 y) gain of NLFT over FS (0.55 = +55%)."""
        return (
            self.r_one_year[("nlft", "degraded")] / self.r_one_year[("fs", "degraded")]
            - 1.0
        )

    @property
    def mttf_improvement(self) -> float:
        """Degraded-mode MTTF gain of NLFT over FS."""
        return (
            self.mttf_years[("nlft", "degraded")] / self.mttf_years[("fs", "degraded")]
            - 1.0
        )

    def render(self) -> str:
        rows = []
        for key in sorted(self.r_one_year):
            node_type, mode = key
            anchor = PAPER.get(key, {})
            rows.append(
                (
                    f"{node_type}/{mode}",
                    self.r_one_year[key],
                    anchor.get("r_1y", "-"),
                    self.mttf_years[key],
                    anchor.get("mttf_years", "-"),
                )
            )
        table = render_table(
            ["configuration", "R(1y)", "paper R(1y)", "MTTF (years)", "paper MTTF"],
            rows,
            title="Headline dependability measures",
        )
        gains = (
            f"degraded-mode gains: reliability +{self.reliability_improvement * 100:.1f}% "
            f"(paper +55%), MTTF +{self.mttf_improvement * 100:.1f}% (paper ~+60%)"
        )
        return table + "\n" + gains


def compute_mttf_table(params: BbwParameters | None = None) -> MttfTableResult:
    """Compute the E2 table for all four configurations."""
    params = params if params is not None else BbwParameters.paper()
    models = build_all_configurations(params)
    r_one_year: Dict[Tuple[str, str], float] = {}
    mttf_years: Dict[Tuple[str, str], float] = {}
    subsystem: Dict[Tuple[str, str], Dict[str, float]] = {}
    for key, model in models.items():
        r_one_year[key] = model.reliability(HOURS_PER_YEAR)
        mttf_years[key] = model.mttf_years()
        subsystem[key] = {
            name: hours / HOURS_PER_YEAR
            for name, hours in model.subsystem_mttf_hours().items()
        }
    return MttfTableResult(
        r_one_year=r_one_year,
        mttf_years=mttf_years,
        subsystem_mttf_years=subsystem,
    )


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------

from .registry import experiment


@experiment(
    id="mttf_table",
    index="E2",
    title="Headline table - R(1y) and MTTF",
    anchors=("Section 5.2 (headline reliability / MTTF claims)",),
)
def _experiment(ctx) -> MttfTableResult:
    return compute_mttf_table()
