"""System-level brake-by-wire model (Figure 5) and its headline measures.

The overall system is composed hierarchically, as in the paper: the central
unit and wheel-node subsystems are each solved as Markov chains, and a
two-input OR fault tree combines them (the BBW system fails if either
subsystem fails).  Because the subsystems are assumed statistically
independent, the tree evaluates to ``R_sys(t) = R_CU(t) * R_WN(t)``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..reliability import (
    MarkovChain,
    OrGate,
    markov_event,
    markov_reliability_fn,
    mean_time_to_first_absorption,
)
from ..reliability.faulttree import FaultTreeNode
from ..units import HOURS_PER_YEAR
from .central_unit import build_central_unit
from .parameters import BbwParameters
from .wheel_nodes import build_wheel_subsystem

NODE_TYPES = ("fs", "nlft")
MODES = ("full", "degraded")


@dataclasses.dataclass
class BbwSystemModel:
    """A fully assembled BBW reliability model for one configuration.

    Attributes
    ----------
    node_type:
        ``"fs"`` or ``"nlft"``.
    mode:
        ``"full"`` or ``"degraded"`` functionality requirement.
    central_unit / wheel_subsystem:
        The underlying Markov chains (Figures 6/7 and 8-11).
    fault_tree:
        The Figure 5 OR composition over the two subsystems.
    """

    node_type: str
    mode: str
    params: BbwParameters
    central_unit: MarkovChain
    wheel_subsystem: MarkovChain
    fault_tree: FaultTreeNode
    _cu_reliability: Callable[[float], float]
    _wn_reliability: Callable[[float], float]

    # ------------------------------------------------------------------
    def reliability(self, t: float) -> float:
        """System reliability R(t) at *t* hours."""
        return self.fault_tree.reliability(t)

    def subsystem_reliability(self, t: float) -> Dict[str, float]:
        """Reliability of each subsystem at *t* (for Figure 13)."""
        return {
            "central_unit": self._cu_reliability(t),
            "wheel_subsystem": self._wn_reliability(t),
        }

    def subsystem_reliability_curves(
        self, times: Sequence[float]
    ) -> Dict[str, List[float]]:
        """Per-subsystem R(t) over a whole time grid — one grid solve each.

        Delegates to
        :meth:`repro.reliability.ctmc.MarkovChain.transient_distributions`,
        so a uniform grid costs one matrix exponential on the fast path
        instead of one per point; the reference path solves point by point.
        """
        return {
            "central_unit": _chain_reliability_curve(self.central_unit, times),
            "wheel_subsystem": _chain_reliability_curve(self.wheel_subsystem, times),
        }

    def reliability_curve(self, times: Sequence[float]) -> List[float]:
        """System R(t) over a whole time grid (two grid solves).

        The Figure 5 fault tree is a two-input OR over independent
        subsystems, so ``R_sys(t) = R_CU(t) * R_WN(t)`` — the identical
        composition :meth:`reliability` evaluates point by point.
        """
        curves = self.subsystem_reliability_curves(times)
        return [
            cu * wn
            for cu, wn in zip(curves["central_unit"], curves["wheel_subsystem"])
        ]

    def mttf_hours(self) -> float:
        """Exact system MTTF in hours.

        The OR tree fails at the first subsystem absorption, so the MTTF is
        one fundamental-matrix solve over the Kronecker sum of the two
        chains (:func:`~repro.reliability.absorbing.mean_time_to_first_absorption`),
        the value integrating ``R_CU(t) * R_WN(t)`` would approach.
        """
        return mean_time_to_first_absorption([self.central_unit, self.wheel_subsystem])

    def mttf_years(self) -> float:
        """System MTTF in years (the unit the paper quotes)."""
        return self.mttf_hours() / HOURS_PER_YEAR

    def subsystem_mttf_hours(self) -> Dict[str, float]:
        """Exact (fundamental-matrix) MTTF of each Markov subsystem."""
        return {
            "central_unit": self.central_unit.mttf(),
            "wheel_subsystem": self.wheel_subsystem.mttf(),
        }

    def describe(self) -> str:
        """Readable summary of the configuration."""
        return (
            f"BBW[{self.node_type.upper()}, {self.mode}] "
            f"({self.params.describe()})"
        )


def _chain_reliability_curve(
    chain: MarkovChain, times: Sequence[float]
) -> List[float]:
    """R(t) of one subsystem chain over a grid via one batched solve."""
    failure_states = chain.absorbing_states()
    indices = [chain.state_index(s) for s in failure_states]
    probs = chain.transient_distributions(times)
    return [float(1.0 - row[indices].sum()) for row in probs]


def build_bbw_system(
    params: BbwParameters, node_type: str, mode: str
) -> BbwSystemModel:
    """Assemble the hierarchical BBW model for one configuration.

    Parameters
    ----------
    params:
        The rate/coverage record (use ``BbwParameters.paper()`` for the
        published study).
    node_type:
        ``"fs"`` for conventional fail-silent nodes, ``"nlft"`` for
        light-weight NLFT nodes.
    mode:
        ``"full"`` (all four wheel nodes required) or ``"degraded"``
        (three of four suffice).
    """
    if node_type not in NODE_TYPES:
        raise ConfigurationError(f"node_type must be one of {NODE_TYPES}, got {node_type!r}")
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    central_unit = build_central_unit(params, node_type)
    wheel_subsystem = build_wheel_subsystem(params, node_type, mode)
    cu_event = markov_event(central_unit, name="central-unit-failure")
    wn_event = markov_event(wheel_subsystem, name="wheel-subsystem-failure")
    tree = OrGate([cu_event, wn_event], name="bbw-system-failure")
    return BbwSystemModel(
        node_type=node_type,
        mode=mode,
        params=params,
        central_unit=central_unit,
        wheel_subsystem=wheel_subsystem,
        fault_tree=tree,
        _cu_reliability=markov_reliability_fn(central_unit),
        _wn_reliability=markov_reliability_fn(wheel_subsystem),
    )


def build_all_configurations(
    params: BbwParameters,
) -> Dict[Tuple[str, str], BbwSystemModel]:
    """All four (node_type, mode) configurations of the study."""
    return {
        (node_type, mode): build_bbw_system(params, node_type, mode)
        for node_type in NODE_TYPES
        for mode in MODES
    }
