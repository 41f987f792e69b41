"""The E4 standard burn-in suite (paper Section I).

"All the nodes will be assembled and tested using the E4 standard
burn-in suite by the end of March."

A burn-in run stresses a freshly-assembled node through a sequence of
patterns and checks its behaviour against the acceptance envelope:

* **power-virus soak** — everything flat out; power must land inside the
  expected band (a short node = too low, a damaged VRM = too high) and
  every die must hold below the thermal limit on the bench cooling;
* **component sweep** — each GPU and socket exercised alone; a rail that
  does not respond marks a dead component;
* **sensor sanity** — the gateway's rail readings must sum to the node
  reading within tolerance and must not be stuck.

The acceptance envelope is one set of module constants: the power band,
the soak on 35 degC bench coolant, the die limit the firmware throttles
at (:data:`repro.cooling.throttling.DIE_LIMIT_C`) and the rail-sum
tolerance.  The suite returns a structured report; a node ships only
when every check passes.  Measured rail readings can be injected into
:meth:`BurnInSuite.run` (a faulty gateway) to verify the suite actually
catches broken instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cooling.thermal import LIQUID_COOLED_CPU, LIQUID_COOLED_GPU
from ..cooling.throttling import DIE_LIMIT_C
from .node import ComputeNode

__all__ = ["BurnInCheck", "BurnInReport", "BurnInSuite"]

#: Power-virus acceptance band: a short node reads too low, a damaged VRM
#: too high.
POWER_BAND_W = (1700.0, 2100.0)
#: Bench coolant temperature of the thermal soak.
COOLANT_TEMP_C = 35.0
#: Allowed relative gap between the rail sum and the node reading.
RAIL_SUM_TOLERANCE = 0.02
#: Length of the thermal soak.
SOAK_DURATION_S = 1800.0


@dataclass(frozen=True)
class BurnInCheck:
    """One check's outcome."""

    name: str
    passed: bool
    detail: str
    value: float | None = None


@dataclass(frozen=True)
class BurnInReport:
    """The full acceptance report for one node."""

    node_id: int
    checks: tuple[BurnInCheck, ...]

    @property
    def passed(self) -> bool:
        """Ship/no-ship."""
        return all(c.passed for c in self.checks)

    def failures(self) -> list[BurnInCheck]:
        """The checks that failed."""
        return [c for c in self.checks if not c.passed]


class BurnInSuite:
    """The acceptance-test harness for Garrison nodes."""

    # -- individual stress patterns ------------------------------------------------
    def power_virus_check(self, node: ComputeNode) -> list[BurnInCheck]:
        """Everything flat out: power band + thermal soak per die."""
        node.apply_power_cap(None)
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        p = node.power_w()
        lo, hi = POWER_BAND_W
        checks = [
            BurnInCheck(
                name="power-virus power band",
                passed=lo <= p <= hi,
                detail=f"{p:.0f} W (accept [{lo:.0f}, {hi:.0f}])",
                value=p,
            )
        ]
        bd = node.power_breakdown()
        worst_gpu = max(bd.gpus)
        worst_cpu = max(bd.cpus)
        for label, watts, chain in (
            ("GPU", worst_gpu, LIQUID_COOLED_GPU(COOLANT_TEMP_C)),
            ("CPU", worst_cpu, LIQUID_COOLED_CPU(COOLANT_TEMP_C)),
        ):
            chain.run(watts, duration_s=SOAK_DURATION_S, dt_s=10.0)
            t = chain.die_temp_c
            checks.append(
                BurnInCheck(
                    name=f"thermal soak ({label})",
                    passed=t < DIE_LIMIT_C,
                    detail=f"die {t:.1f} degC after {SOAK_DURATION_S:.0f} s "
                           f"(limit {DIE_LIMIT_C:.0f})",
                    value=t,
                )
            )
        node.idle()
        return checks

    def component_sweep(self, node: ComputeNode) -> list[BurnInCheck]:
        """Exercise each GPU and socket alone: the rail must respond."""
        checks = []
        for g in range(len(node.gpus)):
            util = [0.0] * len(node.gpus)
            util[g] = 1.0
            node.set_utilization(cpu=0.1, gpu=util, memory_intensity=0.1)
            rail = node.power_breakdown().gpus[g]
            floor = node.gpus[g].spec.idle_w
            responds = rail > floor * 2
            checks.append(
                BurnInCheck(
                    name=f"gpu{g} responds under load",
                    passed=responds,
                    detail=f"rail {rail:.0f} W (idle floor {floor:.0f} W)",
                    value=rail,
                )
            )
        for c in range(len(node.cpus)):
            util = [0.0] * len(node.cpus)
            util[c] = 1.0
            node.set_utilization(cpu=util, gpu=0.0, memory_intensity=0.3)
            rail = node.power_breakdown().cpus[c]
            floor = node.cpus[c].spec.idle_w
            checks.append(
                BurnInCheck(
                    name=f"cpu{c} responds under load",
                    passed=rail > floor * 1.5,
                    detail=f"rail {rail:.0f} W (idle floor {floor:.0f} W)",
                    value=rail,
                )
            )
        node.idle()
        return checks

    def sensor_sanity(self, node: ComputeNode, readings: dict[str, float] | None = None) -> list[BurnInCheck]:
        """Rail readings must sum to the node reading within tolerance.

        ``readings`` injects measured rail values (e.g. from a faulty
        gateway); defaults to the node's true breakdown.
        """
        node.set_utilization(cpu=0.5, gpu=0.5, memory_intensity=0.5)
        truth = node.power_breakdown().as_dict()
        measured = dict(readings) if readings is not None else truth
        missing = sorted(set(truth) - set(measured))
        checks = []
        if missing:
            checks.append(
                BurnInCheck(
                    name="all rails instrumented",
                    passed=False,
                    detail=f"missing rails: {missing}",
                )
            )
        else:
            checks.append(BurnInCheck(name="all rails instrumented", passed=True, detail="ok"))
            total_true = sum(truth.values())
            total_meas = sum(measured.values())
            err = abs(total_meas - total_true) / total_true
            checks.append(
                BurnInCheck(
                    name="rail sum matches node power",
                    passed=err <= RAIL_SUM_TOLERANCE,
                    detail=f"rail sum off by {err * 100:.2f}% "
                           f"(tolerance {RAIL_SUM_TOLERANCE * 100:.0f}%)",
                    value=err,
                )
            )
        node.idle()
        return checks

    # -- the full suite ----------------------------------------------------------------
    def run(self, node: ComputeNode, sensor_readings: dict[str, float] | None = None) -> BurnInReport:
        """Run every pattern; returns the acceptance report."""
        checks = (
            self.power_virus_check(node)
            + self.component_sweep(node)
            + self.sensor_sanity(node, sensor_readings)
        )
        return BurnInReport(node_id=node.node_id, checks=tuple(checks))
