"""Power accounting: per-node coefficients, placement evaluation, baseline.

The node model is affine: an active node pays its idle draw, a processing
term proportional to assigned MIPS, and a communication term proportional
to bits transmitted and received per interface.  Coefficients come from
the node's rated power span split by the processing / communication
fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .types import (
    IFACE_CORE,
    IFACE_DSRC,
    Link,
    ModelOptions,
    NodeSpec,
    Placement,
    PlacementError,
    Scenario,
    TIER_CLOUD,
    TIERS,
)

# Relative slack of the link and shared-medium bandwidth checks.
BANDWIDTH_REL_TOL = 1e-6


def sig(value: float) -> float:
    """``value`` rounded to the six significant digits documents carry."""
    return float(f"{value:.6g}")


class DerivationError(ValueError):
    """Power coefficients cannot be derived from a node spec."""


# Rated specs whose derived efficiency is snapped to the round figure the
# hardware vendors quote: (tier, capacity, max, idle, processing_fraction)
# -> MIPS per watt.  Derivation stays generic for everything else.
_STATED_EFFICIENCY = (
    ("vehicle", 1600.0, 10.0, 5.0, 0.58, 550.0),
    ("edge", 3600.0, 37.5, 7.5, 0.35, 340.0),
    ("cloud", 10000.0, 301.0, 201.0, 1.0, 100.0),
)


@dataclass(frozen=True)
class PowerParams:
    """Derived affine power coefficients for one node.

    ``energy_per_bit`` maps interface kind to the joules per bit the node
    pays for each bit it sends or receives on that interface (symmetric
    radios).
    """

    node_id: str
    efficiency_mips_per_w: float
    idle_power_w: float
    energy_per_bit: Mapping[str, float]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def derive_power_params(spec: NodeSpec, options: ModelOptions) -> PowerParams:
    """Turn a rated node spec into affine power coefficients.

    Efficiency is capacity over the processing share of the idle-to-max
    span, snapped to the vendor's round figure when the spec matches a
    known rating.  Communication coefficients divide the communication
    share of the span by each interface's capacity; core transport energy
    is charged once, at the cloud end, via
    ``options.cloud_path_energy_per_bit``.
    """
    span = spec.max_power_w - spec.idle_power_w
    proc_budget = span * spec.processing_fraction
    if proc_budget <= 0:
        raise DerivationError(
            f"node {spec.id}: no processing power budget "
            f"(span {span:g} W x fraction {spec.processing_fraction:g})"
        )
    efficiency = spec.capacity_mips / proc_budget
    for tier, cap, pmax, pidle, frac, stated in _STATED_EFFICIENCY:
        if (
            spec.tier == tier
            and _close(spec.capacity_mips, cap)
            and _close(spec.max_power_w, pmax)
            and _close(spec.idle_power_w, pidle)
            and _close(spec.processing_fraction, frac)
        ):
            efficiency = stated
            break

    comm_budget = span * spec.communication_fraction
    per_bit: dict[str, float] = {}
    for iface in spec.interfaces:
        if iface.capacity_bps <= 0:
            raise DerivationError(
                f"node {spec.id}: interface {iface.kind} has zero capacity"
            )
        if iface.kind == IFACE_CORE:
            if spec.tier == TIER_CLOUD:
                per_bit[iface.kind] = options.cloud_path_energy_per_bit
            else:
                # Transport energy along the core path is attributed to
                # the cloud end so it is paid exactly once per bit.
                per_bit[iface.kind] = 0.0
        else:
            per_bit[iface.kind] = comm_budget / iface.capacity_bps
    return PowerParams(
        node_id=spec.id,
        efficiency_mips_per_w=efficiency,
        idle_power_w=spec.idle_power_w,
        energy_per_bit=per_bit,
    )


def hop_energy_per_bit(params: Mapping[str, PowerParams], link: Link) -> float:
    """Joules per bit crossing ``link``: its head's plus its tail's figure
    for the link's kind, read from ``params`` by node id."""
    head, tail = params[link.head], params[link.tail]
    return head.energy_per_bit.get(link.kind, 0.0) + tail.energy_per_bit.get(
        link.kind, 0.0
    )


def traffic_for_workload(workload_mips: float, instructions_per_bit: float) -> float:
    """Bits per second needed to feed ``workload_mips`` of processing."""
    if instructions_per_bit <= 0:
        raise ValueError("instructions_per_bit must be positive")
    if workload_mips < 0:
        raise ValueError("workload must be >= 0")
    return workload_mips * 1e6 / instructions_per_bit


def node_power(
    params: PowerParams,
    active: bool,
    load_mips: float = 0.0,
    tx_bps: Mapping[str, float] | None = None,
    rx_bps: Mapping[str, float] | None = None,
) -> float:
    """Instantaneous draw of one node under the affine model.

    Inactive nodes draw nothing; giving an inactive node load or traffic
    is a contract violation, not a modelling choice.
    """
    tx_bps = tx_bps or {}
    rx_bps = rx_bps or {}
    if not active:
        if load_mips > 0 or any(v > 0 for v in tx_bps.values()) or any(
            v > 0 for v in rx_bps.values()
        ):
            raise PlacementError(
                f"node {params.node_id}: inactive but loaded"
            )
        return 0.0
    if load_mips < 0:
        raise ValueError(f"node {params.node_id}: negative load")
    watts = params.idle_power_w + load_mips / params.efficiency_mips_per_w
    for kind, bps in (*tx_bps.items(), *rx_bps.items()):
        watts += bps * params.energy_per_bit.get(kind, 0.0)
    return watts


@dataclass(frozen=True)
class NodePower:
    node_id: str
    tier: str
    idle_w: float
    processing_w: float
    communication_w: float
    total_w: float
    load_mips: float


@dataclass(frozen=True)
class PowerReport:
    """Power totals for a placement, per node and per tier."""

    nodes: tuple[NodePower, ...]
    total_w: float

    def tier_total(self, tier: str, field: str = "total_w") -> float:
        return sum(getattr(n, field) for n in self.nodes if n.tier == tier)

    def tier_load(self, tier: str) -> float:
        return sum(n.load_mips for n in self.nodes if n.tier == tier)

    def to_dict(self) -> dict:
        return {
            "total_w": sig(self.total_w),
            "tiers": {
                tier: {
                    "idle_w": sig(self.tier_total(tier, "idle_w")),
                    "processing_w": sig(self.tier_total(tier, "processing_w")),
                    "communication_w": sig(
                        self.tier_total(tier, "communication_w")
                    ),
                    "total_w": sig(self.tier_total(tier)),
                    "load_mips": sig(self.tier_load(tier)),
                }
                for tier in TIERS
            },
            "nodes": [
                {
                    "id": n.node_id,
                    "tier": n.tier,
                    "idle_w": sig(n.idle_w),
                    "processing_w": sig(n.processing_w),
                    "communication_w": sig(n.communication_w),
                    "total_w": sig(n.total_w),
                    "load_mips": sig(n.load_mips),
                }
                for n in self.nodes
                if n.total_w > 0
            ],
        }


def _traffic(scenario: Scenario, placement: Placement):
    """Bits per second on each link (by id) and sent and received by each
    node (by id, then kind), from one walk of the served routes."""
    loads: dict[str, float] = {}
    tx: dict[str, dict[str, float]] = {n.id: {} for n in scenario.nodes}
    rx: dict[str, dict[str, float]] = {n.id: {} for n in scenario.nodes}
    for demand in scenario.demands:
        for node_id in placement.serving.get(demand.id, ()):
            for link in scenario.hops(demand.source, node_id):
                loads[link.id] = loads.get(link.id, 0.0) + demand.traffic_bps
                t = tx[link.head]
                t[link.kind] = t.get(link.kind, 0.0) + demand.traffic_bps
                r = rx[link.tail]
                r[link.kind] = r.get(link.kind, 0.0) + demand.traffic_bps
    return loads, tx, rx


def _overloads(scenario: Scenario, loads: dict[str, float]) -> list[str]:
    """Links, or the shared dsrc medium, that carry more than they hold."""
    out = []
    shared = scenario.options.dsrc_medium == "shared"
    if shared:
        dsrc_links = [l for l in scenario.links if l.kind == IFACE_DSRC]
        if dsrc_links:
            medium = min(l.capacity_bps for l in dsrc_links)
            total = sum(loads.get(l.id, 0.0) for l in dsrc_links)
            if total > medium * (1 + BANDWIDTH_REL_TOL):
                out.append(
                    f"shared dsrc medium: {total:g} bps exceeds {medium:g}"
                )
    for link in scenario.links:
        if shared and link.kind == IFACE_DSRC:
            continue
        load = loads.get(link.id, 0.0)
        if load > link.capacity_bps * (1 + BANDWIDTH_REL_TOL):
            out.append(
                f"link {link.id}: {load:g} bps exceeds {link.capacity_bps:g}"
            )
    return out


def check_bandwidth(scenario: Scenario, placement: Placement) -> list[str]:
    """Bandwidth violations of a placement, as human-readable strings."""
    return _overloads(scenario, _traffic(scenario, placement)[0])


def evaluate_placement(scenario: Scenario, placement: Placement) -> PowerReport:
    """Total power of a placement under the full-replication traffic rule.

    Every serving node other than the source itself receives the demand's
    full traffic along the fixed route, paying transmit energy at each
    link head and receive energy at each tail.  Raises ``PlacementError``
    when the placement breaks conservation, capacity, or bandwidth.
    """
    loads, tx, rx = _traffic(scenario, placement)
    problems = placement.violations(scenario) + _overloads(scenario, loads)
    if problems:
        raise PlacementError("; ".join(problems))

    options = scenario.options
    params = {n.id: derive_power_params(n, options) for n in scenario.nodes}
    active = set(placement.active)
    rows = []
    total = 0.0
    for node in scenario.nodes:
        is_active = node.id in active
        load = placement.node_load(node.id)
        watts = node_power(params[node.id], is_active, load, tx[node.id], rx[node.id])
        idle_w = params[node.id].idle_power_w if is_active else 0.0
        proc_w = load / params[node.id].efficiency_mips_per_w if is_active else 0.0
        rows.append(
            NodePower(
                node_id=node.id,
                tier=node.tier,
                idle_w=idle_w,
                processing_w=proc_w,
                communication_w=watts - idle_w - proc_w,
                total_w=watts,
                load_mips=load,
            )
        )
        total += watts
    return PowerReport(nodes=tuple(rows), total_w=total)


def cloud_only_placement(scenario: Scenario) -> Placement:
    """First-fit assignment of every demand onto the cloud tier only."""
    clouds = scenario.tier_nodes(TIER_CLOUD)
    if scenario.demands and not clouds:
        raise PlacementError("no cloud nodes to host the baseline")
    residual = {n.id: n.capacity_mips for n in clouds}
    x: dict[tuple[str, str], float] = {}
    for demand in scenario.demands:
        remaining = demand.workload_mips
        for node in clouds:
            if remaining <= 0:
                break
            take = min(residual[node.id], remaining)
            if take > 0:
                x[(demand.id, node.id)] = x.get((demand.id, node.id), 0.0) + take
                residual[node.id] -= take
                remaining -= take
        if remaining > 1e-9:
            raise PlacementError(
                f"cloud capacity exhausted placing demand {demand.id}"
            )
    return Placement.build(scenario, x)


def cloud_only_baseline(scenario: Scenario) -> PowerReport:
    """Power of the everything-to-the-cloud reference placement."""
    return evaluate_placement(scenario, cloud_only_placement(scenario))
