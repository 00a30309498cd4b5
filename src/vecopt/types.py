"""Core data model: nodes, links, demands, routes, and placements.

Everything here is a frozen dataclass so scenarios can be shared freely
between the model builder, the solver, and the reporting layer without
defensive copies.  Semantic invariants are deliberately not enforced in
``__post_init__``: they are checked by ``vecopt.scenario.validate_scenario``
which reports violations as data, so tests can construct broken scenarios
by mutation and loaders can reject them with a full list of problems.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

VERSION = "0.1.0"

TIER_VEHICLE = "vehicle"
TIER_EDGE = "edge"
TIER_CLOUD = "cloud"
TIERS = (TIER_VEHICLE, TIER_EDGE, TIER_CLOUD)

IFACE_DSRC = "dsrc"
IFACE_WIFI = "wifi"
IFACE_CORE = "core"
IFACE_KINDS = (IFACE_DSRC, IFACE_WIFI, IFACE_CORE)

# An assignment of at most this many MIPS is no assignment.
PLACEMENT_THRESHOLD = 1e-9
# Relative slack of a placement's conservation and capacity checks.
PLACEMENT_REL_TOL = 1e-6


class ScenarioError(ValueError):
    """A scenario is malformed or violates a structural invariant."""


class PlacementError(ValueError):
    """A placement violates a conservation, capacity, or activation rule."""


@dataclass(frozen=True)
class InterfaceSpec:
    """One network interface on a node.

    Parameters
    ----------
    kind : str
        One of ``dsrc``, ``wifi``, ``core``.
    capacity_bps : float
        Interface line rate in bits per second, strictly positive.
    """

    kind: str
    capacity_bps: float


@dataclass(frozen=True)
class NodeSpec:
    """A processing node: a vehicle, an edge box, or a cloud server.

    Power draw is modelled as idle plus a share of the idle-to-max span,
    split between processing and communication by the two fractions.
    """

    id: str
    tier: str
    max_power_w: float
    idle_power_w: float
    processing_fraction: float
    communication_fraction: float
    capacity_mips: float
    interfaces: tuple[InterfaceSpec, ...] = ()

    def __post_init__(self):
        if not isinstance(self.interfaces, tuple):
            object.__setattr__(self, "interfaces", tuple(self.interfaces))

    def interface(self, kind: str) -> InterfaceSpec | None:
        for iface in self.interfaces:
            if iface.kind == kind:
                return iface
        return None


@dataclass(frozen=True)
class Link:
    """A directed network link between two nodes.

    A link carries no energy of its own: traffic crossing it is priced
    from its endpoints' coefficients for its interface kind, by
    :func:`vecopt.power.hop_energy_per_bit`.
    """

    id: str
    head: str
    tail: str
    kind: str
    capacity_bps: float


@dataclass(frozen=True)
class DemandSpec:
    """A processing request: a workload plus the traffic that feeds it."""

    id: str
    source: str
    workload_mips: float
    traffic_bps: float


@dataclass(frozen=True)
class ModelOptions:
    """Knobs that change how a scenario is built and priced.

    ``cloud_provisioning`` selects how cloud capacity is materialised:
    ``single_pool`` exposes one aggregated server whose idle draw is paid
    once, ``per_server`` exposes enough discrete servers to cover the
    aggregate workload plus one spare, each paying its own idle draw.
    ``dsrc_medium`` chooses whether each directed vehicle pair gets the
    full DSRC rate (``per_link``) or all DSRC traffic shares one medium
    (``shared``).
    """

    instructions_per_bit: float = 2000.0
    cloud_path_energy_per_bit: float = 5e-7
    cloud_provisioning: str = "single_pool"
    cloud_server_capacity: float = 10000.0
    dsrc_medium: str = "per_link"


@dataclass(frozen=True)
class Scenario:
    """A complete placement instance: topology, demands, routes, options.

    A route is the tuple of link ids from a source to a destination,
    keyed by ``(source_id, dest_id)``. ``build_routes`` in
    :mod:`vecopt.scenario` fills them in from the link set; loaders accept
    documents without routes and recompute them.  Everything else reads a
    route through ``hops``, which walks and checks it.
    """

    nodes: tuple[NodeSpec, ...]
    links: tuple[Link, ...]
    demands: tuple[DemandSpec, ...]
    routes: Mapping[tuple[str, str], tuple[str, ...]]
    options: ModelOptions = field(default_factory=ModelOptions)

    def __post_init__(self):
        for name in ("nodes", "links", "demands"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # -- lookups -------------------------------------------------------

    def node(self, node_id: str) -> NodeSpec:
        try:
            return self._node_map[node_id]
        except KeyError:
            raise ScenarioError(f"unknown node {node_id!r}") from None

    @functools.cached_property
    def _node_map(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @functools.cached_property
    def _link_map(self) -> dict[str, Link]:
        return {l.id: l for l in self.links}

    @functools.cached_property
    def _node_order(self) -> dict[str, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    def tier_nodes(self, tier: str) -> tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.tier == tier)

    def hops(self, src: str, dst: str) -> tuple[Link, ...]:
        """The links of the stored route from ``src`` to ``dst``, in order.

        The one walker of routes: a node reaches itself over no links, and
        a ``ScenarioError`` is raised unless the route is a chain of known
        links from ``src`` to ``dst`` that visits no node twice.
        """
        self.node(src)
        self.node(dst)
        route = self.routes.get((src, dst))
        if route is None:
            if src == dst:
                return ()
            raise ScenarioError(f"no route from {src!r} to {dst!r}")
        hops: list[Link] = []
        at, visited = src, {src}
        for link_id in route:
            link = self._link_map.get(link_id)
            if link is None:
                fault = f"unknown link {link_id}"
                break
            if link.head != at:
                fault = f"link {link_id} does not start at {at}"
                break
            at = link.tail
            if at in visited:
                fault = "repeats a node"
                break
            visited.add(at)
            hops.append(link)
        else:
            if at == dst:
                return tuple(hops)
            fault = f"chain ends at {at}, not {dst}"
        raise ScenarioError(f"route {src}->{dst}: {fault}")

    def path_intermediates(self, src: str, dst: str) -> tuple[str, ...]:
        """Node ids strictly between ``src`` and ``dst`` on their route."""
        return tuple(link.tail for link in self.hops(src, dst)[:-1])


@dataclass(frozen=True)
class Placement:
    """A concrete answer: how much of each demand each node processes.

    ``x`` maps ``(demand_id, node_id)`` to assigned MIPS and only carries
    entries above ``PLACEMENT_THRESHOLD``. ``serving`` and ``active`` are
    derived views kept in scenario node order so reports and tests are
    reproducible.
    """

    x: Mapping[tuple[str, str], float]
    serving: Mapping[str, tuple[str, ...]]
    active: tuple[str, ...]

    @staticmethod
    def empty() -> "Placement":
        return Placement(x={}, serving={}, active=())

    @staticmethod
    def build(
        scenario: Scenario, x: Mapping[tuple[str, str], float]
    ) -> "Placement":
        """Assemble a placement from raw assignment amounts.

        Drops entries at or below ``PLACEMENT_THRESHOLD``, derives the
        serving sets and the active set (sources, serving nodes, and every
        relay on a used route), and verifies conservation and capacity.
        """
        order = scenario._node_order
        kept: dict[tuple[str, str], float] = {}
        for (d, n), amount in x.items():
            if amount > PLACEMENT_THRESHOLD:
                kept[(d, n)] = float(amount)

        serving: dict[str, tuple[str, ...]] = {}
        active_ids: set[str] = set()
        for demand in scenario.demands:
            nodes = sorted(
                (n for (d, n) in kept if d == demand.id), key=order.__getitem__
            )
            serving[demand.id] = tuple(nodes)
            active_ids.add(demand.source)
            for n in nodes:
                active_ids.add(n)
                active_ids.update(
                    scenario.path_intermediates(demand.source, n)
                )
        active = tuple(sorted(active_ids, key=order.__getitem__))
        placement = Placement(x=kept, serving=serving, active=active)
        problems = placement.violations(scenario)
        if problems:
            raise PlacementError("; ".join(problems))
        return placement

    def violations(self, scenario: Scenario) -> list[str]:
        """Human-readable conservation and capacity violations, if any."""
        out: list[str] = []
        for demand in scenario.demands:
            total = sum(
                v for (d, _), v in self.x.items() if d == demand.id
            )
            if abs(total - demand.workload_mips) > PLACEMENT_REL_TOL * max(
                1.0, demand.workload_mips
            ):
                out.append(
                    f"demand {demand.id}: assigned {total:g} of "
                    f"{demand.workload_mips:g} MIPS"
                )
        for node in scenario.nodes:
            load = sum(v for (_, n), v in self.x.items() if n == node.id)
            if load > node.capacity_mips * (1 + PLACEMENT_REL_TOL):
                out.append(
                    f"node {node.id}: load {load:g} exceeds capacity "
                    f"{node.capacity_mips:g} MIPS"
                )
        for (d, n) in self.x:
            if n not in self.serving.get(d, ()):
                out.append(f"demand {d}: node {n} assigned but not serving")
        return out

    def node_load(self, node_id: str) -> float:
        return sum(v for (_, n), v in self.x.items() if n == node_id)
