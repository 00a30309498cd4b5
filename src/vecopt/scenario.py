"""Scenario construction: the reference parking-lot topology, routing,
wiring, validation, and document round-trips.

The reference scenario is a parking lot of 20 vehicles grouped five per
WiFi access point onto 4 edge nodes, with a cloud reached through core
links.  Vehicles reach each other directly over DSRC and reach foreign
edge nodes or the cloud only through their own access point.
"""

from __future__ import annotations

import json
import math
from pathlib import Path as FsPath
from typing import Mapping

from .power import DerivationError, derive_power_params, traffic_for_workload
from .types import (
    DemandSpec,
    IFACE_CORE,
    IFACE_DSRC,
    IFACE_KINDS,
    IFACE_WIFI,
    InterfaceSpec,
    Link,
    ModelOptions,
    NodeSpec,
    Path,
    Scenario,
    ScenarioError,
    TIER_CLOUD,
    TIER_EDGE,
    TIER_VEHICLE,
    TIERS,
)

# Workload per request in MIPS, by demand class.
DEMAND_CLASSES = {"small": 2880.0, "medium": 5760.0, "large": 11520.0}
CLASS_ORDER = ("small", "medium", "large")

DSRC_RATE_BPS = 27e6
WIFI_RATE_BPS = 150e6
CORE_RATE_BPS = 1e10

VEHICLE_COUNT = 20
EDGE_COUNT = 4
VEHICLES_PER_EDGE = 5


def _vehicle_spec(i: int) -> NodeSpec:
    return NodeSpec(
        id=f"v{i}",
        tier=TIER_VEHICLE,
        max_power_w=10.0,
        idle_power_w=5.0,
        processing_fraction=0.58,
        communication_fraction=0.21,
        capacity_mips=1600.0,
        interfaces=(
            InterfaceSpec(IFACE_DSRC, DSRC_RATE_BPS),
            InterfaceSpec(IFACE_WIFI, WIFI_RATE_BPS),
        ),
    )


def _edge_spec(j: int) -> NodeSpec:
    # Access point plus a cluster of single-board computers behind it:
    # 25 + 12.5 W max, 5.5 + 2 W idle.
    return NodeSpec(
        id=f"e{j}",
        tier=TIER_EDGE,
        max_power_w=37.5,
        idle_power_w=7.5,
        processing_fraction=0.35,
        communication_fraction=0.65,
        capacity_mips=3600.0,
        interfaces=(
            InterfaceSpec(IFACE_WIFI, WIFI_RATE_BPS),
            InterfaceSpec(IFACE_CORE, CORE_RATE_BPS),
        ),
    )


def _cloud_spec(k: int, capacity_mips: float) -> NodeSpec:
    return NodeSpec(
        id=f"cloud{k}",
        tier=TIER_CLOUD,
        max_power_w=201.0 + capacity_mips / 100.0,
        idle_power_w=201.0,
        processing_fraction=1.0,
        communication_fraction=0.0,
        capacity_mips=capacity_mips,
        interfaces=(InterfaceSpec(IFACE_CORE, CORE_RATE_BPS),),
    )


def attachment_map(scenario_nodes: tuple[NodeSpec, ...]) -> dict[str, str]:
    """Vehicle id -> its access point's id, grouping vehicles evenly."""
    vehicles = [n for n in scenario_nodes if n.tier == TIER_VEHICLE]
    edges = [n for n in scenario_nodes if n.tier == TIER_EDGE]
    if not edges:
        return {}
    group = max(1, math.ceil(len(vehicles) / len(edges)))
    return {
        v.id: edges[min(i // group, len(edges) - 1)].id
        for i, v in enumerate(vehicles)
    }


def wire_links(
    nodes: tuple[NodeSpec, ...], options: ModelOptions
) -> tuple[Link, ...]:
    """Build the directed link set implied by the node tiers.

    Every vehicle pair gets a DSRC link each way; each vehicle gets WiFi
    links to and from its access point; edge pairs get WiFi links; every
    edge-cloud pair gets core links.  Link energy per bit is the head's
    transmit coefficient plus the tail's receive coefficient.
    """
    params = {n.id: derive_power_params(n, options) for n in nodes}

    def make(head: NodeSpec, tail: NodeSpec, kind: str) -> Link:
        cap_head = head.interface(kind)
        cap_tail = tail.interface(kind)
        if cap_head is None or cap_tail is None:
            raise ScenarioError(
                f"cannot wire {head.id}->{tail.id}: missing {kind} interface"
            )
        return Link(
            id=f"{head.id}>{tail.id}",
            head=head.id,
            tail=tail.id,
            kind=kind,
            capacity_bps=min(cap_head.capacity_bps, cap_tail.capacity_bps),
            energy_per_bit=(
                params[head.id].tx_energy_per_bit.get(kind, 0.0)
                + params[tail.id].rx_energy_per_bit.get(kind, 0.0)
            ),
        )

    vehicles = [n for n in nodes if n.tier == TIER_VEHICLE]
    edges = [n for n in nodes if n.tier == TIER_EDGE]
    clouds = [n for n in nodes if n.tier == TIER_CLOUD]
    attach = attachment_map(nodes)
    by_id = {n.id: n for n in nodes}

    links: list[Link] = []
    for a in vehicles:
        for b in vehicles:
            if a.id != b.id:
                links.append(make(a, b, IFACE_DSRC))
    for v in vehicles:
        ap_id = attach.get(v.id)
        if ap_id is None:
            continue
        ap = by_id[ap_id]
        links.append(make(v, ap, IFACE_WIFI))
        links.append(make(ap, v, IFACE_WIFI))
    for a in edges:
        for b in edges:
            if a.id != b.id:
                links.append(make(a, b, IFACE_WIFI))
    for e in edges:
        for c in clouds:
            links.append(make(e, c, IFACE_CORE))
            links.append(make(c, e, IFACE_CORE))
    return tuple(links)


def _link_index(links: tuple[Link, ...]) -> dict[tuple[str, str], Link]:
    return {(l.head, l.tail): l for l in links}


def _own_ap(
    scenario_nodes: tuple[NodeSpec, ...],
    by_pair: Mapping[tuple[str, str], Link],
    vehicle_id: str,
) -> str | None:
    """Lowest-index edge node the vehicle has an outgoing WiFi link to."""
    for node in scenario_nodes:
        if node.tier != TIER_EDGE:
            continue
        link = by_pair.get((vehicle_id, node.id))
        if link is not None and link.kind == IFACE_WIFI:
            return node.id
    return None


def _compute_route(
    nodes: tuple[NodeSpec, ...],
    by_pair: Mapping[tuple[str, str], Link],
    src: NodeSpec,
    dst: NodeSpec,
) -> Path | None:
    if src.id == dst.id:
        return Path(())
    direct = by_pair.get((src.id, dst.id))
    if src.tier == TIER_VEHICLE and dst.tier == TIER_VEHICLE:
        return Path((direct.id,)) if direct is not None else None
    if src.tier == TIER_VEHICLE:
        if direct is not None and dst.tier == TIER_EDGE:
            return Path((direct.id,))
        ap = _own_ap(nodes, by_pair, src.id)
        if ap is None or ap == dst.id:
            return None
        first = by_pair[(src.id, ap)]
        second = by_pair.get((ap, dst.id))
        if second is None:
            return None
        return Path((first.id, second.id))
    if src.tier == TIER_EDGE and dst.tier in (TIER_EDGE, TIER_CLOUD):
        return Path((direct.id,)) if direct is not None else None
    return None


def build_routes(
    nodes: tuple[NodeSpec, ...], links: tuple[Link, ...]
) -> dict[tuple[str, str], Path]:
    """Fixed routes for every reachable ordered node pair."""
    by_pair = _link_index(links)
    routes: dict[tuple[str, str], Path] = {}
    for src in nodes:
        for dst in nodes:
            if src.id == dst.id:
                continue
            path = _compute_route(nodes, by_pair, src, dst)
            if path is not None:
                routes[(src.id, dst.id)] = path
    return routes


def route(scenario: Scenario, src: str, dst: str) -> Path:
    """The scenario's fixed path from ``src`` to ``dst``."""
    return scenario.route(src, dst)


def cloud_pool(total_workload: float, options: ModelOptions) -> list[NodeSpec]:
    """Cloud nodes sized so the cloud tier is never the bottleneck.

    ``per_server`` yields ceil(total/server)+1 discrete servers;
    ``single_pool`` yields one node holding the same aggregate capacity.
    """
    cap = options.cloud_server_capacity
    servers = math.ceil(total_workload / cap) + 1
    if options.cloud_provisioning == "per_server":
        return [_cloud_spec(k, cap) for k in range(servers)]
    return [_cloud_spec(0, servers * cap)]


def build_reference_scenario(
    demand_class: str,
    request_count: int,
    options: ModelOptions | None = None,
) -> Scenario:
    """The reference 20-vehicle, 4-edge parking-lot scenario.

    ``request_count`` identical demands of the class workload originate
    at vehicles 0..request_count-1.
    """
    if demand_class not in DEMAND_CLASSES:
        raise ScenarioError(
            f"unknown demand class {demand_class!r}; "
            f"expected one of {', '.join(CLASS_ORDER)}"
        )
    if not 0 <= request_count <= VEHICLE_COUNT:
        raise ScenarioError(
            f"request_count must be between 0 and {VEHICLE_COUNT}"
        )
    options = options or ModelOptions()
    workload = DEMAND_CLASSES[demand_class]
    nodes = tuple(
        [_vehicle_spec(i) for i in range(VEHICLE_COUNT)]
        + [_edge_spec(j) for j in range(EDGE_COUNT)]
        + cloud_pool(workload * request_count, options)
    )
    links = wire_links(nodes, options)
    demands = tuple(
        DemandSpec(
            id=f"d{r}",
            source=f"v{r}",
            workload_mips=workload,
            traffic_bps=traffic_for_workload(
                workload, options.instructions_per_bit
            ),
        )
        for r in range(request_count)
    )
    scenario = Scenario(
        nodes=nodes,
        links=links,
        demands=demands,
        routes=build_routes(nodes, links),
        options=options,
    )
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError("; ".join(problems))
    return scenario


# -- validation --------------------------------------------------------


_NODE_NUMBERS = (
    "max_power_w",
    "idle_power_w",
    "processing_fraction",
    "communication_fraction",
    "capacity_mips",
)
_LINK_NUMBERS = ("capacity_bps", "energy_per_bit")
_DEMAND_NUMBERS = ("workload_mips", "traffic_bps")


def _finite(value) -> bool:
    """A real number other than a bool, and neither infinite nor NaN."""
    try:
        return math.isfinite(value) and not isinstance(value, bool)
    except TypeError:  # str, None, containers
        return False


def _number_problems(label: str, obj, names: tuple[str, ...]) -> list[str]:
    """One message per named attribute that is not a finite number."""
    return [
        f"{label}: {name} must be a finite number, not {getattr(obj, name)!r}"
        for name in names
        if not _finite(getattr(obj, name))
    ]


def _node_number_problems(node: NodeSpec) -> list[str]:
    out = _number_problems(f"node {node.id}", node, _NODE_NUMBERS)
    for iface in node.interfaces:
        out += _number_problems(
            f"node {node.id}: interface {iface.kind}", iface, ("capacity_bps",)
        )
    return out


def validate_scenario(scenario: Scenario) -> list[str]:
    """All invariant violations in the scenario, as entity-naming strings.

    An empty list means the scenario is valid.  Violations are data, not
    exceptions, so loaders and tests can inspect them.  A number of the
    wrong type or that is not finite is reported, and the range checks
    that would read it are skipped.
    """
    out: list[str] = []
    seen_nodes: set[str] = set()
    unreadable: set[str] = set()  # nodes with a number that is not finite
    for node in scenario.nodes:
        if node.id in seen_nodes:
            out.append(f"node {node.id}: duplicate id")
        seen_nodes.add(node.id)
        if node.tier not in TIERS:
            out.append(f"node {node.id}: unknown tier {node.tier!r}")
        kinds = [i.kind for i in node.interfaces]
        if len(kinds) != len(set(kinds)):
            out.append(f"node {node.id}: duplicate interface kind")
        for iface in node.interfaces:
            if iface.kind not in IFACE_KINDS:
                out.append(
                    f"node {node.id}: unknown interface kind {iface.kind!r}"
                )
        bad = _node_number_problems(node)
        if bad:
            out += bad
            unreadable.add(node.id)
            continue
        if node.idle_power_w < 0:
            out.append(f"node {node.id}: negative idle power")
        if node.max_power_w < node.idle_power_w:
            out.append(
                f"node {node.id}: max power {node.max_power_w:g} below idle "
                f"{node.idle_power_w:g}"
            )
        for name in ("processing_fraction", "communication_fraction"):
            frac = getattr(node, name)
            if not 0.0 <= frac <= 1.0:
                out.append(f"node {node.id}: {name} outside [0, 1]")
        if (
            node.processing_fraction + node.communication_fraction
            > 1.0 + 1e-9
        ):
            out.append(f"node {node.id}: power fractions sum beyond 1")
        if node.capacity_mips <= 0:
            out.append(f"node {node.id}: capacity must be positive")
        for iface in node.interfaces:
            if iface.capacity_bps <= 0:
                out.append(
                    f"node {node.id}: interface {iface.kind} capacity "
                    "must be positive"
                )

    node_map = {n.id: n for n in scenario.nodes}
    pair_dirs = {(l.head, l.tail) for l in scenario.links}
    seen_links: set[str] = set()
    for link in scenario.links:
        if link.id in seen_links:
            out.append(f"link {link.id}: duplicate id")
        seen_links.add(link.id)
        if link.head == link.tail:
            out.append(f"link {link.id}: head equals tail")
        if link.kind not in IFACE_KINDS:
            out.append(f"link {link.id}: unknown kind {link.kind!r}")
        bad = _number_problems(f"link {link.id}", link, _LINK_NUMBERS)
        out += bad
        if not bad and link.energy_per_bit < 0:
            out.append(f"link {link.id}: negative energy per bit")
        head = node_map.get(link.head)
        tail = node_map.get(link.tail)
        if head is None or tail is None:
            out.append(f"link {link.id}: unknown endpoint")
            continue
        if (link.tail, link.head) not in pair_dirs:
            out.append(f"link {link.id}: missing reverse direction")
        ihead = head.interface(link.kind)
        itail = tail.interface(link.kind)
        if ihead is None or itail is None:
            out.append(
                f"link {link.id}: endpoint lacks a {link.kind} interface"
            )
        elif not (bad or link.head in unreadable or link.tail in unreadable):
            expected = min(ihead.capacity_bps, itail.capacity_bps)
            if abs(link.capacity_bps - expected) > 1e-6 * max(1.0, expected):
                out.append(
                    f"link {link.id}: capacity {link.capacity_bps:g} is not "
                    f"the endpoint minimum {expected:g}"
                )

    seen_demands: set[str] = set()
    for demand in scenario.demands:
        if demand.id in seen_demands:
            out.append(f"demand {demand.id}: duplicate id")
        seen_demands.add(demand.id)
        if demand.source not in node_map:
            out.append(f"demand {demand.id}: unknown source {demand.source!r}")
        bad = _number_problems(f"demand {demand.id}", demand, _DEMAND_NUMBERS)
        out += bad
        if bad:
            continue
        if demand.workload_mips <= 0:
            out.append(f"demand {demand.id}: workload must be positive")
        if demand.traffic_bps < 0:
            out.append(f"demand {demand.id}: negative traffic")

    link_map = {l.id: l for l in scenario.links}
    for (src, dst), path in scenario.routes.items():
        label = f"route {src}->{dst}"
        if src not in node_map or dst not in node_map:
            out.append(f"{label}: unknown endpoint")
            continue
        at = src
        visited = [src]
        broken = False
        for link_id in path.links:
            link = link_map.get(link_id)
            if link is None:
                out.append(f"{label}: unknown link {link_id}")
                broken = True
                break
            if link.head != at:
                out.append(f"{label}: link {link_id} does not start at {at}")
                broken = True
                break
            at = link.tail
            visited.append(at)
        if broken:
            continue
        if at != dst:
            out.append(f"{label}: chain ends at {at}, not {dst}")
        if len(visited) != len(set(visited)):
            out.append(f"{label}: repeats a node")

    for demand in scenario.demands:
        if demand.source not in node_map:
            continue
        for node in scenario.nodes:
            if node.id == demand.source:
                continue
            if (demand.source, node.id) not in scenario.routes:
                out.append(
                    f"demand {demand.id}: no route from {demand.source} "
                    f"to {node.id}"
                )

    opts = scenario.options
    if opts.instructions_per_bit <= 0:
        out.append("options: instructions_per_bit must be positive")
    if opts.cloud_path_energy_per_bit < 0:
        out.append("options: cloud_path_energy_per_bit must be >= 0")
    if opts.cloud_provisioning not in ("per_server", "single_pool"):
        out.append(
            f"options: unknown cloud_provisioning {opts.cloud_provisioning!r}"
        )
    if opts.cloud_server_capacity <= 0:
        out.append("options: cloud_server_capacity must be positive")
    if opts.dsrc_medium not in ("per_link", "shared"):
        out.append(f"options: unknown dsrc_medium {opts.dsrc_medium!r}")
    return out


# -- documents ---------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "options": {
            "instructions_per_bit": scenario.options.instructions_per_bit,
            "cloud_path_energy_per_bit": (
                scenario.options.cloud_path_energy_per_bit
            ),
            "cloud_provisioning": scenario.options.cloud_provisioning,
            "cloud_server_capacity": scenario.options.cloud_server_capacity,
            "dsrc_medium": scenario.options.dsrc_medium,
        },
        "nodes": [
            {
                "id": n.id,
                "tier": n.tier,
                "max_power_w": n.max_power_w,
                "idle_power_w": n.idle_power_w,
                "processing_fraction": n.processing_fraction,
                "communication_fraction": n.communication_fraction,
                "capacity_mips": n.capacity_mips,
                "interfaces": [
                    {"kind": i.kind, "capacity_bps": i.capacity_bps}
                    for i in n.interfaces
                ],
            }
            for n in scenario.nodes
        ],
        "links": [
            {
                "id": l.id,
                "head": l.head,
                "tail": l.tail,
                "kind": l.kind,
                "capacity_bps": l.capacity_bps,
                "energy_per_bit": l.energy_per_bit,
            }
            for l in scenario.links
        ],
        "demands": [
            {
                "id": d.id,
                "source": d.source,
                "workload_mips": d.workload_mips,
                "traffic_bps": d.traffic_bps,
            }
            for d in scenario.demands
        ],
        "routes": {
            f"{src}->{dst}": list(path.links)
            for (src, dst), path in sorted(scenario.routes.items())
        },
    }


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical document text; identical scenarios serialize identically."""
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a scenario from a parsed document.

    ``links``, ``routes``, and per-demand ``traffic_bps`` are optional:
    absent links are wired from the node tiers, absent routes are
    recomputed, absent traffic is derived from the workload.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object")
    try:
        options = ModelOptions(**doc.get("options", {}))
    except TypeError as exc:
        raise ScenarioError(f"options: {exc}") from None

    nodes = []
    for i, raw in enumerate(doc.get("nodes", [])):
        try:
            interfaces = tuple(
                InterfaceSpec(kind=e["kind"], capacity_bps=e["capacity_bps"])
                for e in raw.get("interfaces", [])
            )
            nodes.append(
                NodeSpec(
                    id=raw["id"],
                    tier=raw["tier"],
                    max_power_w=raw["max_power_w"],
                    idle_power_w=raw["idle_power_w"],
                    processing_fraction=raw["processing_fraction"],
                    communication_fraction=raw["communication_fraction"],
                    capacity_mips=raw["capacity_mips"],
                    interfaces=interfaces,
                )
            )
        except (KeyError, TypeError) as exc:
            name = raw.get("id", f"#{i}") if isinstance(raw, dict) else f"#{i}"
            raise ScenarioError(f"node {name}: malformed ({exc})") from None
    nodes = tuple(nodes)

    if "links" in doc:
        links = []
        for i, raw in enumerate(doc["links"]):
            try:
                links.append(
                    Link(
                        id=raw["id"],
                        head=raw["head"],
                        tail=raw["tail"],
                        kind=raw["kind"],
                        capacity_bps=raw["capacity_bps"],
                        energy_per_bit=raw["energy_per_bit"],
                    )
                )
            except (KeyError, TypeError) as exc:
                name = raw.get("id", f"#{i}") if isinstance(raw, dict) else f"#{i}"
                raise ScenarioError(f"link {name}: malformed ({exc})") from None
        links = tuple(links)
    else:
        # Wiring prices links from the node numbers, so they go first.
        problems = [p for node in nodes for p in _node_number_problems(node)]
        if problems:
            raise ScenarioError("; ".join(problems))
        try:
            links = wire_links(nodes, options)
        except DerivationError as exc:
            raise ScenarioError(str(exc)) from None

    demands = []
    for i, raw in enumerate(doc.get("demands", [])):
        try:
            traffic = raw.get("traffic_bps")
            if traffic is None:
                traffic = traffic_for_workload(
                    raw["workload_mips"], options.instructions_per_bit
                )
            demands.append(
                DemandSpec(
                    id=raw["id"],
                    source=raw["source"],
                    workload_mips=raw["workload_mips"],
                    traffic_bps=traffic,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            name = raw.get("id", f"#{i}") if isinstance(raw, dict) else f"#{i}"
            raise ScenarioError(f"demand {name}: malformed ({exc})") from None
    demands = tuple(demands)

    if "routes" in doc:
        routes = {}
        for key, link_ids in doc["routes"].items():
            src, sep, dst = key.partition("->")
            if not sep:
                raise ScenarioError(f"route key {key!r}: expected 'src->dst'")
            routes[(src, dst)] = Path(tuple(link_ids))
    else:
        routes = build_routes(nodes, links)

    scenario = Scenario(
        nodes=nodes,
        links=links,
        demands=demands,
        routes=routes,
        options=options,
    )
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError("; ".join(problems))
    return scenario


def load_scenario(path: str | FsPath) -> Scenario:
    """Load and validate a scenario document from disk."""
    try:
        text = FsPath(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path}: invalid document ({exc})") from None
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path: str | FsPath) -> None:
    FsPath(path).write_text(serialize_scenario(scenario))


def local_capacity(scenario: Scenario) -> float:
    """Aggregate vehicle plus edge processing capacity in MIPS."""
    return sum(
        n.capacity_mips
        for n in scenario.nodes
        if n.tier in (TIER_VEHICLE, TIER_EDGE)
    )
