"""Exhaustive reference solver for small instances.

Enumerates every combination of per-demand serving sets, prices the fixed
part (idle power of the activated union plus replication traffic) during
the walk, and settles the continuous split at each surviving leaf with a
successive-shortest-path min-cost flow.  Deliberately shares no solver
machinery with the simplex or branch-and-bound paths so it can act as an
independent cross-check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bnb import MilpSolution, SolveStats
from .power import derive_power_params, evaluate_placement, hop_energy_per_bit
from .types import Placement, Scenario

_EPS = 1e-9

# Demands x nodes the enumeration accepts: its work grows with that
# product, so the cross-check and the random instances stay within it.
MAX_CELLS = 18


class OracleSizeError(ValueError):
    """The instance is too large for exhaustive enumeration."""


@dataclass
class _Edge:
    to: int
    cap: float
    cost: float
    flow: float
    rev: int


class _FlowNet:
    def __init__(self, n: int):
        self.adj: list[list[_Edge]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: float, cost: float):
        self.adj[u].append(_Edge(v, cap, cost, 0.0, len(self.adj[v])))
        self.adj[v].append(_Edge(u, 0.0, -cost, 0.0, len(self.adj[u]) - 1))

    def min_cost_max_flow(self, s: int, t: int) -> tuple[float, float]:
        """Bellman-Ford based successive shortest paths."""
        n = len(self.adj)
        total_flow = 0.0
        total_cost = 0.0
        while True:
            dist = [float("inf")] * n
            in_queue = [False] * n
            prev: list[tuple[int, _Edge] | None] = [None] * n
            dist[s] = 0.0
            queue = [s]
            in_queue[s] = True
            while queue:
                u = queue.pop(0)
                in_queue[u] = False
                for edge in self.adj[u]:
                    if edge.cap - edge.flow > _EPS and dist[u] + edge.cost < dist[edge.to] - 1e-15:
                        dist[edge.to] = dist[u] + edge.cost
                        prev[edge.to] = (u, edge)
                        if not in_queue[edge.to]:
                            queue.append(edge.to)
                            in_queue[edge.to] = True
            if prev[t] is None:
                return total_flow, total_cost
            bottleneck = float("inf")
            v = t
            while v != s:
                u, edge = prev[v]
                bottleneck = min(bottleneck, edge.cap - edge.flow)
                v = u
            v = t
            while v != s:
                u, edge = prev[v]
                edge.flow += bottleneck
                self.adj[edge.to][edge.rev].flow -= bottleneck
                v = u
            total_flow += bottleneck
            total_cost += bottleneck * dist[t]


def _split_workloads(
    workloads: list[float],
    caps: list[float],
    allowed: list[list[int]],
    unit_costs: list[float],
) -> tuple[bool, float, dict[tuple[int, int], float]]:
    """Cheapest feasible split of each workload over its allowed nodes."""
    D, K = len(workloads), len(caps)
    net = _FlowNet(D + K + 2)
    s, t = D + K, D + K + 1
    for d, w in enumerate(workloads):
        net.add(s, d, w, 0.0)
    for k, cap in enumerate(caps):
        net.add(D + k, t, cap, unit_costs[k])
    for d, nodes in enumerate(allowed):
        for k in nodes:
            net.add(d, D + k, min(workloads[d], caps[k]), 0.0)
    flow, cost = net.min_cost_max_flow(s, t)
    want = sum(workloads)
    if flow < want - 1e-6 * max(1.0, want):
        return False, 0.0, {}
    x: dict[tuple[int, int], float] = {}
    for d in range(D):
        for edge in net.adj[d]:
            if D <= edge.to < D + K and edge.flow > _EPS:
                x[(d, edge.to - D)] = edge.flow
    return True, cost, x


def exhaustive_oracle(scenario: Scenario) -> MilpSolution:
    """Provably optimal placement by enumeration of serving patterns.

    Refuses instances where demands x nodes exceeds ``MAX_CELLS``.
    Returns the same solution shape as the branch-and-bound driver with
    matching status conventions.
    """
    t0 = time.perf_counter()
    demands = scenario.demands
    nodes = scenario.nodes
    D, N = len(demands), len(nodes)
    if D * N > MAX_CELLS:
        raise OracleSizeError(
            f"{D} demands x {N} nodes exceeds the {MAX_CELLS}-cell budget"
        )

    params = {n.id: derive_power_params(n, scenario.options) for n in nodes}
    idle = [p.idle_power_w for p in params.values()]
    eff = [p.efficiency_mips_per_w for p in params.values()]
    caps = [n.capacity_mips for n in nodes]
    pos = {n.id: k for k, n in enumerate(nodes)}

    # Every node is reachable: validation stores a route from each source.
    routes = [[scenario.hops(d.source, n.id) for n in nodes] for d in demands]
    comm: list[list[float]] = []
    req_bits: list[list[int]] = []
    for demand, row in zip(demands, routes):
        row_comm, row_req = [], []
        for k, hops in enumerate(row):
            energy = sum(hop_energy_per_bit(params, link) for link in hops)
            mask = 1 << k
            for link in hops[:-1]:
                mask |= 1 << pos[link.tail]
            row_comm.append(demand.traffic_bps * energy)
            row_req.append(mask)
        comm.append(row_comm)
        req_bits.append(row_req)

    # Candidate serving sets per demand, cheapest fixed cost first.
    candidates: list[list[tuple[float, int, int, float]]] = []
    for d, demand in enumerate(demands):
        opts = []
        for mask in range(1, 1 << N):
            fixed = 0.0
            cap_sum = 0.0
            best_eff = 0.0
            req = 0
            for k in range(N):
                if mask >> k & 1:
                    fixed += comm[d][k]
                    cap_sum += caps[k]
                    best_eff = max(best_eff, eff[k])
                    req |= req_bits[d][k]
            if cap_sum < demand.workload_mips - _EPS:
                continue
            proc_lb = demand.workload_mips / best_eff
            opts.append((fixed + proc_lb, fixed, mask, req))
        if not opts:
            stats = SolveStats(
                wall_ms=(time.perf_counter() - t0) * 1000.0
            )
            return MilpSolution(
                status="infeasible",
                objective=float("nan"),
                placement=Placement.empty(),
                assignment=None,
                stats=stats,
            )
        opts.sort(key=lambda e: (e[0], e[2]))
        candidates.append(
            [(lowb, fixed, mask, req) for lowb, fixed, mask, req in opts]
        )

    tail = [0.0] * (D + 1)
    for d in range(D - 1, -1, -1):
        tail[d] = tail[d + 1] + candidates[d][0][0]

    source_mask = 0
    for demand in demands:
        source_mask |= 1 << pos[demand.source]
    base_idle = sum(idle[k] for k in range(N) if source_mask >> k & 1)

    best = {"obj": float("inf"), "masks": None, "x": None}
    leaves = 0

    # Per-link traffic bookkeeping for the bandwidth check at the leaves.
    link_caps = {l.id: l.capacity_bps for l in scenario.links}
    link_kind = {l.id: l.kind for l in scenario.links}
    shared = scenario.options.dsrc_medium == "shared"
    dsrc_rate = min(
        (l.capacity_bps for l in scenario.links if l.kind == "dsrc"),
        default=float("inf"),
    )

    def leaf(masks: list[int], comm_acc: float, idle_sum: float):
        nonlocal leaves
        leaves += 1
        loads: dict[str, float] = {}
        for d in range(D):
            for k in range(N):
                if masks[d] >> k & 1:
                    for link in routes[d][k]:
                        loads[link.id] = (
                            loads.get(link.id, 0.0) + demands[d].traffic_bps
                        )
        dsrc_total = 0.0
        for link_id, load in loads.items():
            if shared and link_kind[link_id] == "dsrc":
                dsrc_total += load
                continue
            if load > link_caps[link_id] * (1 + 1e-9):
                return
        if shared and dsrc_total > dsrc_rate * (1 + 1e-9):
            return

        allowed = [
            [k for k in range(N) if masks[d] >> k & 1] for d in range(D)
        ]
        ok, proc_cost, x = _split_workloads(
            [dm.workload_mips for dm in demands],
            caps,
            allowed,
            [1.0 / e for e in eff],
        )
        if not ok:
            return
        obj = comm_acc + idle_sum + proc_cost
        if obj < best["obj"] - 1e-12:
            best["obj"] = obj
            best["masks"] = list(masks)
            best["x"] = x

    masks_stack: list[int] = []

    def dfs(d: int, union: int, comm_acc: float, idle_sum: float):
        if comm_acc + idle_sum + tail[d] >= best["obj"] - 1e-12:
            return
        if d == D:
            leaf(masks_stack, comm_acc, idle_sum)
            return
        for lowb, fixed, mask, req in candidates[d]:
            if comm_acc + idle_sum + lowb + tail[d + 1] >= best["obj"] - 1e-12:
                break  # sorted by fixed cost plus processing bound
            new_bits = req & ~union
            extra_idle = 0.0
            bits = new_bits
            while bits:
                k = (bits & -bits).bit_length() - 1
                extra_idle += idle[k]
                bits &= bits - 1
            masks_stack.append(mask)
            dfs(d + 1, union | req, comm_acc + fixed, idle_sum + extra_idle)
            masks_stack.pop()

    dfs(0, source_mask, 0.0, base_idle)

    stats = SolveStats(
        explored_nodes=leaves,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    if best["masks"] is None:
        return MilpSolution(
            status="infeasible",
            objective=float("nan"),
            placement=Placement.empty(),
            assignment=None,
            stats=stats,
        )
    x_map = {
        (demands[d].id, nodes[k].id): amount
        for (d, k), amount in best["x"].items()
        if amount > 1e-9
    }
    placement = Placement.build(scenario, x_map)
    report = evaluate_placement(scenario, placement)
    return MilpSolution(
        status="optimal",
        objective=report.total_w,
        placement=placement,
        assignment=None,
        stats=stats,
    )
