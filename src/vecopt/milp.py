"""Mixed-integer model of the placement problem.

Variables, in blocks:
    x[d,n]  continuous  MIPS of demand d processed at node n
    y[d,n]  binary      node n serves demand d (receives its full traffic)
    a[n]    binary      node n is powered on

Rows:
    conserve[d]        sum_n x[d,n] = workload(d)
    bigm[d,n]          x[d,n] <= min(cap_n, workload_d) * y[d,n]
    capacity[n]        sum_d x[d,n] <= cap_n * a[n]
    serve_active[d,n]  y[d,n] <= a[n]
    source_active[v]   a[v] = 1 for every demand source v
    relay_active[d,n,m] y[d,n] <= a[m] for each relay m on the route
    bandwidth[l]       sum over (d,n) whose route uses l of t_d*y[d,n] <= cap_l
    cover[d]           sum over n != source of y[d,n] >= 1 when the source
                       alone cannot hold the demand

The objective prices activation at idle power, processing at 1/efficiency,
and serving at the full-traffic replication cost along the fixed route.

The module also detects groups of interchangeable nodes (identical spec,
identical route costs from every source, no relay or bandwidth
entanglement).  The groups do not change the model; the search layer uses
them to skip permutation duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .power import derive_power_params
from .types import (
    IFACE_DSRC,
    Placement,
    PlacementError,
    Scenario,
    ScenarioError,
)

ROLE_ASSIGN = "assign"
ROLE_SERVE = "serve"
ROLE_ACTIVATE = "activate"


class ModelError(ValueError):
    """The scenario cannot be turned into a well-formed model."""


@dataclass(frozen=True)
class VarDef:
    name: str
    kind: str  # "continuous" | "binary"
    lower: float
    upper: float
    objective: float
    role: str
    demand: str | None
    node: str


@dataclass(frozen=True)
class RowDef:
    label: str
    coeffs: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class MilpProblem:
    """A minimization MILP plus the scenario it was built from."""

    variables: tuple[VarDef, ...]
    rows: tuple[RowDef, ...]
    demand_ids: tuple[str, ...]
    node_ids: tuple[str, ...]
    scenario: Scenario = field(repr=False)

    @property
    def n_demands(self) -> int:
        return len(self.demand_ids)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def x_index(self, d: int, n: int) -> int:
        return d * self.n_nodes + n

    def y_index(self, d: int, n: int) -> int:
        return self.n_demands * self.n_nodes + d * self.n_nodes + n

    def a_index(self, n: int) -> int:
        return 2 * self.n_demands * self.n_nodes + n

    def binary_indices(self) -> np.ndarray:
        return np.array(
            [i for i, v in enumerate(self.variables) if v.kind == "binary"],
            dtype=np.int64,
        )

    def objective_vector(self) -> np.ndarray:
        return np.array([v.objective for v in self.variables])

    def objective_value(self, values: Sequence[float]) -> float:
        return float(np.dot(self.objective_vector(), np.asarray(values)))


def route_energy_per_bit(scenario: Scenario, src: str, dst: str) -> float:
    """Joules per bit along the fixed route (zero when src == dst)."""
    return sum(
        scenario.link(l).energy_per_bit
        for l in scenario.route(src, dst).links
    )


def _spec_key(node) -> tuple:
    return (
        node.tier,
        node.max_power_w,
        node.idle_power_w,
        node.processing_fraction,
        node.communication_fraction,
        node.capacity_mips,
        tuple(sorted((i.kind, i.capacity_bps) for i in node.interfaces)),
    )


def _pair_interchangeable(
    scenario: Scenario,
    n_id: str,
    m_id: str,
    link_dests: Mapping[str, set[str]],
) -> bool:
    """Whether swapping n and m provably maps the model onto itself."""

    def sub(node_id: str) -> str:
        if node_id == n_id:
            return m_id
        if node_id == m_id:
            return n_id
        return node_id

    for demand in scenario.demands:
        rn = scenario.route(demand.source, n_id).links
        rm = scenario.route(demand.source, m_id).links
        if len(rn) != len(rm):
            return False
        for ln_id, lm_id in zip(rn, rm):
            ln, lm = scenario.link(ln_id), scenario.link(lm_id)
            if sub(ln.head) != lm.head or sub(ln.tail) != lm.tail:
                return False
            if ln_id == lm_id:
                continue
            if (ln.kind, ln.capacity_bps, ln.energy_per_bit) != (
                lm.kind,
                lm.capacity_bps,
                lm.energy_per_bit,
            ):
                return False
            # A differing link must serve no third destination, or the
            # swap would drag unrelated bandwidth terms along.
            if link_dests.get(ln_id, set()) - {n_id}:
                return False
            if link_dests.get(lm_id, set()) - {m_id}:
                return False
    return True


def interchange_classes(scenario: Scenario) -> list[list[int]]:
    """Groups of node positions the placement model cannot distinguish.

    Membership is conservative: identical hardware, never a demand
    source, never a relay on any demand route, and route-by-route
    identical communication structure from every source.
    """
    demands = scenario.demands
    nodes = scenario.nodes
    sources = {d.source for d in demands}
    relays: set[str] = set()
    link_dests: dict[str, set[str]] = {}
    for demand in demands:
        for node in nodes:
            relays.update(
                scenario.path_intermediates(demand.source, node.id)
            )
            for link_id in scenario.route(demand.source, node.id).links:
                link_dests.setdefault(link_id, set()).add(node.id)

    by_spec: dict[tuple, list[int]] = {}
    for pos, node in enumerate(nodes):
        if node.id in sources or node.id in relays:
            continue
        by_spec.setdefault(_spec_key(node), []).append(pos)

    classes: list[list[int]] = []
    for group in by_spec.values():
        while len(group) > 1:
            head, rest = group[0], group[1:]
            cls = [head]
            left = []
            for pos in rest:
                ok = all(
                    _pair_interchangeable(
                        scenario,
                        nodes[a].id,
                        nodes[pos].id,
                        link_dests,
                    )
                    for a in cls
                )
                (cls if ok else left).append(pos)
            if len(cls) > 1:
                classes.append(cls)
            group = left
    return classes


def build_milp(scenario: Scenario) -> MilpProblem:
    """Assemble the placement MILP for a validated scenario."""
    demands = scenario.demands
    nodes = scenario.nodes
    D, N = len(demands), len(nodes)
    params = {n.id: derive_power_params(n, scenario.options) for n in nodes}

    for d in demands:
        for n in nodes:
            scenario.route(d.source, n.id)  # raises if unreachable

    def xi(d: int, n: int) -> int:
        return d * N + n

    def yi(d: int, n: int) -> int:
        return D * N + d * N + n

    def ai(n: int) -> int:
        return 2 * D * N + n

    variables: list[VarDef] = []
    for d, demand in enumerate(demands):
        for n, node in enumerate(nodes):
            big_m = min(node.capacity_mips, demand.workload_mips)
            variables.append(
                VarDef(
                    name=f"x[{demand.id},{node.id}]",
                    kind="continuous",
                    lower=0.0,
                    upper=big_m,
                    objective=1.0 / params[node.id].efficiency_mips_per_w,
                    role=ROLE_ASSIGN,
                    demand=demand.id,
                    node=node.id,
                )
            )
    for d, demand in enumerate(demands):
        for n, node in enumerate(nodes):
            comm = demand.traffic_bps * route_energy_per_bit(
                scenario, demand.source, node.id
            )
            variables.append(
                VarDef(
                    name=f"y[{demand.id},{node.id}]",
                    kind="binary",
                    lower=0.0,
                    upper=1.0,
                    objective=comm,
                    role=ROLE_SERVE,
                    demand=demand.id,
                    node=node.id,
                )
            )
    for node in nodes:
        variables.append(
            VarDef(
                name=f"a[{node.id}]",
                kind="binary",
                lower=0.0,
                upper=1.0,
                objective=params[node.id].idle_power_w,
                role=ROLE_ACTIVATE,
                demand=None,
                node=node.id,
            )
        )
    rows: list[RowDef] = []
    for d, demand in enumerate(demands):
        rows.append(
            RowDef(
                label=f"conserve[{demand.id}]",
                coeffs=tuple((xi(d, n), 1.0) for n in range(N)),
                sense="=",
                rhs=demand.workload_mips,
            )
        )
    for d, demand in enumerate(demands):
        for n, node in enumerate(nodes):
            big_m = min(node.capacity_mips, demand.workload_mips)
            rows.append(
                RowDef(
                    label=f"bigm[{demand.id},{node.id}]",
                    coeffs=((xi(d, n), 1.0), (yi(d, n), -big_m)),
                    sense="<=",
                    rhs=0.0,
                )
            )
    for n, node in enumerate(nodes):
        rows.append(
            RowDef(
                label=f"capacity[{node.id}]",
                coeffs=tuple((xi(d, n), 1.0) for d in range(D))
                + ((ai(n), -node.capacity_mips),),
                sense="<=",
                rhs=0.0,
            )
        )
    for d, demand in enumerate(demands):
        for n, node in enumerate(nodes):
            rows.append(
                RowDef(
                    label=f"serve_active[{demand.id},{node.id}]",
                    coeffs=((yi(d, n), 1.0), (ai(n), -1.0)),
                    sense="<=",
                    rhs=0.0,
                )
            )
    node_pos = {node.id: n for n, node in enumerate(nodes)}
    for d, demand in enumerate(demands):
        src = node_pos.get(demand.source)
        src_cap = nodes[src].capacity_mips if src is not None else 0.0
        if src_cap < demand.workload_mips:
            rows.append(
                RowDef(
                    label=f"cover[{demand.id}]",
                    coeffs=tuple(
                        (yi(d, n), 1.0) for n in range(N) if n != src
                    ),
                    sense=">=",
                    rhs=1.0,
                )
            )
    for source in sorted(
        {d.source for d in demands}, key=node_pos.__getitem__
    ):
        rows.append(
            RowDef(
                label=f"source_active[{source}]",
                coeffs=((ai(node_pos[source]), 1.0),),
                sense="=",
                rhs=1.0,
            )
        )
    for d, demand in enumerate(demands):
        for n, node in enumerate(nodes):
            for relay in scenario.path_intermediates(demand.source, node.id):
                rows.append(
                    RowDef(
                        label=(
                            f"relay_active[{demand.id},{node.id},{relay}]"
                        ),
                        coeffs=((yi(d, n), 1.0), (ai(node_pos[relay]), -1.0)),
                        sense="<=",
                        rhs=0.0,
                    )
                )

    # Bandwidth: each serving node other than the source pulls the full
    # demand traffic across every link of its route.
    usage: dict[str, list[tuple[int, float]]] = {}
    for d, demand in enumerate(demands):
        for n, node in enumerate(nodes):
            if node.id == demand.source:
                continue
            for link_id in scenario.route(demand.source, node.id).links:
                usage.setdefault(link_id, []).append(
                    (yi(d, n), demand.traffic_bps)
                )
    shared_dsrc = scenario.options.dsrc_medium == "shared"
    shared_terms: dict[int, float] = {}
    for link in scenario.links:
        terms = usage.get(link.id)
        if not terms:
            continue
        if shared_dsrc and link.kind == IFACE_DSRC:
            for idx, t in terms:
                shared_terms[idx] = shared_terms.get(idx, 0.0) + t
            continue
        rows.append(
            RowDef(
                label=f"bandwidth[{link.id}]",
                coeffs=tuple(terms),
                sense="<=",
                rhs=link.capacity_bps,
            )
        )
    if shared_dsrc and shared_terms:
        dsrc_caps = [
            l.capacity_bps for l in scenario.links if l.kind == IFACE_DSRC
        ]
        rows.append(
            RowDef(
                label="bandwidth[dsrc_medium]",
                coeffs=tuple(sorted(shared_terms.items())),
                sense="<=",
                rhs=min(dsrc_caps),
            )
        )

    return MilpProblem(
        variables=tuple(variables),
        rows=tuple(rows),
        demand_ids=tuple(d.id for d in demands),
        node_ids=tuple(n.id for n in nodes),
        scenario=scenario,
    )


def check_assignment(
    problem: MilpProblem, values: Sequence[float], tol: float = 1e-6
) -> list[str]:
    """Row and bound violations of a full assignment vector."""
    v = np.asarray(values, dtype=float)
    out = []
    for i, var in enumerate(problem.variables):
        if v[i] < var.lower - tol or v[i] > var.upper + tol:
            out.append(f"{var.name}: value {v[i]:g} outside bounds")
        if var.kind == "binary" and min(abs(v[i]), abs(v[i] - 1)) > tol:
            out.append(f"{var.name}: value {v[i]:g} not integral")
    for row in problem.rows:
        lhs = sum(c * v[j] for j, c in row.coeffs)
        scale = max(1.0, abs(row.rhs))
        if row.sense == "<=" and lhs > row.rhs + tol * scale:
            out.append(f"{row.label}: {lhs:g} > {row.rhs:g}")
        elif row.sense == ">=" and lhs < row.rhs - tol * scale:
            out.append(f"{row.label}: {lhs:g} < {row.rhs:g}")
        elif row.sense == "=" and abs(lhs - row.rhs) > tol * scale:
            out.append(f"{row.label}: {lhs:g} != {row.rhs:g}")
    return out


def extract_placement(
    problem: MilpProblem,
    values: Sequence[float],
    threshold: float = 1e-9,
    integrality_tol: float = 1e-6,
) -> Placement:
    """Read a placement out of a solved assignment vector.

    Serving and active sets are rederived from the x values and routes,
    not from y and a, so slack activations are dropped.
    """
    v = np.asarray(values, dtype=float)
    for i, var in enumerate(problem.variables):
        if var.kind == "binary" and min(abs(v[i]), abs(v[i] - 1)) > integrality_tol:
            raise PlacementError(
                f"{var.name}: fractional value {v[i]:g} in integer assignment"
            )
    x: dict[tuple[str, str], float] = {}
    for d, demand_id in enumerate(problem.demand_ids):
        for n, node_id in enumerate(problem.node_ids):
            amount = float(v[problem.x_index(d, n)])
            if amount > threshold:
                x[(demand_id, node_id)] = amount
    return Placement.build(problem.scenario, x, threshold=threshold)


def assignment_from_placement(
    problem: MilpProblem, placement: Placement
) -> np.ndarray:
    """Full variable vector (x, y, a) matching a placement."""
    v = np.zeros(len(problem.variables))
    node_pos = {node_id: n for n, node_id in enumerate(problem.node_ids)}
    demand_pos = {d_id: d for d, d_id in enumerate(problem.demand_ids)}
    for (d_id, n_id), amount in placement.x.items():
        d, n = demand_pos[d_id], node_pos[n_id]
        v[problem.x_index(d, n)] = amount
        v[problem.y_index(d, n)] = 1.0
    active = set(placement.active)
    for d_id in problem.demand_ids:
        active.update(placement.serving.get(d_id, ()))
    for n_id in active:
        v[problem.a_index(node_pos[n_id])] = 1.0
    return v


@dataclass(frozen=True)
class CleanupArrays:
    """What ``clean_assignment`` reads from a model, gathered once."""

    workload: np.ndarray  # (D,) MIPS of each demand
    floor: np.ndarray  # (D,) assignment crumbs below this are noise
    sources: np.ndarray  # (N,) bool, node is some demand's source
    relays: np.ndarray  # (D, N, N) bool, [d, n, m]: m relays d's route to n


def cleanup_arrays(problem: MilpProblem) -> CleanupArrays:
    """Demand workloads, sources and route relays as arrays."""
    scenario = problem.scenario
    D, N = problem.n_demands, problem.n_nodes
    node_pos = {node_id: n for n, node_id in enumerate(problem.node_ids)}
    workload = np.array([dm.workload_mips for dm in scenario.demands])
    sources = np.zeros(N, dtype=bool)
    relays = np.zeros((D, N, N), dtype=bool)
    for d, demand in enumerate(scenario.demands):
        sources[node_pos[demand.source]] = True
        for n, node_id in enumerate(problem.node_ids):
            for relay in scenario.path_intermediates(demand.source, node_id):
                relays[d, n, node_pos[relay]] = True
    return CleanupArrays(
        workload=workload,
        floor=1e-7 * workload,
        sources=sources,
        relays=relays,
    )


def clean_assignment(
    problem: MilpProblem,
    values: np.ndarray,
    arrays: CleanupArrays | None = None,
) -> np.ndarray:
    """Strip solver noise from an integral assignment.

    Zeroes assignment crumbs below a relative threshold, rescales each
    demand's remaining shares so conservation holds exactly, and rederives
    y and a from the cleaned x plus route requirements.  Callers that
    clean many vectors of one model pass ``cleanup_arrays(problem)``.
    """
    if arrays is None:
        arrays = cleanup_arrays(problem)
    v = np.array(values, dtype=float)
    D, N = problem.n_demands, problem.n_nodes
    DN = D * N
    x = v[:DN].reshape(D, N)  # a view: edits land in v
    x[x < arrays.floor[:, None]] = 0.0
    total = x.sum(axis=1)
    pos = total > 0
    x[pos] *= (arrays.workload[pos] / total[pos])[:, None]
    serving = x > 0
    v[DN : 2 * DN] = serving.ravel()
    relayed = arrays.relays[serving].any(axis=0)
    v[2 * DN : 2 * DN + N] = arrays.sources | serving.any(axis=0) | relayed
    return v


def to_fixed_format(problem: MilpProblem, name: str = "VECOPT") -> str:
    """Render the model in the fixed-section interchange layout.

    Sections NAME / ROWS / COLUMNS / RHS / BOUNDS / ENDATA with integer
    variables wrapped in INTORG / INTEND markers; identifiers have
    brackets and commas mapped to underscores so third-party readers keep
    them as single tokens.
    """

    def ident(text: str) -> str:
        return (
            text.replace("[", "_")
            .replace("]", "")
            .replace(",", "_")
            .replace(">", "_")
        )

    sense_tag = {"<=": "L", ">=": "G", "=": "E"}
    lines = [f"NAME          {name}", "ROWS", " N  COST"]
    for row in problem.rows:
        lines.append(f" {sense_tag[row.sense]}  {ident(row.label)}")

    by_var: dict[int, list[tuple[str, float]]] = {}
    for row in problem.rows:
        for j, coeff in row.coeffs:
            by_var.setdefault(j, []).append((ident(row.label), coeff))

    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for j, var in enumerate(problem.variables):
        if (var.kind == "binary") != in_int:
            tag = "INTORG" if not in_int else "INTEND"
            lines.append(
                f"    MARKER{marker:<8}'MARKER'                 '{tag}'"
            )
            in_int = not in_int
            marker += 1
        entries = [("COST", var.objective)] + by_var.get(j, [])
        col = ident(var.name)
        for row_name, coeff in entries:
            lines.append(f"    {col:<24}{row_name:<24}{coeff!r}")
    if in_int:
        lines.append(
            f"    MARKER{marker:<8}'MARKER'                 'INTEND'"
        )

    lines.append("RHS")
    for row in problem.rows:
        if row.rhs != 0.0:
            lines.append(f"    RHS{'':<21}{ident(row.label):<24}{row.rhs!r}")

    lines.append("BOUNDS")
    for var in problem.variables:
        col = ident(var.name)
        if var.kind == "binary":
            lines.append(f" BV BND{'':<21}{col}")
        else:
            if var.lower != 0.0:
                lines.append(f" LO BND{'':<21}{col:<24}{var.lower!r}")
            lines.append(f" UP BND{'':<21}{col:<24}{var.upper!r}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
