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

``build_milp`` writes the model in one pass straight into the arrays of
``MilpProblem.sparse``, beside the row labels and variable names.  The LP
workspace, the assignment checks and the interchange export all read that
one form; ``MilpProblem.rows`` and ``.variables`` are read-only record
views of it, built on first read for people and tests.

The module also reads groups of interchangeable nodes off those arrays:
two nodes are grouped when swapping their columns keeps the costs and
bounds and maps the model's rows onto themselves.  The groups do not
change the model; the search layer uses them to skip permutation
duplicates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .power import derive_power_params, hop_energy_per_bit
from .types import (
    IFACE_DSRC,
    PLACEMENT_THRESHOLD,
    Placement,
    PlacementError,
    Scenario,
)

# How far an assignment may stray from a bound, from integrality, or from
# a row (there scaled by max(1, |rhs|)) and still count as feasible.
FEAS_TOL = 1e-6

SENSE_LE, SENSE_GE, SENSE_EQ = 0, 1, 2
SENSES = ("<=", ">=", "=")  # a row's relation, by sense code


@dataclass(frozen=True)
class VarDef:
    """One column of ``MilpProblem.variables``, a view of the arrays."""

    name: str
    kind: str  # "continuous" | "binary"
    lower: float
    upper: float
    objective: float


@dataclass(frozen=True)
class RowDef:
    """One row of ``MilpProblem.rows``, a view of the arrays."""

    label: str
    coeffs: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class SparseForm:
    """A model as read-only arrays.

    The entries are COO triplets in row order, each row's coefficients in
    the order the row lists them, zeros included.
    """

    row: np.ndarray  # (nnz,) row of each entry
    col: np.ndarray  # (nnz,) variable of each entry
    val: np.ndarray  # (nnz,) coefficient
    sense: np.ndarray  # (m,) SENSE_LE, SENSE_GE or SENSE_EQ
    rhs: np.ndarray  # (m,)
    lb: np.ndarray  # (n,) variable bounds
    ub: np.ndarray  # (n,)
    c: np.ndarray  # (n,) objective
    binary: np.ndarray  # (n,) bool

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False


@dataclass(frozen=True)
class MilpProblem:
    """A minimization MILP plus the scenario it was built from."""

    sparse: SparseForm
    row_labels: tuple[str, ...]
    var_names: tuple[str, ...]
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

    @functools.cached_property
    def variables(self) -> tuple[VarDef, ...]:
        """The columns as records, built from the arrays on first read."""
        form = self.sparse
        return tuple(
            VarDef(name, "binary" if binary else "continuous", lo, hi, cost)
            for name, lo, hi, cost, binary in zip(
                self.var_names,
                form.lb.tolist(),
                form.ub.tolist(),
                form.c.tolist(),
                form.binary.tolist(),
            )
        )

    @functools.cached_property
    def rows(self) -> tuple[RowDef, ...]:
        """The rows as records, built from the arrays on first read."""
        form = self.sparse
        ends = np.cumsum(np.bincount(form.row, minlength=form.rhs.size))
        terms = list(zip(form.col.tolist(), form.val.tolist()))
        return tuple(
            RowDef(label, tuple(terms[start:end]), SENSES[code], rhs)
            for label, start, end, code, rhs in zip(
                self.row_labels,
                [0, *ends.tolist()],
                ends.tolist(),
                form.sense.tolist(),
                form.rhs.tolist(),
            )
        )

    @functools.cached_property
    def cleanup(self) -> CleanupArrays:
        """What cleaning reads, taken from the model's rows: the workloads
        from ``conserve``, the sources from ``source_active``, and each
        pair's switched nodes from its rows y[d,n] - a[m] <= 0
        (``serve_active`` and ``relay_active``)."""
        form = self.sparse
        DN, N = self.n_demands * self.n_nodes, self.n_nodes
        count = np.bincount(form.row, minlength=form.rhs.size)
        at = np.cumsum(count) - count  # each row's first entry
        first = np.append(form.col, -1)[at]  # read only where count > 0
        eq = form.sense == SENSE_EQ
        workload = form.rhs[eq & (count > 0) & (first < DN)]  # demand order
        fixed = first[eq & (count == 1) & (form.rhs == 1.0)]  # a[v] = 1
        sources = np.zeros(N, dtype=bool)
        sources[fixed[fixed >= 2 * DN] - 2 * DN] = True
        two = at[(count == 2) & (form.sense == SENSE_LE) & (form.rhs == 0.0)]
        y, a = form.col[two], form.col[two + 1]
        switch = (form.val[two] == 1.0) & (form.val[two + 1] == -1.0)
        switch &= (y >= DN) & (y < 2 * DN) & (a >= 2 * DN)
        switches = np.zeros((DN, N), dtype=bool)
        switches[y[switch] - DN, a[switch] - 2 * DN] = True
        arrays = CleanupArrays(
            workload=workload,
            floor=1e-7 * workload,
            sources=sources,
            switches=switches,
        )
        for array in vars(arrays).values():
            array.flags.writeable = False
        return arrays

    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.sparse.binary)

    def objective_vector(self) -> np.ndarray:
        return self.sparse.c.copy()


def interchange_classes(problem: MilpProblem) -> list[list[int]]:
    """Groups of node positions the placement model cannot distinguish.

    Read off the model's arrays alone.  Swapping nodes n and m swaps
    their columns x[d,n] and y[d,n] for every demand d, and a[n]; the two
    are grouped when the swap keeps each column's cost, bounds and
    integrality and maps the rows that touch either node onto the same
    multiset of rows.  Rows are compared exactly, on sense, right-hand-side
    bits and their sorted (column, coefficient bits) entries.  A candidate
    is checked only against its class head, since a product of symmetries
    is a symmetry.
    """
    form = problem.sparse
    N = problem.n_nodes
    # Node n owns the columns k*N + n: x by demand, then y, then a.
    cols = np.arange(2 * problem.n_demands + 1)[:, None] * N + np.arange(N)
    keys = np.concatenate(
        [form.c[cols], form.lb[cols], form.ub[cols], form.binary[cols]]
    ).T
    buckets: dict[bytes, list[int]] = {}
    for n in range(N):
        buckets.setdefault(keys[n].tobytes(), []).append(n)
    if all(len(group) == 1 for group in buckets.values()):
        return []

    owner = form.col % N
    ends = np.cumsum(np.bincount(form.row, minlength=form.rhs.size))
    terms = list(zip(form.col.tolist(), form.val.view(np.int64).tolist()))
    spans = list(zip([0, *ends.tolist()], ends.tolist()))
    heads = list(zip(form.sense.tolist(), form.rhs.view(np.int64).tolist()))

    def swaps(n: int, m: int) -> bool:
        shift = {n: m - n, m: n - m}
        touched = set(form.row[(owner == n) | (owner == m)].tolist())
        before, after = [], []
        for i in touched:
            entries = terms[slice(*spans[i])]
            before.append((heads[i], sorted(entries)))
            moved = [(j + shift.get(j % N, 0), v) for j, v in entries]
            after.append((heads[i], sorted(moved)))
        return sorted(before) == sorted(after)

    classes: list[list[int]] = []
    for group in buckets.values():
        while len(group) > 1:
            head, rest = group[0], group[1:]
            cls, group = [head], []
            for m in rest:
                (cls if swaps(head, m) else group).append(m)
            if len(cls) > 1:
                classes.append(cls)
    return classes


def build_milp(scenario: Scenario) -> MilpProblem:
    """Assemble the placement MILP for a validated scenario.

    One pass writes the variables (the x, y and a blocks) and then the
    rows, family by family in the order of the module docstring, straight
    into the arrays of ``MilpProblem.sparse``.
    """
    demands = scenario.demands
    nodes = scenario.nodes
    D, N = len(demands), len(nodes)
    DN = D * N
    params = {n.id: derive_power_params(n, scenario.options) for n in nodes}
    pairs = [(demand, node) for demand in demands for node in nodes]
    big_m = [min(node.capacity_mips, dm.workload_mips) for dm, node in pairs]
    names = [f"x[{dm.id},{node.id}]" for dm, node in pairs]
    names += [f"y[{dm.id},{node.id}]" for dm, node in pairs]
    names += [f"a[{node.id}]" for node in nodes]
    cost = [1.0 / params[node.id].efficiency_mips_per_w for _, node in pairs]
    hop = {link.id: hop_energy_per_bit(params, link) for link in scenario.links}
    routes = [scenario.hops(dm.source, node.id) for dm, node in pairs]
    cost += [
        dm.traffic_bps * sum(hop[link.id] for link in route)
        for (dm, _), route in zip(pairs, routes)
    ]
    cost += [params[node.id].idle_power_w for node in nodes]

    labels: list[str] = []
    senses: list[int] = []
    rhs: list[float] = []
    lengths: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(label, row_cols, row_vals, sense, bound):
        labels.append(label)
        senses.append(sense)
        rhs.append(bound)
        lengths.append(len(row_cols))
        cols.extend(row_cols)
        vals.extend(row_vals)

    # The y index of pair j = d*N + n is DN + j, and node n's a is 2*DN + n.
    for d, demand in enumerate(demands):
        add(
            f"conserve[{demand.id}]",
            range(d * N, d * N + N),
            [1.0] * N,
            SENSE_EQ,
            demand.workload_mips,
        )
    for j, (demand, node) in enumerate(pairs):
        add(
            f"bigm[{demand.id},{node.id}]",
            (j, DN + j),
            (1.0, -big_m[j]),
            SENSE_LE,
            0.0,
        )
    for n, node in enumerate(nodes):
        add(
            f"capacity[{node.id}]",
            [*range(n, DN, N), 2 * DN + n],
            [1.0] * D + [-node.capacity_mips],
            SENSE_LE,
            0.0,
        )
    for j, (demand, node) in enumerate(pairs):
        add(
            f"serve_active[{demand.id},{node.id}]",
            (DN + j, 2 * DN + j % N),
            (1.0, -1.0),
            SENSE_LE,
            0.0,
        )
    node_pos = {node.id: n for n, node in enumerate(nodes)}
    for d, demand in enumerate(demands):
        src = node_pos.get(demand.source)
        src_cap = nodes[src].capacity_mips if src is not None else 0.0
        if src_cap < demand.workload_mips:
            others = [DN + d * N + n for n in range(N) if n != src]
            add(
                f"cover[{demand.id}]",
                others,
                [1.0] * len(others),
                SENSE_GE,
                1.0,
            )
    for source in sorted(
        {d.source for d in demands}, key=node_pos.__getitem__
    ):
        add(
            f"source_active[{source}]",
            (2 * DN + node_pos[source],),
            (1.0,),
            SENSE_EQ,
            1.0,
        )
    for j, (demand, node) in enumerate(pairs):
        for link in routes[j][:-1]:
            add(
                f"relay_active[{demand.id},{node.id},{link.tail}]",
                (DN + j, 2 * DN + node_pos[link.tail]),
                (1.0, -1.0),
                SENSE_LE,
                0.0,
            )

    # Bandwidth: each serving node pulls the full demand traffic across
    # every link of its route (the source's own route has none).
    usage: dict[str, list[tuple[int, float]]] = {}
    for j, (demand, _) in enumerate(pairs):
        for link in routes[j]:
            usage.setdefault(link.id, []).append((DN + j, demand.traffic_bps))
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
        add(
            f"bandwidth[{link.id}]",
            [idx for idx, _ in terms],
            [t for _, t in terms],
            SENSE_LE,
            link.capacity_bps,
        )
    if shared_dsrc and shared_terms:
        dsrc_caps = [
            l.capacity_bps for l in scenario.links if l.kind == IFACE_DSRC
        ]
        merged = sorted(shared_terms)
        add(
            "bandwidth[dsrc_medium]",
            merged,
            [shared_terms[idx] for idx in merged],
            SENSE_LE,
            min(dsrc_caps),
        )

    form = SparseForm(
        row=np.repeat(np.arange(len(labels)), lengths),
        col=np.array(cols, dtype=np.intp),
        val=np.array(vals, dtype=float),
        sense=np.array(senses, dtype=np.int8),
        rhs=np.array(rhs, dtype=float),
        lb=np.zeros(len(names)),
        ub=np.array(big_m + [1.0] * (DN + N), dtype=float),
        c=np.array(cost, dtype=float),
        binary=np.arange(len(names)) >= DN,
    )
    return MilpProblem(
        sparse=form,
        row_labels=tuple(labels),
        var_names=tuple(names),
        demand_ids=tuple(d.id for d in demands),
        node_ids=tuple(n.id for n in nodes),
        scenario=scenario,
    )


def _fractional(form: SparseForm, v: np.ndarray) -> np.ndarray:
    """Mask of the binaries farther than FEAS_TOL from 0 and from 1."""
    return form.binary & (np.minimum(np.abs(v), np.abs(v - 1)) > FEAS_TOL)


_VIOLATED = (">", "<", "!=")  # a violated row's relation, by sense code


def check_assignment(problem: MilpProblem, values: Sequence[float]) -> list[str]:
    """Row and bound violations of a full assignment vector."""
    form = problem.sparse
    v = np.asarray(values, dtype=float)
    out_of_bounds = (v < form.lb - FEAS_TOL) | (v > form.ub + FEAS_TOL)
    fractional = _fractional(form, v)
    out = []
    for i in np.flatnonzero(out_of_bounds | fractional):
        name = problem.var_names[i]
        if out_of_bounds[i]:
            out.append(f"{name}: value {v[i]:g} outside bounds")
        if fractional[i]:
            out.append(f"{name}: value {v[i]:g} not integral")
    rhs = form.rhs
    lhs = np.bincount(
        form.row, weights=v[form.col] * form.val, minlength=rhs.size
    )
    slack = FEAS_TOL * np.maximum(1.0, np.abs(rhs))
    violated = np.choose(
        form.sense,
        (lhs > rhs + slack, lhs < rhs - slack, np.abs(lhs - rhs) > slack),
    )
    for i in np.flatnonzero(violated):
        op = _VIOLATED[form.sense[i]]
        out.append(f"{problem.row_labels[i]}: {lhs[i]:g} {op} {rhs[i]:g}")
    return out


def extract_placement(
    problem: MilpProblem, values: Sequence[float]
) -> Placement:
    """Read a placement out of a solved assignment vector.

    Serving and active sets are rederived from the x values and routes,
    not from y and a, so slack activations are dropped.
    """
    v = np.asarray(values, dtype=float)
    fractional = np.flatnonzero(_fractional(problem.sparse, v))
    if fractional.size:
        i = fractional[0]
        raise PlacementError(
            f"{problem.var_names[i]}: fractional value {v[i]:g} "
            "in integer assignment"
        )
    N = problem.n_nodes
    placed = np.flatnonzero(v[: problem.n_demands * N] > PLACEMENT_THRESHOLD)
    x = {
        (problem.demand_ids[k // N], problem.node_ids[k % N]): amount
        for k, amount in zip(placed.tolist(), v[placed].tolist())
    }
    return Placement.build(problem.scenario, x)


def assignment_from_placement(
    problem: MilpProblem, placement: Placement
) -> np.ndarray:
    """Full variable vector (x, y, a) matching a placement."""
    v = np.zeros(problem.sparse.c.size)
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
    """What ``clean_assignment`` reads, gathered once from a model's rows."""

    workload: np.ndarray  # (D,) MIPS of each demand
    floor: np.ndarray  # (D,) assignment crumbs below this are noise
    sources: np.ndarray  # (N,) bool, node is some demand's source
    switches: np.ndarray  # (D*N, N) bool, [d*N + n, m]: serving d at n needs m


def clean_assignment(problem: MilpProblem, values: np.ndarray) -> np.ndarray:
    """Strip solver noise from an integral assignment.

    Zeroes assignment crumbs below a relative threshold, rescales each
    demand's remaining shares so conservation holds exactly, and rederives
    y and a from the cleaned x and the model's rows, read once per model
    into ``problem.cleanup``.
    """
    arrays = problem.cleanup
    v = np.array(values, dtype=float)
    D, N = problem.n_demands, problem.n_nodes
    DN = D * N
    x = v[:DN].reshape(D, N)  # a view: edits land in v
    x[x < arrays.floor[:, None]] = 0.0
    total = x.sum(axis=1)
    pos = total > 0
    x[pos] *= (arrays.workload[pos] / total[pos])[:, None]
    serving = (x > 0).ravel()
    v[DN : 2 * DN] = serving
    v[2 * DN : 2 * DN + N] = arrays.sources | (serving @ arrays.switches)
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

    form = problem.sparse
    labels = [ident(label) for label in problem.row_labels]
    lines = [f"NAME          {name}", "ROWS", " N  COST"]
    for label, code in zip(labels, form.sense.tolist()):
        lines.append(f" {'LGE'[code]}  {label}")

    # A stable sort of the row-ordered triplets by column lists each
    # column's entries in row order.  Every number is printed from the
    # form's float arrays, and ``tolist`` hands repr plain floats.
    by_col = np.argsort(form.col, kind="stable")
    entries = list(zip(form.row[by_col].tolist(), form.val[by_col].tolist()))
    counts = np.bincount(form.col, minlength=form.c.size)
    starts = np.cumsum(counts) - counts
    cost, lb, ub = form.c.tolist(), form.lb.tolist(), form.ub.tolist()
    binary = form.binary.tolist()

    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for j, var_name in enumerate(problem.var_names):
        if binary[j] != in_int:
            tag = "INTORG" if not in_int else "INTEND"
            lines.append(
                f"    MARKER{marker:<8}'MARKER'                 '{tag}'"
            )
            in_int = not in_int
            marker += 1
        col = ident(var_name)
        lines.append(f"    {col:<24}{'COST':<24}{cost[j]!r}")
        for i, coeff in entries[starts[j] : starts[j] + counts[j]]:
            lines.append(f"    {col:<24}{labels[i]:<24}{coeff!r}")
    if in_int:
        lines.append(
            f"    MARKER{marker:<8}'MARKER'                 'INTEND'"
        )

    lines.append("RHS")
    for label, rhs in zip(labels, form.rhs.tolist()):
        if rhs != 0.0:
            lines.append(f"    RHS{'':<21}{label:<24}{rhs!r}")

    lines.append("BOUNDS")
    for j, var_name in enumerate(problem.var_names):
        col = ident(var_name)
        if binary[j]:
            lines.append(f" BV BND{'':<21}{col}")
        else:
            if lb[j] != 0.0:
                lines.append(f" LO BND{'':<21}{col:<24}{lb[j]!r}")
            lines.append(f" UP BND{'':<21}{col:<24}{ub[j]!r}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
