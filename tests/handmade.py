"""Models written by hand for the tests, as the arrays the solver reads."""

import numpy as np

from vecopt.milp import SENSES, MilpProblem, RowDef, SparseForm, VarDef


def hand_model(
    variables: tuple[VarDef, ...],
    rows: tuple[RowDef, ...],
    demand_ids: tuple[str, ...],
    node_ids: tuple[str, ...],
) -> MilpProblem:
    """The model whose ``variables`` and ``rows`` views read as given."""
    form = SparseForm(
        row=np.repeat(np.arange(len(rows)), [len(r.coeffs) for r in rows]),
        col=np.array([j for r in rows for j, _ in r.coeffs], dtype=np.intp),
        val=np.array([c for r in rows for _, c in r.coeffs], dtype=float),
        sense=np.array([SENSES.index(r.sense) for r in rows], dtype=np.int8),
        rhs=np.array([r.rhs for r in rows], dtype=float),
        lb=np.array([v.lower for v in variables], dtype=float),
        ub=np.array([v.upper for v in variables], dtype=float),
        c=np.array([v.objective for v in variables], dtype=float),
        binary=np.array([v.kind == "binary" for v in variables], dtype=bool),
    )
    return MilpProblem(
        sparse=form,
        row_labels=tuple(r.label for r in rows),
        var_names=tuple(v.name for v in variables),
        demand_ids=demand_ids,
        node_ids=node_ids,
        scenario=None,
    )
