"""The legacy join-order planners: ablation baselines, not library planners.

The library plans joins with the Selinger dynamic program
(:func:`repro.evaluation.plan_dp`) and keeps :func:`repro.evaluation.plan_greedy`
as its differential baseline.  The planners here predate the
statistics-calibrated cost model and survive only as the baselines the
ablation benchmarks (``benchmarks/bench_join_order_ablation.py``,
``benchmarks/bench_plan_quality.py``) and the calibration guard
(``tests/test_plan_calibration.py``) measure the library planners against:

* :func:`plan_in_query_order` — no planning, atoms as written;
* :func:`plan_by_cardinality` — atoms by estimated scan size alone;
* :func:`plan_greedy_heuristic` — the historical greedy planner driven by
  :func:`estimate_cardinality`, the 1/10-per-constraint heuristic.

Each returns a :class:`~repro.evaluation.JoinPlan` whose step estimates
come from the calibrated model, so only the *order* differs from the
library planners, and each can be passed as ``planner=`` to the plan entry
points.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.datamodel import Atom, Constant, Instance, Term, Variable
from repro.evaluation import JoinPlan, Statistics
from repro.evaluation.join_plans import _cost_model, _plan_from_order
from repro.evaluation.relation import ScanProvider
from repro.queries.cq import ConjunctiveQuery


def estimate_cardinality(atom: Atom, database: Instance) -> int:
    """The *legacy heuristic* estimate of the facts matching ``atom``.

    Relation size, discounted by one fixed factor of 10 per constant or
    repeated-variable constraint — monotone but blind to the actual value
    distributions.  Superseded by the statistics-calibrated
    :meth:`~repro.evaluation.operators.CostModel.scan_estimate` everywhere
    the library planners run.
    """
    base = len(database.atoms_with_predicate(atom.predicate))
    constraints = sum(1 for term in atom.terms if isinstance(term, Constant))
    seen: Set[Term] = set()
    for term in atom.terms:
        if isinstance(term, Variable):
            if term in seen:
                constraints += 1
            seen.add(term)
    for _ in range(constraints):
        base = max(1, base // 10) if base else 0
    return base


def plan_in_query_order(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    backend: Optional[str] = None,
) -> JoinPlan:
    """The "no planning" plan: atoms in the order they appear in the query."""
    del backend  # planning is backend-independent; accepted for uniformity
    model = _cost_model(database, scans, statistics)
    return _plan_from_order(query, list(query.body), model)


def plan_by_cardinality(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    backend: Optional[str] = None,
) -> JoinPlan:
    """Left-deep plan ordering atoms by estimated scan cardinality only."""
    del backend
    model = _cost_model(database, scans, statistics)
    ordered = sorted(
        query.body, key=lambda atom: (model.scan_estimate(atom).rows, str(atom))
    )
    return _plan_from_order(query, ordered, model)


def plan_greedy_heuristic(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    backend: Optional[str] = None,
) -> JoinPlan:
    """The historical greedy planner driven by :func:`estimate_cardinality`.

    Connected atoms preferred, ordered by the 1/10-per-constraint scan
    heuristic alone (no join selectivities).  The step estimates recorded
    on the plan still come from the calibrated model, so only the *order*
    differs from :func:`repro.evaluation.plan_greedy`.
    """
    del backend
    model = _cost_model(database, scans, statistics)
    remaining = list(query.body)
    if not remaining:
        return JoinPlan(query)

    ordered: List[Atom] = []
    bound_variables: Set[Variable] = set()
    first = min(
        remaining, key=lambda atom: (estimate_cardinality(atom, database), str(atom))
    )
    ordered.append(first)
    bound_variables.update(first.variables())
    remaining.remove(first)

    while remaining:
        connected = [atom for atom in remaining if atom.variables() & bound_variables]
        pool = connected or remaining
        chosen = min(
            pool, key=lambda atom: (estimate_cardinality(atom, database), str(atom))
        )
        ordered.append(chosen)
        bound_variables.update(chosen.variables())
        remaining.remove(chosen)

    return _plan_from_order(query, ordered, model)
