"""Traced replays of the library's evaluation entry points.

Each function repeats the layer calls one public entry point makes, with a
span around every call into a layer:

1. ``route``   — evaluator construction; for a cyclic query the acyclicity
   attempt, ``decide_semantic_acyclicity_tgds`` (child span
   ``core.decide``) and the chosen evaluator;
2. ``scan``    — the base scans: for a one-shot call ``Relation.from_atom``
   per body atom, as the call's scan nodes build them (no cache); for a
   service read ``ScanCache.sync`` and ``ScanCache.scan``;
3. ``compile`` — ``compile_answer_plan`` or ``compile_stream_plan``;
4. ``engine``  — ``materialize`` of the plan (``stream`` for cursor
   iteration, which projects each answer as it is pulled);
5. ``decode``  — ``answer_tuples`` (materialising plans only).

The replays read only public attributes, follow the execution face the
library resolves by default, and return the answers they produce.  A
one-shot call builds its scans lazily inside plan execution; the replay
builds the same relations up front, under the ``scan`` span, and hands
them to the plan's scan nodes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core import decide_semantic_acyclicity_tgds
from repro.queries import core
from repro.evaluation.batch import ScanCache
from repro.evaluation.operators import ExecutionContext
from repro.evaluation.planner_dp import DecompositionEvaluator
from repro.evaluation.relation import Partition, Relation
from repro.evaluation.yannakakis import AcyclicityRequired, YannakakisEvaluator
from repro.service import canonical_form

from harness import Tracer


def route(tracer: Tracer, query, tgds: Sequence = ()) -> Tuple[str, YannakakisEvaluator]:
    """``resolve_route`` under ``engine="auto"``, one span per decision."""
    with tracer.span("route"):
        try:
            return "yannakakis", YannakakisEvaluator(query)
        except AcyclicityRequired:
            pass
        if tgds:
            with tracer.span("core.decide"):
                decision = decide_semantic_acyclicity_tgds(query, tgds)
            tracer.count("core.candidates", decision.candidates_checked)
            tracer.count("core.witnesses", 1 if decision.witness is not None else 0)
            if decision.witness is not None:
                return "reformulated", YannakakisEvaluator(decision.witness)
        return "decomposition", DecompositionEvaluator(query)


class ColdScans:
    """The scans of a one-shot call, built before the plan runs.

    ``Relation.from_atom`` per body atom, with no cache, exactly as the
    call's scan nodes build them; each prebuilt relation is handed out once,
    and a further request for the same atom is built on the spot, as the
    call would build it.
    """

    def __init__(self, tracer: Tracer, database, atoms) -> None:
        self.ready = {}
        with tracer.span("scan"):
            for atom in atoms:
                self.ready.setdefault(atom, []).append(Relation.from_atom(atom, database))
        self.built = len(atoms)
        self.served = 0

    def scan(self, atom, database=None) -> Relation:
        self.served += 1
        ready = self.ready.get(atom)
        if ready:
            return ready.pop()
        self.built += 1
        return Relation.from_atom(atom, database)


def scans(tracer: Tracer, cache: ScanCache, atoms) -> None:
    with tracer.span("scan"):
        for atom in atoms:
            cache.scan(atom)


def _engine_counts(tracer: Tracer, plan, probes_before: int, answers: int) -> None:
    rows = sum(node.observed_rows or 0 for node in plan.walk())
    tracer.count("engine.probes", Partition.total_probes - probes_before)
    tracer.count("engine.rows", rows)
    tracer.count("engine.answers", answers)


def materialise(
    tracer: Tracer, evaluator: YannakakisEvaluator, database, cache: ColdScans
) -> Set[tuple]:
    """``YannakakisEvaluator.evaluate`` with scans served by ``cache``."""
    with tracer.span("compile"):
        plan = evaluator.compile_answer_plan()
    context = ExecutionContext(database, cache)
    probes = Partition.total_probes
    with tracer.span("engine"):
        if context.backend == "columnar":
            relation = plan.materialize_encoded(context)
        else:
            relation = plan.materialize(context)
    with tracer.span("decode"):
        answers = relation.answer_tuples(evaluator.query.head)
    _engine_counts(tracer, plan, probes, len(answers))
    tracer.count("decode.answers", len(answers))
    return answers


def stream(
    tracer: Tracer,
    evaluator: YannakakisEvaluator,
    database,
    cache: ColdScans,
    limit: Optional[int],
) -> List[tuple]:
    """``YannakakisEvaluator.iter_answers`` drained (up to ``limit``)."""
    with tracer.span("compile"):
        plan = evaluator.compile_stream_plan()
    context = ExecutionContext(database, cache)
    positions = tuple(plan.schema.index(v) for v in evaluator.query.head)
    answers: List[tuple] = []
    probes = Partition.total_probes
    with tracer.span("stream"):
        if context.backend == "columnar":
            terms = context.encoder.terms
            for row in plan.iter_rows_encoded(context):
                answers.append(tuple(terms[row[p]] for p in positions))
                if limit is not None and len(answers) >= limit:
                    break
        else:
            for row in plan.iter_rows(context):
                answers.append(tuple(row[p] for p in positions))
                if limit is not None and len(answers) >= limit:
                    break
    _engine_counts(tracer, plan, probes, len(answers))
    return answers


def one_shot(
    tracer: Tracer,
    query,
    database,
    *,
    tgds: Sequence = (),
    streaming: bool,
    limit: Optional[int] = None,
):
    """A fresh one-shot call: route, cold scans, compile, execute, decode."""
    kind, evaluator = route(tracer, query, tgds)
    tracer.count("route." + kind, 1)
    cache = ColdScans(tracer, database, evaluator.query.body)
    if streaming:
        answers = stream(tracer, evaluator, database, cache, limit)
    else:
        answers = materialise(tracer, evaluator, database, cache)
    tracer.count("scan.built", cache.built)
    tracer.count("scan.served", cache.served)
    return answers


def service_read(tracer: Tracer, service, query, *, limit: Optional[int] = None):
    """A ``QueryService`` read: canonicalise, sync, scans, then the request.

    The request itself (``submit``, or ``stream`` drained when ``limit`` is
    given) is one span named ``engine`` or ``stream``: from outside the
    service it also covers the plan-cache lookup, compile and decode, and
    it canonicalises the query a second time (the service memoises by
    query object, and this object is new to it).
    """
    with tracer.span("service.canonicalise"):
        canonical_form(core(query))
    with tracer.span("scan.sync"):
        service.scans.sync()
    scans(tracer, service.scans, query.body)
    probes = Partition.total_probes
    if limit is None:
        with tracer.span("engine"):
            answers = service.submit(query)
    else:
        with tracer.span("stream"):
            answers = list(service.stream(query, limit=limit))
    tracer.count("engine.probes", Partition.total_probes - probes)
    return answers
