"""Differential: the columnar kernels must equal the tuple backend at any P.

Serial and parallel columnar execution share one kernel set
(:mod:`repro.evaluation.parallel`; ``P = 1`` is one shard run inline), so
the independent oracle here is the tuple backend, which shares none of that
code.  Serial columnar runs (``parallel=0``) are also compared against
``P = 2/3/4``: hash shards preserve bucket order, morsels merge in probe
order, dedup reproduces global first occurrence — on the numpy path; the
pure-python kernels always run with one shard, so there ``parallel=`` must
simply change nothing.  The suite pins both with
the repo's differential-oracle pattern on every route that accepts
``parallel=``:

* the one-shot evaluator (``YannakakisEvaluator.evaluate``) and the plan
  executor (``evaluate_with_plan``) on randomized acyclic workloads — with
  :data:`~repro.evaluation.parallel.PARALLEL_MIN_ROWS` forced to 0 so the
  sharded kernels actually run on the small random inputs (constants,
  repeated head variables, labelled nulls — the historical corner-cutters);
* streaming (``iter_answers`` under ``limit=``);
* the batch face (``BatchEvaluator.evaluate`` over a shared scan cache);
* the standing service (``QueryService.submit``/``submit_batch``) under
  insert/delete interleavings, where parallel reads must still see every
  absorbed write;

each on *both* columnar storage paths (numpy and pure-python ``array('q')``).
"""

import os
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    AcyclicityRequired,
    BatchEvaluator,
    YannakakisEvaluator,
    evaluate_with_plan,
)
from repro.evaluation import parallel as parallel_module
from repro.evaluation.encoding import NUMPY_ENV
from repro.queries.cq import ConjunctiveQuery
from repro.service import QueryService
from helpers.workloads import randomized_acyclic_workload

STORAGE_PARAMS = pytest.mark.parametrize(
    "storage", ["0", "1"], ids=["python", "numpy"]
)


@contextmanager
def _forced_storage(storage):
    """One columnar storage path with the parallel kernels forced on.

    A plain context manager (not a fixture) so the hypothesis-driven tests
    can enter it per generated input — function-scoped fixtures don't reset
    between hypothesis examples.  Small differential inputs sit far below
    the production row gate; forcing ``PARALLEL_MIN_ROWS`` to 0 makes the
    shard/merge machinery the thing under test.
    """
    if storage == "1":
        pytest.importorskip("numpy")
    previous_env = os.environ.get(NUMPY_ENV)
    previous_gate = parallel_module.PARALLEL_MIN_ROWS
    os.environ[NUMPY_ENV] = storage
    parallel_module.PARALLEL_MIN_ROWS = 0
    try:
        yield
    finally:
        parallel_module.PARALLEL_MIN_ROWS = previous_gate
        if previous_env is None:
            del os.environ[NUMPY_ENV]
        else:
            os.environ[NUMPY_ENV] = previous_env


def _assert_parallel_matches_serial(query, database):
    try:
        evaluator = YannakakisEvaluator(query)
    except AcyclicityRequired:
        return  # constant injection made the hypergraph cyclic; out of domain
    oracle = evaluator.evaluate(database, backend="tuple")
    serial = evaluator.evaluate(database, backend="columnar", parallel=0)
    assert serial == oracle, "serial columnar diverged from the tuple backend"
    for workers in (2, 3, 4):
        assert (
            evaluator.evaluate(database, backend="columnar", parallel=workers)
            == serial
        ), f"evaluator diverged at workers={workers}"
    assert (
        evaluate_with_plan(query, database, backend="columnar", parallel=4)
        == oracle
    )
    # Streaming under a limit: the first k answers of the parallel route
    # must be drawn from the same answer set (order is not part of the
    # set-semantics contract, membership is).
    limit = max(1, len(serial) // 2)
    streamed = list(
        evaluator.iter_answers(database, limit=limit, backend="columnar", parallel=4)
    )
    assert len(streamed) == min(limit, len(oracle))
    assert set(streamed) <= oracle


@STORAGE_PARAMS
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parallel_agrees_on_randomized_workloads(storage, seed):
    with _forced_storage(storage):
        query, database = randomized_acyclic_workload(seed)
        _assert_parallel_matches_serial(query, database)


@STORAGE_PARAMS
@pytest.mark.parametrize("seed", range(10))
def test_parallel_agrees_on_seeded_grid(storage, seed):
    """A fixed, deterministic slice of the same space (fast CI signal)."""
    with _forced_storage(storage):
        query, database = randomized_acyclic_workload(seed * 7919)
        _assert_parallel_matches_serial(query, database)


@STORAGE_PARAMS
def test_batch_evaluator_parallel_matches_sequential(storage):
    with _forced_storage(storage):
        _check_batch_evaluator()


def _check_batch_evaluator():
    queries = []
    databases = []
    for seed in range(6):
        query, database = randomized_acyclic_workload(seed * 613)
        try:
            YannakakisEvaluator(query)
        except AcyclicityRequired:
            continue
        queries.append(query)
        databases.append(database)
    assert queries, "seed grid produced no acyclic queries"
    # One shared database: merge the per-seed instances into one.
    merged = Database()
    for database in databases:
        for atom in database.atoms():
            merged.add(atom)
    evaluator = BatchEvaluator(queries)
    oracle = evaluator.evaluate(merged, backend="tuple")
    serial = evaluator.evaluate(merged, backend="columnar", parallel=0)
    assert serial == oracle
    assert evaluator.evaluate(merged, backend="columnar", parallel=4) == serial
    assert evaluator.evaluate_sequential(merged, backend="columnar", parallel=4) == serial


E = Predicate("E", 2)
F = Predicate("F", 1)
x, y, z = Variable("x"), Variable("y"), Variable("z")

SERVICE_QUERIES = [
    ConjunctiveQuery((x, z), [Atom(E, (x, y)), Atom(E, (y, z))], name="path"),
    ConjunctiveQuery((x,), [Atom(E, (x, y)), Atom(F, (y,))], name="filtered"),
    ConjunctiveQuery((y,), [Atom(E, (Constant(0), y))], name="anchored"),
]


@STORAGE_PARAMS
def test_service_parallel_submits_survive_mutation_interleaving(storage):
    """Parallel submits against a long-lived service, interleaved with writes.

    Every read — single and batched, parallel workers on — must equal a
    fresh-cache tuple-backend oracle on the current database state; a
    divergence means a shard or packed-key cache survived a write it should
    not have.
    """
    with _forced_storage(storage):
        _check_service_interleaving()


def _check_service_interleaving():
    rng = random.Random(99)
    database = Database()
    service = QueryService(database)
    oracles = {q.name: YannakakisEvaluator(q) for q in SERVICE_QUERIES}
    evaluated = 0
    for _ in range(120):
        roll = rng.random()
        if roll < 0.25:
            query = SERVICE_QUERIES[rng.randrange(len(SERVICE_QUERIES))]
            got = service.submit(query, backend="columnar", parallel=4)
            # Fresh scans, tuple backend.
            want = oracles[query.name].evaluate(database, backend="tuple")
            assert got == want, f"{query.name} diverged after {service.writes} writes"
            evaluated += 1
        elif roll < 0.35:
            got = service.submit_batch(
                SERVICE_QUERIES, backend="columnar", parallel=4
            )
            want = [
                oracles[q.name].evaluate(database, backend="tuple")
                for q in SERVICE_QUERIES
            ]
            assert got == want, "batched submits diverged from the tuple oracle"
            evaluated += len(SERVICE_QUERIES)
        elif roll < 0.7:
            a, b = rng.randrange(5), rng.randrange(5)
            fact = (
                Atom(E, (Constant(a), Constant(b)))
                if rng.random() < 0.7
                else Atom(F, (Constant(a),))
            )
            service.insert(fact)
        else:
            a, b = rng.randrange(5), rng.randrange(5)
            fact = (
                Atom(E, (Constant(a), Constant(b)))
                if rng.random() < 0.7
                else Atom(F, (Constant(a),))
            )
            service.delete(fact)
    assert evaluated > 10
