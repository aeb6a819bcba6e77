"""``semac_route``: one-shot evaluation of cyclic queries under tgds.

Every operation is ``evaluate_iter(q, D, tgds=Σ)`` drained, over a pool of
cyclic queries with a free variable, each with its own small database
``D ⊨ Σ`` (100–400 facts).  Two thirds of the pool are cycles of length
3–6 under random guarded, non-recursive or sticky tgds: the candidate
search runs to exhaustion and the query takes the decomposition route.
The rest reformulate: the triangle-with-loop family (0, 2, 4, 6 extra
atoms), Example 1 over a music-store database, and the guarded triangle.
The route layer does almost all of the work; the engine almost none.

The (query, Σ) corpus is drawn from a fixed corpus seed: the route cost
depends only on (q, Σ) and ranges from 5 ms to 600 ms across random tgd
sets, so a pool drawn per seed would move its own p90 between seeds (IQR
18% of the median across 96-item pools, in a bootstrap).  The workload
seed draws every database and the order of the operations.  Each pass
calls every item of the pool twice, once drained in full (op type *read*)
and once with ``limit=10`` (op type *limit*), in a seeded order: the
tail of both op types sits among the handful of 250-500 ms items, so
every item appears in each op type equally often, and a run's p90 does
not hang on how many times the slowest items happened to be drawn.

The oracle is ``evaluate_generic`` on the core of the original query
(equivalent to it on every database, without constraints), run after the
measured window: on the triangle with six extra atoms the homomorphism
search alone takes seconds.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, List, Sequence, Tuple

from repro import (
    Atom,
    ConjunctiveQuery,
    Predicate,
    Schema,
    Variable,
    evaluate_generic,
    evaluate_iter,
    parse_tgd,
)
from repro.queries import core
from repro.workloads.generators import (
    database_satisfying,
    music_store_database,
    random_guarded_tgds,
    random_non_recursive_tgds,
    random_sticky_tgds,
)
from repro.workloads.paper_examples import (
    example1_query,
    example1_tgd,
    guarded_triangle_example,
)

import replay
from harness import (
    Op, Workload, is_limited_answer, row_keys, same_rows, same_set, set_fingerprint,
)

CORPUS_SEED = 2016
#: Chase budget for building ``D ⊨ Σ``: the terminating corpus chases
#: need a few hundred steps, a non-terminating one is cut here.
CHASE_STEPS = 2_000
FACTS = dict(facts_per_predicate=40, domain_size=20, max_steps=CHASE_STEPS)
LOOP_FACTS = dict(facts_per_predicate=60, domain_size=30, max_steps=CHASE_STEPS)
LIMIT = 10
E = Predicate("E", 2)
A = Predicate("A", 1)
TGD_CLASSES: Sequence[Callable] = (
    random_guarded_tgds,
    random_non_recursive_tgds,
    random_sticky_tgds,
)


def _cycle(length: int) -> ConjunctiveQuery:
    v = [Variable(f"c{i}") for i in range(length)]
    body = [Atom(E, (v[i], v[(i + 1) % length])) for i in range(length)]
    return ConjunctiveQuery((v[0],), body, name=f"cycle_{length}")


def _triangle_with_loop(extra: int) -> Tuple[ConjunctiveQuery, list]:
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    body = [Atom(E, (x, y)), Atom(E, (y, z)), Atom(E, (z, x))]
    body += [Atom(E, (x, Variable(f"w{i}"))) for i in range(extra)]
    tgds = [parse_tgd("E(x, y) -> A(x)"), parse_tgd("A(x) -> E(x, x)")]
    return ConjunctiveQuery((x,), body, name=f"triangle_loop_{extra}"), tgds


def _satisfying(tgds, schema: Schema, rng: random.Random, fallback_seed: int, facts=FACTS):
    """A database closed under ``tgds``; the chase may not terminate on
    every random start, so a few seeded starts are tried before the corpus
    database (known to terminate) is used."""
    for _ in range(8):
        try:
            return database_satisfying(
                tgds, seed=rng.randrange(1 << 30), schema=schema, **facts
            )
        except ValueError:
            continue
    return database_satisfying(tgds, seed=fallback_seed, schema=schema, **facts)


@functools.lru_cache(maxsize=None)
def negative_corpus() -> Tuple[Tuple[ConjunctiveQuery, list, Schema, int], ...]:
    """Cycles of length 3–6 under random tgds, two per (class, length).

    A tgd set enters the corpus only when the chase of its corpus database
    terminates, so every workload seed can build a database satisfying it.
    The corpus depends on nothing but ``CORPUS_SEED``: it is drawn once per
    process, before the first timed set-up.
    """
    corpus = []
    rng = random.Random(CORPUS_SEED)
    for generate in TGD_CLASSES:
        for length in range(3, 7):
            for _ in range(2):
                while True:
                    draw = random.Random(rng.randrange(1 << 30))
                    schema = Schema([
                        E, Predicate("R1", draw.randint(1, 2)),
                        Predicate("R2", draw.randint(1, 3)),
                    ])
                    tgds = generate(seed=draw, schema=schema, count=2)
                    fallback = draw.randrange(1 << 30)
                    try:
                        database_satisfying(tgds, seed=fallback, schema=schema, **FACTS)
                    except ValueError:
                        continue
                    corpus.append((_cycle(length), tgds, schema, fallback))
                    break
    return tuple(corpus)


class SemAcRoute(Workload):
    name = "semac_route"

    def __init__(self, seed: int, *, copies: int = 2) -> None:
        self.seed = seed
        self.copies = copies
        self.pool: List[Tuple[ConjunctiveQuery, list, object]] = []
        negative_corpus()

    def setup(self) -> None:
        self.pool = []
        rng = random.Random(self.seed)
        pool = []
        for query, tgds, schema, fallback in negative_corpus():
            pool.append((query, tgds, _satisfying(tgds, schema, rng, fallback)))
        positives = [_triangle_with_loop(extra) for extra in (0, 2, 4, 6)]
        triangle, triangle_tgds = guarded_triangle_example()
        x = triangle.body[0].terms[0]
        positives.append(
            (ConjunctiveQuery((x,), triangle.body, name=triangle.name), triangle_tgds)
        )
        for _ in range(self.copies):
            for query, tgds in positives:
                schema = Schema([E, A])
                pool.append((query, tgds, _satisfying(tgds, schema, rng, 0, LOOP_FACTS)))
            pool.append((
                example1_query(), [example1_tgd()],
                music_store_database(rng.randrange(1 << 30), customers=20, records=20, styles=6),
            ))
        self.pool = pool
        self.order = random.Random(self.seed * 31 + 7)
        self.queue: List[Tuple[int, str]] = []
        #: ``(operation number, pool item, op type, answer fingerprint or keys)``.
        self.records: List[Tuple[int, int, str, object]] = []

    def next_op(self) -> Op:
        if not self.queue:
            self.queue = [(item, kind) for item in range(len(self.pool))
                          for kind in ("read", "limit")]
            self.order.shuffle(self.queue)
        item, kind = self.queue.pop()
        query, tgds, database = self.pool[item]
        if kind == "limit":
            return Op(
                "limit",
                lambda: list(evaluate_iter(query, database, tgds=tgds, limit=LIMIT)),
                lambda number, answers: self.records.append(
                    (number, item, "limit", row_keys(answers))
                ),
                lambda tracer: replay.one_shot(
                    tracer, query, database, tgds=tgds, streaming=True, limit=LIMIT
                ),
                same_rows,
            )
        return Op(
            "read",
            lambda: set(evaluate_iter(query, database, tgds=tgds)),
            lambda number, answers: self.records.append(
                (number, item, "read", set_fingerprint(answers))
            ),
            lambda tracer: set(
                replay.one_shot(tracer, query, database, tgds=tgds, streaming=True)
            ),
            same_set,
        )

    def verify(self) -> List[Tuple[int, str]]:
        oracles = {}
        errors = []
        for number, item, kind, got in self.records:
            if item not in oracles:
                query, _, database = self.pool[item]
                oracles[item] = evaluate_generic(core(query), database)
            oracle = oracles[item]
            if kind == "read":
                right = got == set_fingerprint(oracle)
            else:
                right = is_limited_answer(got, set(row_keys(oracle)), LIMIT)
            if not right:
                errors.append(
                    (number, f"op {number} ({self.pool[item][0].name}): wrong {kind} answers")
                )
        return errors
