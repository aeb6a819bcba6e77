"""``chain_oneshot``: fresh one-shot calls over the layered chain.

Operations alternate between a full ``evaluate_acyclic(q, D)`` (a *read*)
and ``evaluate_iter(q, D, limit=100)`` drained (a *limit*).  Every call is
fresh, so scans are cold and the route is rebuilt each time; the engine
and the answer decode do almost all of the work.  The oracle is the flat
join-plan route (``engine="plan"``), run once after the measured window.
"""

from __future__ import annotations

from typing import List, Tuple

from repro import evaluate_acyclic, evaluate_iter
from repro.workloads.generators import yannakakis_scaling_workload

import replay
from harness import (
    Op, Workload, is_limited_answer, row_keys, same_rows, same_set, set_fingerprint,
)

LIMIT = 100


class ChainOneShot(Workload):
    name = "chain_oneshot"

    def __init__(self, seed: int, *, size: int = 10_000) -> None:
        self.seed = seed
        self.size = size
        #: ``(operation number, answer fingerprint or row keys)``.
        self.reads: List[Tuple[int, Tuple[int, int]]] = []
        self.limits: List[Tuple[int, List[int]]] = []
        self._count = 0

    def setup(self) -> None:
        self.query = self.database = None  # release the previous build first
        self.query, self.database = yannakakis_scaling_workload(self.size, seed=self.seed)

    def next_op(self) -> Op:
        query, database = self.query, self.database
        self._count += 1
        if self._count % 2:
            return Op(
                "read",
                lambda: evaluate_acyclic(query, database),
                lambda number, answers: self.reads.append((number, set_fingerprint(answers))),
                lambda tracer: replay.one_shot(tracer, query, database, streaming=False),
                same_set,
            )
        return Op(
            "limit",
            lambda: list(evaluate_iter(query, database, limit=LIMIT)),
            lambda number, answers: self.limits.append((number, row_keys(answers))),
            lambda tracer: replay.one_shot(
                tracer, query, database, streaming=True, limit=LIMIT
            ),
            same_rows,
        )

    def verify(self) -> List[Tuple[int, str]]:
        oracle = set(evaluate_iter(self.query, self.database, engine="plan"))
        expected = set_fingerprint(oracle)
        keys = set(row_keys(oracle))
        errors = [(number, f"read {number}: answers differ from the oracle")
                  for number, got in self.reads if got != expected]
        errors += [(number, f"limit {number}: not {LIMIT} distinct oracle answers")
                   for number, got in self.limits
                   if not is_limited_answer(got, keys, LIMIT)]
        return errors
