"""``service_rw``: a standing ``QueryService`` driven by a seeded script.

About 90% of requests are reads: anchored chain lookups of length 2–4
from one of 64 hot layer-0 constants (Zipf-weighted), each with fresh
variable names so every request is canonicalised.  A fifth of the reads
are ``stream(limit=10)`` calls drained by the client (op type *limit*);
the rest are ``submit`` calls.  The other 10% are ``insert``/``delete`` of
random edges (op type *write*), so scan sync, delta merge and the plan
cache do real work.  Set-up includes a warm-up prefix of the script, so a
change that moves work into the first requests still shows in
``setup_s``.

The oracle replays the executed script on a plain adjacency map after the
measured window and answers every read by walking it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro import Atom, Constant, ConjunctiveQuery, Predicate, Variable
from repro.service import QueryService
from repro.workloads.generators import layered_chain_database

import replay
from harness import (
    Op, Tracer, Workload, is_limited_answer, ratio, row_keys, same_rows, same_set,
    set_fingerprint,
)

LAYERS = 4
FANOUT = 2
HOT = 64
ZIPF_S = 1.1
WRITE_SHARE = 0.1
STREAM_SHARE = 0.2
STREAM_LIMIT = 10
WARMUP_OPS = 100

PREDICATES = [Predicate(f"S{i}", 2) for i in range(1, LAYERS + 1)]


def _node(layer: int, index: int) -> Constant:
    return Constant(f"L{layer}_{index}")


def _edge_code(layer: int, source: int, target: int, width: int) -> int:
    return (layer * width + source) * width + target


def _edge_atom(code: int, width: int) -> Atom:
    rest, target = divmod(code, width)
    layer, source = divmod(rest, width)
    return Atom(PREDICATES[layer - 1], (_node(layer - 1, source), _node(layer, target)))


def _index(constant: Constant) -> int:
    return int(str(constant.name).split("_")[1])


class ServiceRW(Workload):
    name = "service_rw"

    def __init__(
        self, seed: int, *, traced: bool = False, facts: int = 8_000,
        warmup: int = WARMUP_OPS,
    ) -> None:
        self.seed = seed
        self.traced = traced
        self.width = max(HOT, facts // (LAYERS * FANOUT))
        self.warmup = warmup
        self.mirror: Optional[QueryService] = None

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.service = self.mirror = None  # release the previous build first
        width = self.width
        database = layered_chain_database(LAYERS, width, fanout=FANOUT, seed=self.seed)
        self.service = QueryService(database)
        if self.traced:
            # A second service in the same state, built by the same inserts
            # so its scans list rows in the same order: traced replays run
            # on it, and the untraced service never sees their requests.
            self.mirror = QueryService(
                layered_chain_database(LAYERS, width, fanout=FANOUT, seed=self.seed)
            )
        self.initial: List[int] = []
        for layer, predicate in enumerate(PREDICATES, start=1):
            for fact in database.atoms_with_predicate(predicate):
                source, target = fact.terms
                self.initial.append(_edge_code(layer, _index(source), _index(target), width))
        self.initial.sort()
        self.edges = list(self.initial)
        self.present = set(self.initial)
        self.rng = random.Random(self.seed * 7919 + 1)
        self.hot = self.rng.sample(range(width), HOT)
        self.weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT)]
        #: Executed script, in order: (operation number, "read"|"limit",
        #: anchor, length, answer fingerprint or keys) or (operation number,
        #: "write", insert?, edge code, whether the service reported a
        #: change); warm-up requests are number 0.
        self.log: List[tuple] = []
        self.requests = 0
        for _ in range(self.warmup):
            op = self.next_op()
            op.record(0, op.run())
            if self.mirror is not None and op.replay is not None:
                op.replay(Tracer())

    # ------------------------------------------------------------------
    def _query(self, anchor: int, length: int) -> ConjunctiveQuery:
        self.requests += 1
        names = [Variable(f"r{self.requests}_{i}") for i in range(1, length + 1)]
        terms = [_node(0, anchor)] + names
        body = [Atom(PREDICATES[i], (terms[i], terms[i + 1])) for i in range(length)]
        return ConjunctiveQuery((names[-1],), body, name="lookup")

    def _write(self) -> Op:
        rng, width = self.rng, self.width
        if rng.random() < 0.5:
            while True:
                layer = rng.randint(1, LAYERS)
                code = _edge_code(layer, rng.randrange(width), rng.randrange(width), width)
                if code not in self.present:
                    break
            self.edges.append(code)
            self.present.add(code)
            insert = True
        else:
            slot = rng.randrange(len(self.edges))
            code = self.edges[slot]
            self.edges[slot] = self.edges[-1]
            self.edges.pop()
            self.present.discard(code)
            insert = False
        atom = _edge_atom(code, width)
        service, mirror = self.service, self.mirror

        def run() -> bool:  # the edge script keeps every write effective
            return service.insert(atom) if insert else service.delete(atom)

        def record(number: int, changed: object) -> None:
            if mirror is not None:
                (mirror.insert if insert else mirror.delete)(atom)
            self.log.append((number, "write", insert, code, changed))

        return Op("write", run, record)

    def next_op(self) -> Op:
        rng = self.rng
        if rng.random() < WRITE_SHARE:
            return self._write()
        anchor = rng.choices(self.hot, self.weights)[0]
        length = rng.randint(2, LAYERS)
        query = self._query(anchor, length)
        service = self.service
        if rng.random() < STREAM_SHARE:
            return Op(
                "limit",
                lambda: list(service.stream(query, limit=STREAM_LIMIT)),
                lambda number, answers: self.log.append(
                    (number, "limit", anchor, length, row_keys(answers))
                ),
                lambda tracer: replay.service_read(
                    tracer, self.mirror, query, limit=STREAM_LIMIT
                ),
                same_rows,
            )
        return Op(
            "read",
            lambda: service.submit(query),
            lambda number, answers: self.log.append(
                (number, "read", anchor, length, set_fingerprint(answers))
            ),
            lambda tracer: replay.service_read(tracer, self.mirror, query),
            same_set,
        )

    # ------------------------------------------------------------------
    def adjacency(self, codes) -> Dict[Tuple[int, int], Set[int]]:
        """Edge codes as ``(layer, source) -> targets``: the oracle's own
        copy of the data."""
        out: Dict[Tuple[int, int], Set[int]] = {}
        for code in codes:
            rest, target = divmod(code, self.width)
            out.setdefault(divmod(rest, self.width), set()).add(target)
        return out

    @staticmethod
    def walk(out: Dict[Tuple[int, int], Set[int]], anchor: int, length: int) -> Set[tuple]:
        """The oracle answers of the lookup from ``anchor`` of ``length``."""
        frontier = {anchor}
        for layer in range(1, length + 1):
            frontier = {t for s in frontier for t in out.get((layer, s), ())}
        return {(_node(length, t),) for t in frontier}

    def verify(self) -> List[Tuple[int, str]]:
        out = self.adjacency(self.initial)
        errors: List[Tuple[int, str]] = []
        for step, (number, kind, first, second, got) in enumerate(self.log):
            if kind == "write":
                rest, target = divmod(second, self.width)
                targets = out.setdefault(divmod(rest, self.width), set())
                (targets.add if first else targets.discard)(target)
                if got is not True:
                    errors.append((number, f"step {step}: write reported no change"))
                continue
            oracle = self.walk(out, first, second)
            if kind == "read":
                if got != set_fingerprint(oracle):
                    errors.append((number, f"step {step}: read differs from the oracle"))
                continue
            if not is_limited_answer(got, set(row_keys(oracle)), STREAM_LIMIT):
                errors.append(
                    (number, f"step {step}: stream is not {STREAM_LIMIT} oracle answers")
                )
        return errors

    def end_trace(self) -> None:
        self.mirror = None

    def counters(self) -> Dict[str, int]:
        return self.service.counters()

    def layer_metrics(self, before: Dict[str, int]) -> Dict[str, float]:
        after = self.service.counters()
        delta = {key: after[key] - before[key] for key in after}
        return {
            "service.plan_hit_ratio": ratio(
                delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
            ),
            "service.replans": delta["replans"],
            "scan.delta_merges_per_write": ratio(delta["delta_merges"], delta["writes"]),
            "scan.build_ratio": ratio(delta["scans_built"], delta["scans_served"]),
            "scan.full_rebuilds": delta["full_rebuilds"],
        }
