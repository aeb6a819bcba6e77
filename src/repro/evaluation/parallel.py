"""The columnar kernels: hash-sharded, morsel-driven, at any worker count.

The operator IR's batch face (:meth:`Operator.materialize_encoded`) moves
dictionary-encoded column stores through ``Select``/``Project``/``Distinct``/
``SemiJoin``/``HashJoin`` kernels.  This module holds the only
implementation of those kernels, written in the style of morsel-driven
execution (Leis et al., SIGMOD'14, the HyPer architecture): the *build*
side of a join is hash-sharded by join key into ``P`` shards, the *probe*
side is split into ``P`` contiguous morsels, and each (morsel × shard) unit
of work is independent.  ``P = 1`` is the common case — one shard, one
morsel, run inline — and is what every serial columnar evaluation and every
streaming batch executes.

* :func:`resolve_parallel` resolves the ``parallel=`` keyword accepted by
  every evaluation entry point, mirroring
  :func:`repro.evaluation.encoding.resolve_backend`: an explicit argument
  wins, then the ``REPRO_PARALLEL`` environment variable (``auto`` → CPU
  count), then serial.

* :func:`sharded_join` / :func:`sharded_semijoin` /
  :func:`sharded_project` / :func:`sharded_select` are the kernels.  On the
  numpy storage path each runs with ``P ≥ 2`` only when asked for two or
  more workers *and* its input reaches :data:`PARALLEL_MIN_ROWS`;
  otherwise, and always on the pure-python path, ``P = 1``.  Each returns
  the result plus, for ``P ≥ 2``, a :class:`ParallelMeta` describing the
  shard/morsel layout (rendered by ``EXPLAIN`` as
  ``workers=P shards=S morsels=M`` and audited by the static verifier's
  PLAN017 check).  ``P = 1`` attaches no layout, so serial plans explain
  exactly as before.

**Determinism.**  Answers are bit-identical at every ``P``:

* the build side is sharded by ``key % P`` on packed int keys, and within
  a shard the original build row order is preserved (a stable sort), so
  each key's matches appear in build row order whatever the shard count;
* probe morsels are contiguous row ranges merged in morsel order, and
  join results are ordered by probe row within each morsel — so the
  concatenated output is "for each probe row, its matches in build order";
* dedup kernels (``Project``/``Distinct``) find per-morsel first
  occurrences and the coordinator merges them in morsel order, reproducing
  global first-occurrence order.  A streaming batch is one morsel whose
  "seen so far" key set is carried across the batches of one projection.

**Storage paths and dispatch.**  On the numpy storage path
(``REPRO_NUMPY=1``) the kernels are vectorised (sorted shards probed with
``searchsorted``, sort-based dedup).  numpy releases the GIL inside those
calls, so at ``P ≥ 2`` the morsels run on a shared
:class:`~concurrent.futures.ThreadPoolExecutor`.  On the pure-python
``array('q')`` path (the only path on hosts without numpy) threads cannot
overlap, so its kernels — a bucket dict, a key set, a first-occurrence
dict — always run with one shard on the calling thread.  A multi-column
key whose packed form would overflow ``int64`` runs the pure-python kernel
on a numpy store.

**Accounting.**  Kernels never touch the process-wide probe counter per
row.  The join kernel adds ``len(probe side)`` once through
:meth:`Partition.add_probes` — one probe per probe row, the same count the
tuple engine's per-row ``Partition.get`` produces — and the semi-join adds
nothing (membership is deliberately uncounted on every path), so the
bounded-work assertions hold identically under either backend and any
``P``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datamodel import Variable
from .encoding import (
    EncodedRelation,
    EncodedStore,
    _numpy_module,
    _take_column,
)
from .relation import Partition

#: Environment variable naming the default worker count (``auto``/``0``/N).
PARALLEL_ENV = "REPRO_PARALLEL"

#: Input rows below which a kernel runs with one shard even when more
#: workers were asked for (dispatch overhead wins below this).  Tests
#: monkeypatch this to force ``P ≥ 2`` on small inputs.
PARALLEL_MIN_ROWS = 2048

#: What a kernel returns: the result, plus its layout when ``P ≥ 2``.
KernelResult = Tuple[EncodedRelation, Optional["ParallelMeta"]]


def resolve_parallel(parallel: Optional[object] = None) -> int:
    """Resolve the worker count with explicit-over-environment precedence.

    Accepts an int or a string (``"auto"`` → ``os.cpu_count()``); ``0`` and
    ``1`` mean serial execution.  Raises ``ValueError`` on junk so a typo in
    ``--parallel``/``REPRO_PARALLEL`` fails loudly rather than silently
    running serial.
    """
    value: object = (
        parallel if parallel is not None else os.environ.get(PARALLEL_ENV, "")
    )
    if isinstance(value, bool):
        raise ValueError(f"parallel must be an int or 'auto', not {value!r}")
    if isinstance(value, int):
        workers = value
    else:
        text = str(value).strip().lower()
        if not text:
            return 0
        if text == "auto":
            workers = os.cpu_count() or 1
        else:
            try:
                workers = int(text)
            except ValueError:
                raise ValueError(
                    f"unknown parallel setting {value!r}; "
                    "expected 'auto', 0, or a worker count"
                ) from None
    if workers < 0:
        raise ValueError(f"parallel worker count must be >= 0, got {workers}")
    return workers


class ParallelMeta:
    """The shard/morsel layout one parallel kernel executed with.

    Attached to the operator node that ran the kernel (``_parallel_meta``):
    ``EXPLAIN`` renders it as ``workers=P shards=S morsels=M`` (the shard
    part only for the binary kernels, which hash-shard a build side) and
    the static verifier's PLAN017 check audits that the recorded layout
    tiles the operand relations exactly (no row lost or duplicated by the
    merge).  ``shard_sizes`` describes the hash shards of the build side
    (empty for the unary kernels); ``morsel_sizes`` the contiguous probe
    morsels.
    """

    __slots__ = (
        "kernel",
        "workers",
        "shard_sizes",
        "morsel_sizes",
        "probe_rows",
        "build_rows",
    )

    def __init__(
        self,
        kernel: str,
        workers: int,
        shard_sizes: Tuple[int, ...],
        morsel_sizes: Tuple[int, ...],
        probe_rows: int,
        build_rows: int,
    ) -> None:
        self.kernel = kernel
        self.workers = workers
        self.shard_sizes = shard_sizes
        self.morsel_sizes = morsel_sizes
        self.probe_rows = probe_rows
        self.build_rows = build_rows

    @property
    def shards(self) -> int:
        """The build-side hash shard count (0 for the unary kernels)."""
        return len(self.shard_sizes)

    @property
    def morsels(self) -> int:
        """The contiguous probe-morsel count."""
        return len(self.morsel_sizes)

    def describe(self) -> str:
        if self.shard_sizes:
            return (
                f"workers={self.workers} shards={self.shards} "
                f"morsels={self.morsels}"
            )
        return f"workers={self.workers} morsels={self.morsels}"


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
_POOL_LOCK = threading.Lock()
_THREAD_POOLS: Dict[int, ThreadPoolExecutor] = {}


def _thread_pool(workers: int) -> Optional[ThreadPoolExecutor]:
    """The shared thread pool for ``workers`` (created once, reused).

    Single-core hosts get ``None`` — threads cannot overlap numpy kernels
    there, so the same sharded kernels run inline on the coordinator and
    the futures hand-off cost disappears (the pool is a dispatch detail,
    never a semantic one).
    """
    if (os.cpu_count() or 1) < 2:
        return None
    with _POOL_LOCK:
        pool = _THREAD_POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-morsel"
            )
            _THREAD_POOLS[workers] = pool
        return pool


def _run_tasks(
    tasks: Sequence[Tuple[object, Tuple[object, ...]]], workers: int
) -> List[object]:
    """Run numpy ``(function, args)`` tasks, preserving submission order.

    One task (``P = 1``) runs inline; more go to the thread pool — same
    results, same merge order.
    """
    pool = _thread_pool(workers) if len(tasks) > 1 else None
    if pool is None:
        return [function(*args) for function, args in tasks]  # type: ignore[operator]
    futures = [pool.submit(function, *args) for function, args in tasks]  # type: ignore[arg-type]
    return [future.result() for future in futures]


# ----------------------------------------------------------------------
# Shard/morsel layout helpers
# ----------------------------------------------------------------------
def _shard_count(rows: int, workers: int) -> int:
    """``P`` for one numpy kernel call: ``workers`` above the row gate,
    else 1.  (The pure-python kernels always run with ``P = 1``.)"""
    return workers if workers >= 2 and rows >= PARALLEL_MIN_ROWS else 1


def _morsel_bounds(length: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``length`` rows into at most ``workers`` contiguous morsels.

    An empty probe side still yields one (empty) morsel so every kernel's
    merge runs over at least one morsel result — the layout then records
    ``morsel_sizes == (0,)``, which tiles the empty operand exactly.
    """
    if length == 0:
        return [(0, 0)]
    step = max(1, -(-length // workers))
    return [(start, min(start + step, length)) for start in range(0, length, step)]


def _pack_base(relation: EncodedRelation) -> int:
    """The mixed-radix base multi-column keys pack under *right now*.

    The shared :class:`~repro.evaluation.encoding.TermEncoder` is append-only
    and grows across queries (new query constants, absorbed inserts), so the
    base must be sampled **once per kernel call** and used for every operand
    of that call — two operands packed at different bases compare
    incompatible encodings.  Any base bounding every code is a bijection, so
    the encoder size is rounded up to a power of two: the base, and with it
    every cache entry keyed on it, then changes only ``O(log |encoder|)``
    times as the encoder grows.
    """
    return 1 << max(1, (len(relation.encoder) - 1).bit_length())


def _pack_token(positions: Tuple[int, ...], base: int) -> int:
    """The cache token tying packed keys (and derived shards) to their
    packing base.

    Multi-column packings are only comparable when produced at the same
    base, so their cache entries carry it: when the base has grown since a
    store's keys were cached, the stale entry is replaced by keys repacked
    at the current base.  Single-column keys are the raw column —
    base-independent — so they keep one entry (token ``0``) for good.
    """
    return base if len(positions) > 1 else 0


def _cached(relation: EncodedRelation, cache_key, token, build):
    """``build()``, cached on ``relation``'s store under ``cache_key`` and
    valid for ``token`` only.

    Cached scans are re-probed on every query of a warm serving path, so
    packed keys and build-side shards are built once per store.  Each
    ``cache_key`` holds one entry: a value built under another token is
    replaced, not kept beside the new one, so a long-lived store holds one
    packing per key positions however often the encoder grows.  The entry
    is one ``(token, value)`` tuple, so a concurrent reader never pairs a
    token with another token's value.
    """
    caches = relation.store.caches
    entry = caches.get(cache_key)
    if entry is not None and entry[0] == token:  # type: ignore[index]
        return entry[1]  # type: ignore[index]
    value = build()
    caches[cache_key] = (token, value)
    return value


def _packed_keys(relation: EncodedRelation, positions: Tuple[int, ...], base: int):
    """The per-row join keys as one numpy ``int64`` array, or ``None``.

    Single-column keys are the column itself.  Multi-column keys are packed
    into one integer per row under the caller-supplied mixed-radix ``base``
    (codes are dense, so any base bounding every code makes the packing a
    bijection); when the packed key space would overflow ``int64`` the
    kernel runs its pure-python variant instead (``None``, cached like any
    other packing).  The caller samples the base **once** per kernel call
    (:func:`_pack_base`) and passes the same value for every operand, so
    concurrent encoder growth between two ``_packed_keys`` calls cannot
    desynchronize the operands.
    """
    return _cached(
        relation,
        ("packed", positions),
        _pack_token(positions, base),
        lambda: _compute_packed_keys(relation, positions, base),
    )


def _compute_packed_keys(
    relation: EncodedRelation, positions: Tuple[int, ...], base: int
):
    numpy = _numpy_module()
    columns = [
        numpy.asarray(relation.store.columns[p], dtype=numpy.int64)  # type: ignore[union-attr]
        for p in positions
    ]
    if len(columns) == 1:
        return columns[0]
    if base ** len(columns) >= 2 ** 62:
        return None
    packed = columns[0]
    for column in columns[1:]:
        packed = packed * base + column
    return packed


def shard_counts(
    relation: EncodedRelation, variables: Sequence[Variable], workers: int
) -> List[int]:
    """Per-shard row counts of hash-sharding ``relation`` on ``variables``.

    The observability hook behind the skew panel in
    ``benchmarks/bench_yannakakis_scaling.py``: static ``key % P`` sharding
    balances uniform keys but a Zipfian hot key drags its whole shard along,
    and this makes that imbalance measurable without running a join.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    positions = tuple(relation.position(v) for v in variables)
    counts = [0] * workers
    if relation.store.use_numpy:
        packed = _packed_keys(relation, positions, _pack_base(relation))
        if packed is not None:
            numpy = _numpy_module()
            histogram = numpy.bincount(packed % workers, minlength=workers)  # type: ignore[union-attr]
            return [int(c) for c in histogram]
    for key in relation._key_column(positions):
        counts[hash(key) % workers] += 1
    return counts


# ----------------------------------------------------------------------
# numpy kernels (vectorised; threads overlap because numpy drops the GIL)
# ----------------------------------------------------------------------
def _sort_with_rows(keys, span: int):
    """``(sorted keys, row order)`` of an ``int64`` key array, equal keys
    in row order.

    Keys lie in ``[0, span)``.  When ``span * len(keys)`` fits ``int64`` the
    composite values ``key * len + row`` are distinct, so a plain value sort
    of them is a stable key sort — several times faster than numpy's stable
    ``argsort``, which was the largest single cost of the columnar engine.
    Wider key spaces fall back to the stable ``argsort``.
    """
    numpy = _numpy_module()
    length = len(keys)
    if length and span * length < 2 ** 62:
        composite = numpy.sort(  # type: ignore[union-attr]
            keys * length + numpy.arange(length, dtype=numpy.int64)  # type: ignore[union-attr]
        )
        return composite // length, composite % length
    order = numpy.argsort(keys, kind="stable")  # type: ignore[union-attr]
    return keys[order], order


def _np_locate(sorted_keys, keys, span: int):
    """Left and right insertion points of ``keys`` in ``sorted_keys``.

    The needles are searched in ascending order and scattered back:
    ``searchsorted`` starts each search from the previous needle's result,
    so ascending needles avoid a cache-missing binary search per row.
    """
    numpy = _numpy_module()
    needles, order = _sort_with_rows(keys, span)
    lo = numpy.empty(len(keys), dtype=numpy.int64)  # type: ignore[union-attr]
    hi = numpy.empty(len(keys), dtype=numpy.int64)  # type: ignore[union-attr]
    lo[order] = numpy.searchsorted(sorted_keys, needles, side="left")  # type: ignore[union-attr]
    hi[order] = numpy.searchsorted(sorted_keys, needles, side="right")  # type: ignore[union-attr]
    return lo, hi


def _np_build_shards(build_keys, workers: int, span: int):
    """Hash-shard the build side: per shard, (sorted keys, build rows),
    equal keys in build row order."""
    numpy = _numpy_module()
    shard_of_row = build_keys % workers
    shards = []
    for shard in range(workers):
        rows = numpy.nonzero(shard_of_row == shard)[0]  # type: ignore[union-attr]
        keys, order = _sort_with_rows(build_keys[rows], span)
        shards.append((keys, rows[order]))
    return shards


def _np_join_morsel(probe_keys, start: int, shards, workers: int, span: int):
    """Match one probe morsel against every shard; deterministic order.

    Returns global (probe row, build row) index arrays sorted by probe row,
    each probe row's matches in build row order.
    """
    numpy = _numpy_module()
    length = len(probe_keys)
    shard_of_row = probe_keys % workers
    counts_full = numpy.zeros(length, dtype=numpy.int64)  # type: ignore[union-attr]
    matches = []
    for shard in range(workers):
        local = numpy.nonzero(shard_of_row == shard)[0]  # type: ignore[union-attr]
        if not local.size:
            continue
        sorted_keys, permutation = shards[shard]
        lo, hi = _np_locate(sorted_keys, probe_keys[local], span)
        counts = hi - lo
        matched = numpy.nonzero(counts)[0]  # type: ignore[union-attr]
        if not matched.size:
            continue
        matched_counts = counts[matched]
        counts_full[local[matched]] = matched_counts
        matches.append((permutation, local[matched], lo[matched], matched_counts))
    total = int(counts_full.sum())
    if not total:
        empty = numpy.empty(0, dtype=numpy.int64)  # type: ignore[union-attr]
        return empty, empty
    # Output slots laid out in probe-row order up front, so per-shard match
    # chunks scatter straight into place — O(output) instead of the
    # O(output log output) stable sort of the concatenated chunks.
    block_starts = numpy.concatenate(([0], numpy.cumsum(counts_full)[:-1]))  # type: ignore[union-attr]
    probe_out = numpy.repeat(  # type: ignore[union-attr]
        numpy.arange(length, dtype=numpy.int64) + start, counts_full  # type: ignore[union-attr]
    )
    build_out = numpy.empty(total, dtype=numpy.int64)  # type: ignore[union-attr]
    for permutation, rows, lo, counts in matches:
        chunk_total = int(counts.sum())
        # Concatenated ranges lo[i]..lo[i]+counts[i]: position-within-group
        # plus the group's left edge, all vectorised.  ``within`` is both
        # the offset inside the build bucket and inside the output block.
        offsets = numpy.concatenate(([0], numpy.cumsum(counts)[:-1]))  # type: ignore[union-attr]
        within = numpy.arange(chunk_total) - numpy.repeat(offsets, counts)  # type: ignore[union-attr]
        targets = numpy.repeat(block_starts[rows], counts) + within  # type: ignore[union-attr]
        build_out[targets] = permutation[within + numpy.repeat(lo, counts)]  # type: ignore[union-attr]
    return probe_out, build_out


def _np_semijoin_morsel(probe_keys, start: int, shards, workers: int, span: int):
    """The probe rows of one morsel with a partner, ascending."""
    numpy = _numpy_module()
    shard_of_row = probe_keys % workers
    keep = numpy.zeros(len(probe_keys), dtype=bool)  # type: ignore[union-attr]
    for shard in range(workers):
        local = numpy.nonzero(shard_of_row == shard)[0]  # type: ignore[union-attr]
        sorted_keys, _ = shards[shard]
        if not local.size or not len(sorted_keys):
            continue
        lo, hi = _np_locate(sorted_keys, probe_keys[local], span)
        keep[local[hi > lo]] = True
    return numpy.nonzero(keep)[0] + start  # type: ignore[union-attr]


def _np_first_occurrences(keys, span: int):
    """(distinct keys ascending, the index of each one's first occurrence)."""
    numpy = _numpy_module()
    if not len(keys):
        return keys, numpy.empty(0, dtype=numpy.int64)  # type: ignore[union-attr]
    sorted_keys, order = _sort_with_rows(keys, span)
    starts = numpy.empty(len(keys), dtype=bool)  # type: ignore[union-attr]
    starts[0] = True
    numpy.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])  # type: ignore[union-attr]
    return sorted_keys[starts], order[starts]


def _np_dedup_morsel(keys, start: int, span: int):
    """Per-morsel first occurrences: (distinct keys, their global rows)."""
    unique, first = _np_first_occurrences(keys, span)
    return unique, first + start


def _np_select_morsel(columns, checks: Tuple[Tuple[int, int], ...], start: int):
    """The morsel rows passing every equality check, ascending."""
    numpy = _numpy_module()
    mask = None
    for position, code in checks:
        this = columns[position] == code
        mask = this if mask is None else (mask & this)
    return numpy.nonzero(mask)[0] + start  # type: ignore[union-attr]


# ----------------------------------------------------------------------
# pure-python kernels (P = 1: threads cannot overlap them)
# ----------------------------------------------------------------------
def _py_buckets(keys: Sequence[object]) -> Dict[object, List[int]]:
    """``key -> [row, ...]``, each bucket in row order."""
    buckets: Dict[object, List[int]] = {}
    for row, key in enumerate(keys):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets


def _py_join(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
) -> Tuple[List[int], List[int]]:
    """(probe row, build row) index lists, each probe row's matches in
    build row order.  The build buckets are cached per store, so a warm
    scan — or the build side of a streamed join, probed once per batch —
    computes its key column once."""
    lookup = _cached(
        right,
        ("buckets", right_key),
        None,
        lambda: _py_buckets(right._key_column(right_key)),
    ).get
    probe_indices: List[int] = []
    build_indices: List[int] = []
    for row, key in enumerate(left._key_column(left_key)):
        bucket = lookup(key)
        if bucket:
            probe_indices.extend([row] * len(bucket))
            build_indices.extend(bucket)
    return probe_indices, build_indices


def _py_semijoin(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
) -> List[int]:
    """The left rows with a partner; the build key set is cached like the
    join's buckets (membership is all a semi-join needs)."""
    members = _cached(
        right, ("members", right_key), None, lambda: set(right._key_column(right_key))
    )
    return [
        row for row, key in enumerate(left._key_column(left_key)) if key in members
    ]


def _py_dedup(keys: Sequence[object], seen: Optional[Set[object]]) -> List[int]:
    """The rows of first occurrences, ascending, skipping keys in ``seen``
    (which then gains the kept keys).

    First occurrences come from the reversed keys at C speed: each key's
    last write is its earliest row.
    """
    firsts = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    if seen is not None:
        firsts = {key: row for key, row in firsts.items() if key not in seen}
        seen.update(firsts)
    return sorted(firsts.values())


def _py_select(
    columns: Sequence[Sequence[int]], checks: Tuple[Tuple[int, int], ...]
) -> List[int]:
    if len(checks) == 1:
        position, code = checks[0]
        return [row for row, value in enumerate(columns[position]) if value == code]
    length = len(columns[0])
    return [
        row
        for row in range(length)
        if all(columns[position][row] == code for position, code in checks)
    ]


# ----------------------------------------------------------------------
# Kernel entry points (coordinator side)
# ----------------------------------------------------------------------
def _numpy_keys(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
):
    """Packed numpy keys of both operands, the build token and the key
    span, or ``None`` when the python kernels must run (python storage, or
    a packing that would overflow ``int64``)."""
    if not left.store.use_numpy or not right.store.use_numpy:
        return None
    base = _pack_base(left)
    left_keys = _packed_keys(left, left_key, base)
    right_keys = _packed_keys(right, right_key, base)
    if left_keys is None or right_keys is None:
        return None
    return left_keys, right_keys, _pack_token(right_key, base), base ** len(right_key)


def _np_shards(
    right: EncodedRelation,
    right_keys,
    right_key: Tuple[int, ...],
    workers: int,
    token: int,
    span: int,
):
    """The build side's hash shards at ``workers``, cached per store."""
    return _cached(
        right,
        ("shards", right_key, workers),
        token,
        lambda: _np_build_shards(right_keys, workers, span),
    )


def _gather(
    relation: EncodedRelation,
    positions: Sequence[int],
    indices,
    schema: Sequence[Variable],
) -> EncodedRelation:
    """Build a fresh relation by gathering ``positions`` at ``indices``."""
    use_numpy = relation.store.use_numpy
    columns = [
        _take_column(relation.store.columns[p], indices, use_numpy)
        for p in positions
    ]
    store = EncodedStore(columns, len(indices), use_numpy)
    return EncodedRelation(schema, store, relation.encoder)


def _meta(
    kernel: str,
    workers: int,
    shards: Sequence[Tuple[object, object]],
    bounds: Sequence[Tuple[int, int]],
    probe_rows: int,
    build_rows: int,
) -> Optional[ParallelMeta]:
    """The layout record of a ``P ≥ 2`` run; ``None`` at ``P = 1``."""
    if workers < 2:
        return None
    return ParallelMeta(
        kernel,
        workers,
        tuple(len(keys) for keys, _ in shards),  # type: ignore[arg-type]
        tuple(stop - start for start, stop in bounds),
        probe_rows,
        build_rows,
    )


def sharded_join(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
    residual_positions: Tuple[int, ...],
    schema: Sequence[Variable],
    workers: int,
) -> KernelResult:
    """The hash join on a non-empty shared key.

    ``left`` is the probe side (morsels), ``right`` the build side
    (shards); the output carries ``left``'s columns plus ``right``'s
    residual columns under ``schema``, each probe row followed by its
    matches in build row order.  Counts ``len(left)`` probes.
    """
    keys = _numpy_keys(left, right, left_key, right_key)
    meta = None
    if keys is None:
        probe_indices, build_indices = _py_join(left, right, left_key, right_key)
    else:
        left_keys, right_keys, token, span = keys
        workers = _shard_count(len(left), workers)
        bounds = _morsel_bounds(len(left), workers)
        shards = _np_shards(right, right_keys, right_key, workers, token, span)
        results = _run_tasks(
            [
                (
                    _np_join_morsel,
                    (left_keys[start:stop], start, shards, workers, span),
                )
                for start, stop in bounds
            ],
            workers,
        )
        numpy = _numpy_module()
        probe_indices = numpy.concatenate([r[0] for r in results])  # type: ignore[union-attr]
        build_indices = numpy.concatenate([r[1] for r in results])  # type: ignore[union-attr]
        meta = _meta("join", workers, shards, bounds, len(left), len(right))
    use_numpy = left.store.use_numpy
    columns = [
        _take_column(column, probe_indices, use_numpy)
        for column in left.store.columns
    ]
    columns.extend(
        _take_column(right.store.columns[p], build_indices, use_numpy)
        for p in residual_positions
    )
    store = EncodedStore(columns, len(probe_indices), use_numpy)
    result = EncodedRelation(schema, store, left.encoder)
    Partition.add_probes(len(left))
    return result, meta


def sharded_semijoin(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
    workers: int,
) -> KernelResult:
    """The semi-join ``left ⋉ right`` on a non-empty shared key
    (membership uncounted)."""
    keys = _numpy_keys(left, right, left_key, right_key)
    meta = None
    if keys is None:
        indices = _py_semijoin(left, right, left_key, right_key)
    else:
        left_keys, right_keys, token, span = keys
        workers = _shard_count(len(left), workers)
        bounds = _morsel_bounds(len(left), workers)
        shards = _np_shards(right, right_keys, right_key, workers, token, span)
        results = _run_tasks(
            [
                (
                    _np_semijoin_morsel,
                    (left_keys[start:stop], start, shards, workers, span),
                )
                for start, stop in bounds
            ],
            workers,
        )
        indices = _numpy_module().concatenate(results)  # type: ignore[union-attr]
        meta = _meta("semijoin", workers, shards, bounds, len(left), len(right))
    result = _gather(left, range(len(left.schema)), indices, left.schema)
    return result, meta


def sharded_project(
    relation: EncodedRelation,
    schema: Sequence[Variable],
    positions: Tuple[int, ...],
    workers: int,
    seen: Optional[Set[object]] = None,
) -> KernelResult:
    """The dedup projection (``Project`` and ``Distinct``).

    Morsels find their first occurrences; the coordinator merges them in
    morsel order against the keys seen in earlier morsels, so the kept row
    indices are exactly the global first occurrences, in row order.

    ``seen`` is the key set a streaming projection carries across its
    batches (each batch one morsel): keys in it are dropped, and the kept
    keys are added to it.  It holds python keys (an int per row for one
    column, an int tuple otherwise) — unlike packed numpy keys they do not
    depend on the encoder size, which may grow between two batches.
    """
    packed = None
    if relation.store.use_numpy and positions and seen is None:
        base = _pack_base(relation)
        packed = _packed_keys(relation, positions, base)
    meta = None
    if packed is None:
        indices = _py_dedup(relation._key_column(positions), seen)
    else:
        span = base ** len(positions)
        workers = _shard_count(len(relation), workers)
        bounds = _morsel_bounds(len(relation), workers)
        results = _run_tasks(
            [
                (_np_dedup_morsel, (packed[start:stop], start, span))
                for start, stop in bounds
            ],
            workers,
        )
        numpy = _numpy_module()
        if len(results) == 1:
            indices = results[0][1]  # one morsel: already the global firsts
        else:
            # One global merge, independent of morsel count.  Per-morsel
            # first occurrences are concatenated in morsel order, so each
            # key's earliest concatenation position lies in the earliest
            # morsel that saw it — whose recorded row IS the global first
            # occurrence.
            all_keys = numpy.concatenate([unique for unique, _ in results])  # type: ignore[union-attr]
            all_first = numpy.concatenate([first for _, first in results])  # type: ignore[union-attr]
            _, first_pos = _np_first_occurrences(all_keys, span)
            indices = all_first[first_pos]
        indices.sort()
        meta = _meta("project", workers, (), bounds, len(relation), 0)
    result = _gather(relation, positions, indices, schema)
    return result, meta


def sharded_select(
    relation: EncodedRelation,
    checks: Tuple[Tuple[int, int], ...],
    workers: int,
) -> KernelResult:
    """The equality selection (order trivially preserved)."""
    if not checks:
        return relation.fresh_copy(), None
    if not relation.store.use_numpy:
        indices = _py_select(relation.store.columns, checks)
        result = _gather(relation, range(len(relation.schema)), indices, relation.schema)
        return result, None
    numpy = _numpy_module()
    workers = _shard_count(len(relation), workers)
    bounds = _morsel_bounds(len(relation), workers)
    columns = [
        numpy.asarray(column) for column in relation.store.columns  # type: ignore[union-attr]
    ]
    results = _run_tasks(
        [
            (_np_select_morsel, ([c[start:stop] for c in columns], checks, start))
            for start, stop in bounds
        ],
        workers,
    )
    indices = numpy.concatenate(results)  # type: ignore[union-attr]
    result = _gather(relation, range(len(relation.schema)), indices, relation.schema)
    return result, _meta("select", workers, (), bounds, len(relation), 0)
