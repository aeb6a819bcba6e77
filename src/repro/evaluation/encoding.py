"""Dictionary encoding and the columnar storage behind the batch face.

The tuple engine in :mod:`repro.evaluation.relation` moves one python tuple
of :class:`~repro.datamodel.Term` objects at a time through dict-based
partitions.  Every probe then hashes frozen dataclasses — a large constant
factor on top of the linear-time bounds the operators already meet.  This
module removes that constant without touching the algorithms:

* a :class:`TermEncoder` maps each distinct term to a dense ``int`` code,
  once, and decodes by list indexing;
* an :class:`EncodedStore` keeps a relation's rows column-wise as
  ``array('q')`` buffers (optionally numpy ``int64`` arrays, see
  :func:`numpy_enabled`) plus the caches shared by schema views;
* an :class:`EncodedRelation` is the schema-carrying view over a store.  It
  mirrors the :class:`~repro.evaluation.relation.Relation` surface the
  enumeration cursors need (``rows``/``position``/``partition``) and holds
  the decode boundary; the columnar kernels that select, project, semi-join
  and join encoded relations live in :mod:`repro.evaluation.parallel`, so
  the operator IR executes batch-at-a-time and decodes only at the output
  boundary.

Backend selection is explicit: :func:`resolve_backend` resolves the
``backend=`` keyword accepted by every evaluation entry point, falling back
to the ``REPRO_BACKEND`` environment variable and then to ``"tuple"``.  The
tuple backend stays the differential oracle; the columnar backend must agree
with it bit-for-bit on answer sets (see ``tests/test_columnar_backend.py``).

Probe accounting mirrors the tuple engine exactly: the join kernel counts
one probe per probe row into the *same* process-wide
``Partition.total_probes`` counter, while membership checks (the semi-join
path) are deliberately uncounted — so the bounded-work assertions in the
streaming tests and benchmarks hold under either backend.
"""

from __future__ import annotations

import gc
import os
import threading
from array import array
from contextlib import contextmanager
from typing import (
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Term, Variable
from .relation import Partition, Relation, Row, SchemaError

#: Environment variable naming the default execution backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Environment variable gating the optional numpy column storage.
NUMPY_ENV = "REPRO_NUMPY"

#: The recognised backends, in oracle-first order.
BACKENDS = ("tuple", "columnar")

#: A row of dictionary codes, positionally aligned with a schema.
IntRow = Tuple[int, ...]

_UNSET = object()
_NUMPY: object = _UNSET


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve the execution backend with explicit-over-environment precedence.

    An explicit ``backend=`` argument wins; otherwise the ``REPRO_BACKEND``
    environment variable is consulted; otherwise the tuple backend (the
    differential oracle) is used.  Raises ``ValueError`` on unknown names so
    a typo in ``--backend``/``REPRO_BACKEND`` fails loudly rather than
    silently falling back.
    """
    value = backend if backend is not None else os.environ.get(BACKEND_ENV, "")
    value = value.strip().lower() or "tuple"
    if value not in BACKENDS:
        raise ValueError(
            f"unknown backend {value!r}; expected one of {', '.join(BACKENDS)}"
        )
    return value


def _numpy_module() -> object:
    global _NUMPY
    if _NUMPY is _UNSET:
        try:
            import numpy  # noqa: F401  (optional, never a hard dependency)

            _NUMPY = numpy
        except Exception:  # pragma: no cover - exercised on numpy-free installs
            _NUMPY = None
    return _NUMPY


def numpy_enabled() -> bool:
    """Whether columns should be stored as numpy ``int64`` arrays.

    Off by default even when numpy is importable: the flag
    (``REPRO_NUMPY=1``) makes the accelerated storage an explicit opt-in, so
    the pure-python ``array('q')`` path — the one CI exercises on
    numpy-free installs — stays the default columnar implementation.
    """
    value = os.environ.get(NUMPY_ENV, "").strip().lower()
    if value in ("", "0", "false", "no", "off"):
        return False
    return _numpy_module() is not None


def _make_column(values: Iterable[int], use_numpy: bool) -> Sequence[int]:
    if use_numpy:
        numpy = _numpy_module()
        return numpy.fromiter(values, dtype=numpy.int64)  # type: ignore[union-attr]
    return array("q", values)


def _take_column(
    column: Sequence[int], indices: Sequence[int], use_numpy: bool
) -> Sequence[int]:
    if use_numpy:
        return column[indices]  # type: ignore[index]  # fancy indexing
    # Base columns are compact array('q') storage; gathered intermediates
    # stay plain lists — list(map(...)) is markedly faster to build than an
    # array and every downstream consumer is indexing/slicing either way.
    return list(map(column.__getitem__, indices))


class TermEncoder:
    """An append-only bijection between terms and dense int codes.

    Encoding is one dict lookup per cell; decoding is one list index.  The
    encoder is owned by the scan layer (one per
    :class:`~repro.evaluation.batch.ScanCache`, or per
    :class:`~repro.evaluation.operators.ExecutionContext` when no cache is
    shared), so relations encoded under the same encoder share a code space
    and can be joined without translation.

    Encoding is thread-safe: concurrent batch scheduling and the parallel
    morsel kernels may encode under one shared encoder from several workers
    at once, so the append path takes a lock — the same discipline as
    ``TermFactory`` in :mod:`repro.datamodel.terms`.  The fast path (term
    already assigned) stays a single lock-free dict read: codes are never
    retracted, so a hit is stable the moment it is visible.
    """

    __slots__ = ("codes", "terms", "_lock")

    def __init__(self) -> None:
        self.codes: Dict[Term, int] = {}
        self.terms: List[Term] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.terms)

    def encode(self, term: Term) -> int:
        code = self.codes.get(term)
        if code is None:
            with self._lock:
                code = self.codes.get(term)
                if code is None:
                    code = len(self.terms)
                    self.terms.append(term)
                    self.codes[term] = code
        return code

    def encode_row(self, row: Row) -> IntRow:
        return tuple(map(self.encode, row))

    def decode(self, code: int) -> Term:
        return self.terms[code]

    def decode_row(self, row: Sequence[int]) -> Row:
        terms = self.terms
        return tuple(terms[code] for code in row)

    def dead_codes(self, live: Container[Term]) -> int:
        """Count assigned codes whose term is not in ``live``.

        The encoder never retracts codes (append-only keeps every cached
        encoded store valid), so deletions strand codes over time.  This
        audit — typically called with the database's active domain — makes
        the drift observable; ``O(len(self))``.
        """
        return sum(1 for term in self.terms if term not in live)


_GC_LOCK = threading.Lock()
_gc_pauses = 0
_gc_was_enabled = False


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for a bulk allocation.

    Reference-counted: concurrent pauses (threads decoding at once) share
    one pause, and the collector is re-enabled, if it was enabled when the
    first began, when the last ends.
    """
    global _gc_pauses, _gc_was_enabled
    with _GC_LOCK:
        if not _gc_pauses:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _GC_LOCK:
            _gc_pauses -= 1
            if not _gc_pauses and _gc_was_enabled:
                gc.enable()


class EncodedStore:
    """The shared, schema-free storage of one encoded relation.

    Mirrors the role row storage plays for :class:`Relation`: a store is
    shared by reference across :meth:`EncodedRelation.with_schema` views,
    and all caches (row tuples, partitions, packed keys, hash shards) live
    here so every view reuses them — caches are positional, never
    name-dependent.  The usual immutability discipline applies: columns are
    never mutated after construction.
    """

    __slots__ = ("columns", "length", "use_numpy", "caches")

    def __init__(
        self,
        columns: Sequence[Sequence[int]],
        length: int,
        use_numpy: bool,
    ) -> None:
        self.columns: Tuple[Sequence[int], ...] = tuple(columns)
        self.length = length
        self.use_numpy = use_numpy
        self.caches: Dict[object, object] = {}


class EncodedRelation:
    """A schema-carrying view over an :class:`EncodedStore`.

    Mirrors the :class:`Relation` API closely enough
    (``schema``/``rows``/``position``/``variables``/``partition``) that the
    streaming-enumeration cursors of
    :class:`~repro.evaluation.operators.CursorEnumerate` run on encoded
    relations verbatim, with decoding deferred to the output boundary.
    """

    __slots__ = ("schema", "store", "encoder", "_positions")

    def __init__(
        self,
        schema: Sequence[Variable],
        store: EncodedStore,
        encoder: TermEncoder,
    ) -> None:
        self.schema: Tuple[Variable, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise SchemaError(f"duplicate variable in schema {self.schema}")
        if len(self.schema) != len(store.columns):
            raise SchemaError(
                f"schema {self.schema} has arity {len(self.schema)}, "
                f"store has {len(store.columns)} columns"
            )
        self.store = store
        self.encoder = encoder
        self._positions: Dict[Variable, int] = {
            variable: index for index, variable in enumerate(self.schema)
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def build_store(rows: Sequence[Row], arity: int, encoder: TermEncoder) -> EncodedStore:
        """Encode term rows into a fresh column store (one dict hit per cell)."""
        use_numpy = numpy_enabled()
        encoded = [encoder.encode_row(row) for row in rows]
        columns = [
            _make_column(column, use_numpy)
            for column in (zip(*encoded) if encoded else [() for _ in range(arity)])
        ]
        store = EncodedStore(columns, len(encoded), use_numpy)
        store.caches["rows"] = encoded
        return store

    @classmethod
    def from_relation(cls, relation: Relation, encoder: TermEncoder) -> "EncodedRelation":
        return relation.encoded(encoder)

    @classmethod
    def from_rows(
        cls,
        schema: Sequence[Variable],
        rows: Sequence[IntRow],
        encoder: TermEncoder,
    ) -> "EncodedRelation":
        """Build from already-encoded int rows (the enumeration boundary)."""
        use_numpy = numpy_enabled()
        arity = len(tuple(schema))
        columns = [
            _make_column(column, use_numpy)
            for column in (zip(*rows) if rows else [() for _ in range(arity)])
        ]
        store = EncodedStore(columns, len(rows), use_numpy)
        store.caches["rows"] = list(rows)
        return cls(schema, store, encoder)

    @classmethod
    def empty(
        cls, schema: Sequence[Variable], encoder: TermEncoder
    ) -> "EncodedRelation":
        return cls.from_rows(schema, [], encoder)

    def _derive(
        self, schema: Sequence[Variable], columns: Sequence[Sequence[int]], length: int
    ) -> "EncodedRelation":
        return EncodedRelation(
            schema, EncodedStore(columns, length, self.store.use_numpy), self.encoder
        )

    def fresh_copy(self) -> "EncodedRelation":
        """A fresh relation over the same (immutable) columns, fresh caches.

        The encoded analogue of the tuple engine's "outputs never alias
        inputs" rule: columns may be shared because they are immutable, but
        caches never are.
        """
        return self._derive(self.schema, self.store.columns, self.store.length)

    # ------------------------------------------------------------------
    # Introspection (Relation-compatible surface)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.store.length

    def __bool__(self) -> bool:
        return self.store.length > 0

    def is_empty(self) -> bool:
        return self.store.length == 0

    def __iter__(self) -> Iterator[IntRow]:
        return iter(self.rows)

    def variables(self) -> Set[Variable]:
        return set(self.schema)

    def position(self, variable: Variable) -> int:
        try:
            return self._positions[variable]
        except KeyError:
            raise SchemaError(f"{variable} is not in schema {self.schema}") from None

    def __str__(self) -> str:
        header = ", ".join(str(v) for v in self.schema)
        return f"EncodedRelation[{header}]({self.store.length} rows)"

    __repr__ = __str__

    @property
    def rows(self) -> List[IntRow]:
        """The rows as int tuples, built once per store and cached."""
        cached = self.store.caches.get("rows")
        if cached is None:
            columns = self.store.columns
            if not columns:
                cached = [()] * self.store.length
            elif self.store.use_numpy:
                cached = list(zip(*(column.tolist() for column in columns)))  # type: ignore[union-attr]
            else:
                cached = list(zip(*columns))
            self.store.caches["rows"] = cached
        return cached  # type: ignore[return-value]

    def with_schema(self, schema: Sequence[Variable]) -> "EncodedRelation":
        """An ``O(1)`` renamed view sharing this relation's store and caches."""
        return EncodedRelation(schema, self.store, self.encoder)

    # ------------------------------------------------------------------
    # Key access and caches
    # ------------------------------------------------------------------
    def _key_column(self, positions: Tuple[int, ...]) -> Sequence[object]:
        """The join-key sequence for ``positions`` — raw ints for one column,
        int tuples otherwise (python ints either way, so hashing is cheap)."""
        columns = self.store.columns
        if not positions:
            return [()] * self.store.length
        if len(positions) == 1:
            column = columns[positions[0]]
            return column.tolist() if self.store.use_numpy else column  # type: ignore[union-attr]
        selected = [columns[p] for p in positions]
        if self.store.use_numpy:
            selected = [column.tolist() for column in selected]  # type: ignore[union-attr]
        return list(zip(*selected))

    def partition(self, variables: Sequence[Variable]) -> Partition:
        """A row-level :class:`Partition` over the int rows, cached per store.

        This is what lets the enumeration cursors treat encoded relations
        exactly like tuple relations — same class, same probe counters.
        """
        positions = tuple(self.position(variable) for variable in variables)
        key = ("partition", positions)
        cached = self.store.caches.get(key)
        if cached is None:
            cached = Partition(positions, self.rows)
            self.store.caches[key] = cached
        return cached  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # The cross product (the only join without a shared key)
    # ------------------------------------------------------------------
    def cross_product(
        self,
        other: "EncodedRelation",
        residual_positions: Sequence[int],
        schema: Sequence[Variable],
    ) -> "EncodedRelation":
        """Every row of ``self`` paired with every row of ``other``'s
        ``residual_positions`` columns, under ``schema``.

        Joins on a shared key run the hash-sharded kernels of
        :mod:`repro.evaluation.parallel`; the cross product has no key to
        shard on (and, mirroring the tuple engine, counts no probes).
        """
        left_indices = [
            i for i in range(self.store.length) for _ in range(other.store.length)
        ]
        right_indices = list(range(other.store.length)) * self.store.length
        use_numpy = self.store.use_numpy
        columns = [
            _take_column(column, left_indices, use_numpy)
            for column in self.store.columns
        ]
        columns.extend(
            _take_column(other.store.columns[p], right_indices, use_numpy)
            for p in residual_positions
        )
        return self._derive(schema, columns, len(left_indices))

    def chunks(self, size: int) -> Iterator["EncodedRelation"]:
        """Slice into batches of at most ``size`` rows (column slices, O(1)
        per column for numpy views, one copy for ``array`` slices)."""
        length = self.store.length
        if length <= size:
            yield self
            return
        for start in range(0, length, size):
            stop = min(start + size, length)
            columns = [column[start:stop] for column in self.store.columns]
            yield self._derive(self.schema, columns, stop - start)

    # ------------------------------------------------------------------
    # The decode boundary
    # ------------------------------------------------------------------
    def _decoded_columns(
        self, positions: Sequence[int]
    ) -> List[List[Term]]:
        """Decode whole columns at once (one cached list per position).

        Column-wise decoding replaces the per-row ``tuple(terms[c] ...)``
        inner loop with one C-speed list comprehension per output column —
        the dominant cost at the decode boundary — and repeated positions
        (repeated head variables) are decoded once.
        """
        terms = self.encoder.terms
        columns = self.store.columns
        use_numpy = self.store.use_numpy
        terms_array = None
        if use_numpy and self.store.length:
            numpy = _numpy_module()
            terms_array = numpy.empty(len(terms), dtype=object)  # type: ignore[union-attr]
            terms_array[:] = terms
        cache: Dict[int, List[Term]] = {}
        decoded = []
        for position in positions:
            column_terms = cache.get(position)
            if column_terms is None:
                column = columns[position]
                if terms_array is not None:
                    # Fancy indexing on an object array decodes the whole
                    # column in one C call.
                    column_terms = terms_array[column].tolist()
                else:
                    column_terms = [terms[code] for code in column]
                cache[position] = column_terms
            decoded.append(column_terms)
        return decoded

    def decode_row(self, row: Sequence[int]) -> Row:
        return self.encoder.decode_row(row)

    def decoded_rows(self) -> Iterator[Row]:
        if not self.schema:
            return iter([()] * self.store.length)
        return zip(*self._decoded_columns(range(len(self.schema))))

    def to_relation(self) -> Relation:
        """Decode into a tuple-engine :class:`Relation` (the output boundary)."""
        return Relation(self.schema, self.decoded_rows())

    def answer_tuples(self, head: Sequence[Variable]) -> Set[Row]:
        """The decoded answer set over ``head`` (repeated variables allowed).

        Built with the cyclic garbage collector paused: every tuple made
        here is alive in the result, so a collection could free none of
        them, yet their allocation would trigger one — a full one, walking
        the whole heap (the database included), about once per large
        answer set.
        """
        positions = tuple(self.position(variable) for variable in head)
        if not positions:
            return {()} if self.store.length else set()
        with _gc_paused():
            return set(zip(*self._decoded_columns(positions)))
