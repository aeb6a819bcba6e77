"""Terms of the relational model: constants, labelled nulls and variables.

The paper works with three countably infinite, pairwise disjoint sets of
terms (Section 2):

* ``C`` — constants, which appear in databases and queries and are rigid
  (homomorphisms are the identity on them);
* ``N`` — labelled nulls, which appear in (possibly infinite) instances and
  behave like existentially quantified placeholders;
* ``V`` — variables, which appear in queries and dependencies.

This module provides immutable, hashable classes for the three kinds of
terms, together with small factories that generate fresh nulls/variables and
the ``freeze``/``unfreeze`` helpers used when turning a query into its
canonical database (the ``c(x)`` constants of Lemma 1).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Iterable, List, Set, Tuple, Union


@dataclass(frozen=True, order=True, slots=True)
class Constant:
    """A constant from the countably infinite set ``C``.

    Constants are rigid: every homomorphism maps a constant to itself.  The
    ``name`` may be any hashable printable value; two constants are equal iff
    their names are equal.

    The hash is the dataclass one, ``hash((name,))``, computed once: every
    answer set, partition key and fact set hashes constants, and the
    generated ``__hash__`` rebuilt a tuple on each call.  Slots keep the
    cached hash from growing the instance.
    """

    name: object
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[type, Tuple[object]]:
        # Rebuild through __init__: str hashes differ between processes.
        return Constant, (self.name,)

    def __str__(self) -> str:
        return str(self.name)

    def __repr__(self) -> str:
        return f"Constant({self.name!r})"

    @property
    def is_constant(self) -> bool:
        return True

    @property
    def is_null(self) -> bool:
        return False

    @property
    def is_variable(self) -> bool:
        return False


@dataclass(frozen=True, order=True)
class Null:
    """A labelled null from the countably infinite set ``N``.

    Nulls are produced by the chase when existential quantifiers are
    satisfied with fresh witnesses.  Two nulls are equal iff their labels are
    equal; fresh nulls should be created through :class:`TermFactory` (or
    :func:`fresh_null`) to guarantee global uniqueness.
    """

    label: object

    def __str__(self) -> str:
        return f"_:{self.label}"

    def __repr__(self) -> str:
        return f"Null({self.label!r})"

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_null(self) -> bool:
        return True

    @property
    def is_variable(self) -> bool:
        return False


@dataclass(frozen=True, order=True)
class Variable:
    """A variable from the countably infinite set ``V`` (queries and tgds)."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_null(self) -> bool:
        return False

    @property
    def is_variable(self) -> bool:
        return True


#: Any term of the relational model.
Term = Union[Constant, Null, Variable]

#: Terms that may appear in an instance (no variables).
GroundTerm = Union[Constant, Null]


class TermFactory:
    """Thread-safe factory of globally fresh nulls and variables.

    The chase and the rewriting algorithms both need a supply of terms that
    are guaranteed not to clash with anything already present; routing every
    fresh term through a single factory keeps that invariant simple.
    """

    def __init__(self, null_prefix: str = "n", variable_prefix: str = "v") -> None:
        self._null_prefix = null_prefix
        self._variable_prefix = variable_prefix
        self._null_counter = itertools.count()
        self._variable_counter = itertools.count()
        self._lock = threading.Lock()

    def fresh_null(self) -> Null:
        """Return a null that has never been returned by this factory."""
        with self._lock:
            index = next(self._null_counter)
        return Null(f"{self._null_prefix}{index}")

    def fresh_variable(self) -> Variable:
        """Return a variable that has never been returned by this factory."""
        with self._lock:
            index = next(self._variable_counter)
        return Variable(f"{self._variable_prefix}{index}")

    def fresh_nulls(self, count: int) -> List[Null]:
        """Return ``count`` distinct fresh nulls."""
        return [self.fresh_null() for _ in range(count)]

    def fresh_variables(self, count: int) -> List[Variable]:
        """Return ``count`` distinct fresh variables."""
        return [self.fresh_variable() for _ in range(count)]


_GLOBAL_FACTORY = TermFactory(null_prefix="gn", variable_prefix="gv")


def fresh_null() -> Null:
    """Return a fresh null from the module-level factory."""
    return _GLOBAL_FACTORY.fresh_null()


def fresh_variable() -> Variable:
    """Return a fresh variable from the module-level factory."""
    return _GLOBAL_FACTORY.fresh_variable()


def freeze_variable(variable: Variable) -> Constant:
    """Return the canonical constant ``c(x)`` associated with ``variable``.

    Freezing is how a CQ is turned into its canonical database (Lemma 1):
    each variable ``x`` is replaced by a distinguished constant ``c(x)``.
    The encoding is injective so that freezing can be undone with
    :func:`unfreeze_constant`.
    """
    return Constant(("__frozen__", variable.name))


def unfreeze_constant(constant: Constant) -> Variable:
    """Inverse of :func:`freeze_variable`.

    Raises:
        ValueError: if ``constant`` is not a frozen variable.
    """
    if not is_frozen_constant(constant):
        raise ValueError(f"{constant!r} is not a frozen variable")
    return Variable(constant.name[1])


def is_frozen_constant(term: Term) -> bool:
    """Return ``True`` iff ``term`` is a constant produced by freezing."""
    return (
        isinstance(term, Constant)
        and isinstance(term.name, tuple)
        and len(term.name) == 2
        and term.name[0] == "__frozen__"
    )


def constants_of(terms: Iterable[Term]) -> Set[Constant]:
    """Return the set of constants occurring in ``terms``."""
    return {t for t in terms if isinstance(t, Constant)}


def nulls_of(terms: Iterable[Term]) -> Set[Null]:
    """Return the set of nulls occurring in ``terms``."""
    return {t for t in terms if isinstance(t, Null)}


def variables_of(terms: Iterable[Term]) -> Set[Variable]:
    """Return the set of variables occurring in ``terms``."""
    return {t for t in terms if isinstance(t, Variable)}


def is_ground(term: Term) -> bool:
    """Return ``True`` iff ``term`` may occur in an instance (not a variable)."""
    return not isinstance(term, Variable)
