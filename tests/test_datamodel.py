"""Tests for the relational data model (terms, atoms, schemas, instances)."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.datamodel import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Predicate,
    Schema,
    TermFactory,
    Variable,
    freeze_variable,
    instance_from_tuples,
    is_frozen_constant,
    unfreeze_constant,
)


class TestTerms:
    def test_constants_equal_by_name(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_term_kinds_are_disjoint(self):
        assert Constant("a") != Variable("a")
        assert Null("a") != Variable("a")
        assert Constant("a") != Null("a")

    def test_kind_flags(self):
        assert Constant("a").is_constant and not Constant("a").is_variable
        assert Variable("x").is_variable and not Variable("x").is_null
        assert Null("n").is_null and not Null("n").is_constant

    def test_terms_are_hashable(self):
        bag = {Constant("a"), Variable("a"), Null("a")}
        assert len(bag) == 3

    def test_constant_hash_is_cached_and_survives_pickling(self):
        # The cached hash keeps the dataclass value (set iteration orders
        # depend on it), and pickling rebuilds it: str hashes are salted
        # per process, so a pickled hash would be stale elsewhere.
        constant = Constant(("a", 1))
        assert hash(constant) == hash((("a", 1),))
        clone = pickle.loads(pickle.dumps(constant))
        assert clone == constant and hash(clone) == hash(constant)
        foreign = subprocess.run(
            [sys.executable, "-c", "import pickle, sys; from repro.datamodel "
             "import Constant; sys.stdout.buffer.write(pickle.dumps(Constant('a')))"],
            env={**os.environ, "PYTHONHASHSEED": "1",
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, check=True,
        ).stdout
        assert hash(pickle.loads(foreign)) == hash(Constant("a"))
        assert Constant("a") < Constant("b")
        assert repr(constant) == "Constant(('a', 1))"
        with pytest.raises(AttributeError):
            constant.name = "b"  # type: ignore[misc]

    def test_factory_produces_distinct_terms(self):
        factory = TermFactory()
        nulls = factory.fresh_nulls(10)
        variables = factory.fresh_variables(10)
        assert len(set(nulls)) == 10
        assert len(set(variables)) == 10

    def test_freeze_round_trip(self):
        variable = Variable("x")
        frozen = freeze_variable(variable)
        assert is_frozen_constant(frozen)
        assert unfreeze_constant(frozen) == variable

    def test_freeze_is_injective(self):
        assert freeze_variable(Variable("x")) != freeze_variable(Variable("y"))

    def test_unfreeze_rejects_plain_constants(self):
        with pytest.raises(ValueError):
            unfreeze_constant(Constant("a"))

    def test_plain_constant_is_not_frozen(self):
        assert not is_frozen_constant(Constant("a"))
        assert not is_frozen_constant(Variable("x"))


class TestAtoms:
    def test_arity_is_checked(self):
        with pytest.raises(ValueError):
            Atom(Predicate("R", 2), (Variable("x"),))

    def test_predicate_call_shortcut(self):
        R = Predicate("R", 2)
        atom = R(Variable("x"), Constant("a"))
        assert atom.predicate == R
        assert atom.terms == (Variable("x"), Constant("a"))

    def test_term_partition(self):
        atom = Atom(Predicate("R", 3), (Variable("x"), Constant("a"), Null("n")))
        assert atom.variables() == {Variable("x")}
        assert atom.constants() == {Constant("a")}
        assert atom.nulls() == {Null("n")}
        assert not atom.is_ground()

    def test_apply_substitution(self):
        atom = Atom(Predicate("R", 2), (Variable("x"), Variable("y")))
        image = atom.apply({Variable("x"): Constant("a")})
        assert image.terms == (Constant("a"), Variable("y"))

    def test_positions_of(self):
        atom = Atom(Predicate("R", 3), (Variable("x"), Variable("y"), Variable("x")))
        assert atom.positions_of(Variable("x")) == (0, 2)

    def test_atoms_are_hashable_and_equal_by_value(self):
        left = Atom(Predicate("R", 1), (Constant("a"),))
        right = Atom(Predicate("R", 1), (Constant("a"),))
        assert left == right
        assert len({left, right}) == 1


class TestSchema:
    def test_add_and_lookup(self):
        schema = Schema([Predicate("R", 2)])
        assert schema.predicate("R").arity == 2
        assert "R" in schema

    def test_arity_conflict_is_rejected(self):
        schema = Schema([Predicate("R", 2)])
        with pytest.raises(ValueError):
            schema.add(Predicate("R", 3))

    def test_predicate_declared_on_the_fly(self):
        schema = Schema()
        predicate = schema.predicate("S", 3)
        assert predicate in schema

    def test_unknown_predicate_without_arity(self):
        schema = Schema()
        with pytest.raises(KeyError):
            schema.predicate("missing")

    def test_max_arity(self):
        schema = Schema([Predicate("R", 2), Predicate("S", 4)])
        assert schema.max_arity == 4
        assert Schema().max_arity == 0

    def test_from_atoms_and_union(self):
        atoms = [Atom(Predicate("R", 1), (Constant("a"),))]
        schema = Schema.from_atoms(atoms)
        merged = schema.union(Schema([Predicate("S", 2)]))
        assert len(merged) == 2


class TestInstance:
    def _sample(self):
        R = Predicate("R", 2)
        S = Predicate("S", 1)
        return Instance(
            [
                Atom(R, (Constant("a"), Constant("b"))),
                Atom(R, (Constant("b"), Null("n1"))),
                Atom(S, (Constant("a"),)),
            ]
        )

    def test_len_and_contains(self):
        instance = self._sample()
        assert len(instance) == 3
        assert Atom(Predicate("S", 1), (Constant("a"),)) in instance

    def test_rejects_non_ground_atoms(self):
        with pytest.raises(ValueError):
            Instance([Atom(Predicate("R", 1), (Variable("x"),))])

    def test_add_is_idempotent(self):
        instance = self._sample()
        atom = Atom(Predicate("S", 1), (Constant("a"),))
        assert not instance.add(atom)
        assert len(instance) == 3

    def test_discard(self):
        instance = self._sample()
        atom = Atom(Predicate("S", 1), (Constant("a"),))
        assert instance.discard(atom)
        assert atom not in instance
        assert not instance.discard(atom)

    def test_indexes(self):
        instance = self._sample()
        R = Predicate("R", 2)
        assert len(instance.atoms_with_predicate(R)) == 2
        assert len(instance.atoms_with_term(Constant("a"))) == 2
        assert len(instance.atoms_with_predicate_name("S")) == 1

    def test_domains(self):
        instance = self._sample()
        assert Null("n1") in instance.nulls()
        assert Constant("a") in instance.constants()
        assert not instance.is_database()

    def test_apply_substitution(self):
        instance = self._sample()
        renamed = instance.apply({Null("n1"): Constant("c")})
        assert renamed.is_database()
        assert len(renamed) == 3

    def test_restrict_to_terms(self):
        instance = self._sample()
        restricted = instance.restrict_to_terms([Constant("a"), Constant("b")])
        assert len(restricted) == 2

    def test_restrict_to_predicates(self):
        instance = self._sample()
        restricted = instance.restrict_to_predicates([Predicate("S", 1)])
        assert len(restricted) == 1

    def test_union_and_copy_are_independent(self):
        instance = self._sample()
        other = Instance([Atom(Predicate("T", 1), (Constant("z"),))])
        union = instance.union(other)
        assert len(union) == 4
        assert len(instance) == 3

    def test_instance_from_tuples(self):
        schema = Schema([Predicate("R", 2)])
        database = instance_from_tuples(schema, {"R": [(1, 2), (2, 3)]})
        assert isinstance(database, Database)
        assert len(database) == 2
        with pytest.raises(ValueError):
            instance_from_tuples(schema, {"R": [(1,)]})

    def test_equality_with_sets(self):
        instance = self._sample()
        assert instance == instance.atoms()
        assert instance == instance.copy()
