"""Datalog engine: terms, safety, evaluation, stratification, parser."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom,
    Database,
    Engine,
    Literal,
    Rule,
    StratificationError,
    Variable,
    parse_program,
    parse_rule,
    var,
)
from repro.datalog.parser import DatalogSyntaxError
from repro.datalog.planner import TICK_PROBES
from repro.datalog.terms import Filter, match, substitute
from repro.deadline import Deadline
from tests import datalog_reference


class TestTerms:
    def test_var_helper(self):
        x, y = var("x y")
        assert x == Variable("x") and y == Variable("y")

    def test_wildcard(self):
        assert Variable("_").is_wildcard

    def test_atom_repr_and_arity(self):
        atom = Atom("Edge", Variable("x"), "a")
        assert atom.arity == 2
        assert "Edge" in repr(atom)

    def test_match_binds_variables(self):
        x = Variable("x")
        binding = match((x, "a"), ("n1", "a"), {})
        assert binding == {x: "n1"}

    def test_match_conflict_fails(self):
        x = Variable("x")
        assert match((x, x), ("a", "b"), {}) is None

    def test_match_wildcard_binds_nothing(self):
        binding = match((Variable("_"),), ("a",), {})
        assert binding == {}

    def test_match_constant_mismatch(self):
        assert match(("a",), ("b",), {}) is None

    def test_substitute(self):
        x = Variable("x")
        assert substitute(Atom("R", x, 1), {x: "v"}) == ("v", 1)

    def test_substitute_wildcard_in_head_rejected(self):
        with pytest.raises(ValueError):
            substitute(Atom("R", Variable("_")), {})


class TestRuleSafety:
    def test_unbound_head_variable_rejected(self):
        x, y = var("x y")
        with pytest.raises(ValueError):
            Rule(Atom("Out", x, y), [Literal(Atom("In", x))])

    def test_unbound_negated_variable_rejected(self):
        x, y = var("x y")
        with pytest.raises(ValueError):
            Rule(Atom("Out", x), [Literal(Atom("In", x)), Literal(Atom("Not", y), negated=True)])

    def test_fact_rule_allowed(self):
        Rule(Atom("F", "a", 1), [])


def _probe(db, relation, positions, key):
    """Facts (raw values) whose values at ``positions`` equal ``key``,
    through the relation's hash index on ``positions`` — registered on
    first use, as binding a join plan does."""
    index, _built = db.register_index(relation, positions)
    interned = tuple(db.intern_value(value) for value in key)
    return [db.decode(fact) for fact in index.get(interned, ())]


class TestDatabase:
    def test_add_dedupes(self):
        db = Database()
        assert db.add("R", ("a",))
        assert not db.add("R", ("a",))
        assert db.count("R") == 1

    def test_lookup_indexed(self):
        db = Database()
        db.add_all("E", [("a", "b"), ("a", "c"), ("x", "y")])
        assert sorted(_probe(db, "E", (0,), ("a",))) == [("a", "b"), ("a", "c")]

    def test_index_updated_incrementally(self):
        db = Database()
        db.add("E", ("a", "b"))
        _probe(db, "E", (0,), ("a",))  # build the index
        db.add("E", ("a", "z"))
        assert ("a", "z") in _probe(db, "E", (0,), ("a",))

    def test_contains(self):
        db = Database()
        db.add("R", ("a", 1))
        assert db.contains("R", ("a", 1))
        assert not db.contains("R", ("a", 2))

    def test_indexes_stored_per_relation(self):
        """add() must only maintain the inserted relation's indexes — the
        flat index map used to make every insert scan every index."""
        db = Database()
        db.add_all("E", [("a", "b")])
        db.add_all("F", [("p", "q")])
        _probe(db, "E", (0,), ("a",))  # build an index on E only
        _probe(db, "F", (1,), ("q",))  # ... and a differently-shaped one on F
        assert set(db._indexes) == {"E", "F"}
        assert set(db._indexes["E"]) == {(0,)}
        assert set(db._indexes["F"]) == {(1,)}
        # Inserts keep each relation's own indexes fresh and do not create
        # entries under other relations.
        db.add("E", ("a", "z"))
        db.add("F", ("x", "q"))
        assert ("a", "z") in _probe(db, "E", (0,), ("a",))
        assert ("x", "q") in _probe(db, "F", (1,), ("q",))
        assert set(db._indexes["E"]) == {(0,)}

    def test_multi_position_indexes_coexist(self):
        db = Database()
        db.add_all("E", [("a", "b"), ("a", "c")])
        assert _probe(db, "E", (0, 1), ("a", "b")) == [("a", "b")]
        assert sorted(_probe(db, "E", (0,), ("a",))) == [("a", "b"), ("a", "c")]
        db.add("E", ("a", "d"))
        assert _probe(db, "E", (0, 1), ("a", "d")) == [("a", "d")]


class TestDeadlineTicks:
    def test_a_large_join_reads_the_clock_within_its_round(self):
        """A non-recursive join of 10,001 probes runs in the stratum's seed
        round, between two of the engine's own checks; its join loops
        tick the budget every TICK_PROBES probes, so the clock is read
        inside that round too."""

        class ClockReads(Deadline):
            """Records the engine's own checks, each clock read, and who
            ticked."""

            def __init__(self):
                super().__init__(3600.0)
                self.events = []
                self.tickers = set()

            def check(self):
                caller = sys._getframe(1).f_code.co_name
                if caller != "tick":
                    self.events.append("check")
                super().check()

            def elapsed(self):
                self.events.append("read")
                return super().elapsed()

            def tick(self, work=1):
                self.tickers.add(sys._getframe(1).f_code.co_filename)
                super().tick(work)

        db = Database()
        db.add_all("A", [(x,) for x in range(10_000)])
        db.add_all("B", [(x,) for x in range(10_001)])
        # A is the smaller relation, so the join scans it and probes B's
        # index once per A fact.
        engine = Engine(parse_program("Out(x) :- A(x), B(x).").rules)
        deadline = ClockReads()
        engine.evaluate(db, deadline=deadline)
        assert db.count("Out") == 10_000
        probes = engine.stats.join_probes
        assert probes == 10_001
        # Checks: before binding the rule, before its seed round, and at
        # the one semi-naive round its new facts start.
        assert deadline.events.count("check") == 3
        rounds = "".join(
            "|" if event == "check" else "r" for event in deadline.events
        ).split("|")
        seed_round = rounds[2]
        assert seed_round.count("r") == 1 + probes // TICK_PROBES
        assert deadline.tickers == {"<datalog join>"}


class TestEvaluation:
    def test_transitive_closure(self):
        rules = [
            parse_rule("Path(x, y) :- Edge(x, y)."),
            parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."),
        ]
        db = Database()
        db.add_all("Edge", [("a", "b"), ("b", "c"), ("c", "d")])
        Engine(rules).evaluate(db)
        assert ("a", "d") in db.facts("Path")
        assert db.count("Path") == 6

    def test_mutual_recursion(self):
        rules = [
            parse_rule("Even(x) :- Zero(x)."),
            parse_rule("Even(y) :- Odd(x), Succ(x, y)."),
            parse_rule("Odd(y) :- Even(x), Succ(x, y)."),
        ]
        db = Database()
        db.add("Zero", (0,))
        db.add_all("Succ", [(i, i + 1) for i in range(10)])
        Engine(rules).evaluate(db)
        assert (4,) in db.facts("Even")
        assert (5,) in db.facts("Odd")
        assert (5,) not in db.facts("Even")

    def test_negation_in_lower_stratum(self):
        rules = [
            parse_rule("Reach(x) :- Start(x)."),
            parse_rule("Reach(y) :- Reach(x), Edge(x, y)."),
            parse_rule("Unreached(x) :- Node(x), !Reach(x)."),
        ]
        db = Database()
        db.add("Start", ("a",))
        db.add_all("Edge", [("a", "b")])
        db.add_all("Node", [("a",), ("b",), ("c",)])
        Engine(rules).evaluate(db)
        assert db.facts("Unreached") == {("c",)}

    def test_recursive_negation_rejected(self):
        with pytest.raises(StratificationError):
            Engine([parse_rule("P(x) :- N(x), !P(x).")])

    def test_indirect_recursive_negation_rejected(self):
        rules = [
            parse_rule("A(x) :- N(x), !B(x)."),
            parse_rule("B(x) :- A(x)."),
        ]
        with pytest.raises(StratificationError):
            Engine(rules)

    def test_ground_facts_as_rules(self):
        rules = [parse_rule('Color("red").'), parse_rule("Has(x) :- Color(x).")]
        db = Database()
        Engine(rules).evaluate(db)
        assert db.facts("Has") == {("red",)}

    def test_constants_in_body(self):
        rules = [parse_rule('Special(y) :- Edge("hub", y).')]
        db = Database()
        db.add_all("Edge", [("hub", "a"), ("other", "b")])
        Engine(rules).evaluate(db)
        assert db.facts("Special") == {("a",)}

    def test_wildcard_in_body(self):
        rules = [parse_rule("HasEdge(x) :- Edge(x, _).")]
        db = Database()
        db.add_all("Edge", [("a", "b"), ("a", "c")])
        Engine(rules).evaluate(db)
        assert db.facts("HasEdge") == {("a",)}

    def test_filter_predicate(self):
        x, y = var("x y")
        rule = Rule(
            Atom("Big", x),
            [Literal(Atom("Val", x, y)), Filter(lambda v: v > 10, y, name="gt10")],
        )
        db = Database()
        db.add_all("Val", [("a", 5), ("b", 50)])
        Engine([rule]).evaluate(db)
        assert db.facts("Big") == {("b",)}

    def test_zero_arity_relations(self):
        rules = [
            parse_rule("Flag() :- Trigger(x)."),
            parse_rule("All(y) :- Flag(), Item(y)."),
        ]
        db = Database()
        db.add("Trigger", ("t",))
        db.add_all("Item", [(1,), (2,)])
        Engine(rules).evaluate(db)
        assert db.facts("All") == {(1,), (2,)}

    def test_same_generation(self):
        rules = [
            parse_rule("SG(x, x) :- Node(x)."),
            parse_rule("SG(x, y) :- Parent(x, px), SG(px, py), Parent(y, py)."),
        ]
        db = Database()
        db.add_all("Node", [(n,) for n in "abcde"])
        db.add_all("Parent", [("b", "a"), ("c", "a"), ("d", "b"), ("e", "c")])
        Engine(rules).evaluate(db)
        assert ("b", "c") in db.facts("SG")
        assert ("d", "e") in db.facts("SG")
        assert ("b", "d") not in db.facts("SG")


@st.composite
def random_edges(draw):
    nodes = list("abcdef")
    count = draw(st.integers(0, 12))
    return [
        (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
        for _ in range(count)
    ]


class TestSemiNaiveEquivalence:
    @given(random_edges())
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_on_closure_with_negation(self, edges):
        rules = [
            parse_rule("Path(x, y) :- Edge(x, y)."),
            parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."),
            parse_rule("Isolated(x) :- Vertex(x), !Path(x, x)."),
        ]
        vertices = sorted({n for e in edges for n in e} | {"a"})
        db_semi, db_naive = Database(), Database()
        for db in (db_semi, db_naive):
            db.add_all("Edge", edges)
            db.add_all("Vertex", [(v,) for v in vertices])
        Engine(rules).evaluate(db_semi)
        datalog_reference.evaluate(rules, db_naive)
        assert db_semi.facts("Path") == db_naive.facts("Path")
        assert db_semi.facts("Isolated") == db_naive.facts("Isolated")


class TestParser:
    def test_program_with_decl(self):
        program = parse_program(".decl Edge(x, y)\nPath(x, y) :- Edge(x, y).")
        assert program.declarations == {"Edge": 2}
        assert len(program.rules) == 1

    def test_comments_ignored(self):
        program = parse_program("// nothing\nF(1).")
        assert len(program.rules) == 1

    def test_string_and_number_terms(self):
        rule = parse_rule('R("hello", 42, x) :- S(x).')
        assert rule.head.args[0] == "hello"
        assert rule.head.args[1] == 42

    def test_negative_number(self):
        rule = parse_rule("R(-1).")
        assert rule.head.args[0] == -1

    def test_syntax_error(self):
        with pytest.raises(DatalogSyntaxError):
            parse_rule("R(x :- S(x).")

    def test_trailing_garbage(self):
        with pytest.raises(DatalogSyntaxError):
            parse_rule("R(1). extra")
