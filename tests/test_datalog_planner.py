"""Planner and storage-layer units: join ordering, plan safety errors,
interned storage behavior, and EngineStats observability."""

import pytest

from repro.datalog import (
    Atom,
    CompiledProgram,
    Database,
    Engine,
    EngineStats,
    Literal,
    PlanningError,
    Rule,
    Variable,
    parse_program,
    parse_rule,
    var,
)
from repro.datalog import planner
from repro.datalog.planner import (
    compile_rule,
    compile_variant,
    join_factory,
    join_source,
    traced_factory,
)
from repro.datalog.terms import Filter
from tests import datalog_reference


class TestJoinOrdering:
    def test_bound_variable_count_drives_order(self):
        """After the first literal binds x, the literal sharing x runs
        before the unconnected one (sideways information passing)."""
        rule = parse_rule("Out(x, z) :- A(x), B(x, y), C(z).")
        sizes = {"A": 10, "B": 10, "C": 10}
        variant = compile_variant(rule, size_of=lambda rel: sizes[rel])
        assert variant.order() == ["A", "B", "C"]

    def test_smaller_relation_breaks_ties(self):
        rule = parse_rule("Out(x, y) :- Big(x), Small(y).")
        sizes = {"Big": 1000, "Small": 3}
        variant = compile_variant(rule, size_of=lambda rel: sizes[rel])
        assert variant.order() == ["Small", "Big"]

    def test_constant_arguments_count_as_bound(self):
        rule = parse_rule('Out(y) :- Any(x), Keyed("k", y).')
        sizes = {"Any": 5, "Keyed": 5}
        variant = compile_variant(rule, size_of=lambda rel: sizes[rel])
        assert variant.order()[0] == "Keyed"

    def test_source_order_is_the_final_tiebreak(self):
        rule = parse_rule("Out(x, y) :- First(x), Second(y).")
        variant = compile_variant(rule, size_of=lambda rel: 7)
        assert variant.order() == ["First", "Second"]

    def test_delta_variant_prefers_delta_literal(self):
        rule = parse_rule("Path(x, z) :- Path(x, y), Edge(y, z).")
        plan = compile_rule(
            rule, recursive_relations={"Path"}, size_of=lambda rel: 100
        )
        assert plan.seed.delta_position is None
        (variant,) = plan.delta_variants.values()
        assert variant.delta_relation == "Path"
        assert variant.steps[0].delta

    def test_delta_variant_per_recursive_position(self):
        rule = parse_rule("P(x, z) :- P(x, y), P(y, z).")
        plan = compile_rule(rule, recursive_relations={"P"})
        assert sorted(plan.delta_variants) == [0, 1]

    def test_index_signature_covers_bound_and_constant_positions(self):
        rule = parse_rule('Out(y) :- A(x), E(x, "c", y).')
        variant = compile_variant(rule, size_of=lambda rel: 1)
        # The constant argument makes E 1-bound, so it runs first, keyed on
        # the constant position; A then probes on the now-bound x.
        assert variant.order() == ["E", "A"]
        step = variant.steps[0]
        assert step.positions == (1,)
        assert [position for position, _slot in step.outs] == [0, 2]
        assert variant.steps[1].positions == (0,)


class TestSharedTemplates:
    def test_evaluations_leave_templates_and_functions_untouched(self):
        """Templates are shared by every evaluation, so binding one to a
        database must leave each of its fields, and its cached join
        functions, the very same objects, whatever the database holds and
        interns."""
        program = CompiledProgram(parse_program(
            'P(x, z) :- P(x, y), E(y, z), !N(z).\n'
            'P(x, y) :- E(x, y).\n'
            'Q("k", x) :- P(x, "c").'
        ).rules)
        seen = {}
        paths = [("p%d" % n, "c") for n in range(6)]
        for edges, known in (([("a", "b"), ("b", "c")], []), ([(1, 2), ("c", 1)], paths)):
            for track in (False, True):
                database = Database()
                database.add_all("E", edges)
                database.add_all("P", known)
                database.add("N", ("b",))
                for stratum in program.plans(database.count):
                    for plan in stratum:
                        for variant in plan.variants():
                            seen.setdefault(id(variant), (variant, [
                                getattr(variant, name)
                                for name in type(variant).__slots__
                            ] + [traced_factory(variant)]))
                Engine(program, track_provenance=track).evaluate(database)
        # The recursive rule ranks E and P differently on the two databases:
        # two templates of two variants each, plus one per other rule.
        assert len(seen) == 6
        for variant, before in seen.values():
            after = [
                getattr(variant, name) for name in type(variant).__slots__
            ] + [traced_factory(variant)]
            for name, old, new in zip(type(variant).__slots__ + ("traced",), before, after):
                assert new is old, name
            assert variant.factory is join_factory(variant.source)


# Strings that would change the meaning of any source they were pasted
# into: quotes, newlines and a call to ``__import__``.
HOSTILE = {
    "edge": 'Edge"); __import__(\'os\')\n#',
    "reach": "Reach'\n__import__('os')",
    "blocked": 'B"\'\n)',
    "node": "__import__('os')",
    "out": "Out\n\tpass",
    "constant": 'k"\n__import__(\'os\').getcwd()',
    "filter": "keep'\n__import__('os')",
}


class TestGeneratedSource:
    def _rules(self):
        x, y, z = var("x y z")
        c = HOSTILE["constant"]

        def keep(value, marker):
            return value != marker

        edge, reach = HOSTILE["edge"], HOSTILE["reach"]
        return [
            Rule(Atom(reach, c, y), [Literal(Atom(edge, c, y))]),
            Rule(Atom(reach, c, z), [
                Literal(Atom(reach, c, y)),
                Literal(Atom(edge, y, z)),
                Literal(Atom(HOSTILE["blocked"], z), negated=True),
                Filter(keep, z, "d", name=HOSTILE["filter"]),
            ]),
            Rule(Atom(HOSTILE["out"], x, c), [
                Literal(Atom(HOSTILE["node"], x)),
                Literal(Atom(reach, c, x), negated=True),
                Filter(keep, c, x, name=HOSTILE["filter"]),
            ]),
        ]

    def _database(self):
        c = HOSTILE["constant"]
        db = Database()
        db.add_all(HOSTILE["edge"], [(c, "a"), ("a", "b"), ("b", "c"), ("c", "d"),
                                     ("d", "e"), ("b", c)])
        db.add(HOSTILE["blocked"], ("c",))
        db.add_all(HOSTILE["node"], [(n,) for n in "abcde"] + [(c,)])
        return db

    def test_no_rule_text_reaches_compile(self, monkeypatch):
        """Relation names, constants and filter names full of quotes,
        newlines and ``__import__`` calls: every source handed to
        ``compile()`` holds none of them, and the fixpoint is the naive
        reference evaluator's."""
        compiled = []

        def spy(source, *args, **kwargs):
            compiled.append(source)
            return compile(source, *args, **kwargs)

        planner.join_factory.cache_clear()
        monkeypatch.setattr(planner, "compile", spy, raising=False)
        rules = self._rules()
        program = CompiledProgram(rules)
        for track in (False, True):
            db = self._database()
            Engine(program, track_provenance=track).evaluate(db)
            expected = datalog_reference.evaluate(rules, self._database())
            relations = sorted(set(db.relations()) | set(expected.relations()))
            assert {r: db.facts(r) for r in relations} == {
                r: expected.facts(r) for r in relations
            }
        assert db.count(HOSTILE["reach"]) == 3  # a, b and the constant
        assert db.count(HOSTILE["out"]) == 3  # c, d and e
        sources = compiled + [
            source
            for stratum in program.plans(db.count)
            for plan in stratum
            for variant in plan.variants()
            for source in (variant.source, join_source(variant, traced=True)[2])
        ]
        assert len(compiled) >= 6  # both modes of every variant shape
        for source in sources:
            for text in HOSTILE.values():
                assert text not in source
            for word in ("__import__", "getcwd", "Edge", "Reach", "keep",
                         "pass", "'", '"', "\t"):
                assert word not in source


class TestPlanningErrors:
    def test_wildcard_in_negated_literal_rejected(self):
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", x, Variable("_")), negated=True),
            ],
            check=False,
        )
        with pytest.raises(PlanningError):
            compile_variant(rule)

    def test_engine_construction_surfaces_planning_errors(self):
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", Variable("_")), negated=True),
            ],
            check=False,
        )
        with pytest.raises(PlanningError):
            Engine([rule])

    def test_unbound_filter_variable_rejected(self):
        x, y = var("x y")
        rule = Rule(
            Atom("Out", x),
            [Literal(Atom("In", x)), Filter(lambda v: True, y, name="loose")],
            check=False,
        )
        with pytest.raises(PlanningError):
            compile_variant(rule)

    def test_safety_flags_wildcard_negation(self):
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", x, Variable("_")), negated=True),
            ],
            check=False,
        )
        assert any(
            "wildcard in negated literal" in violation
            for violation in rule.safety_violations()
        )

    def test_safe_rules_still_construct(self):
        Rule(
            Atom("Out", Variable("x")),
            [
                Literal(Atom("In", Variable("x"))),
                Literal(Atom("Seen", Variable("x")), negated=True),
            ],
        )


class TestLintWildcardNegation:
    def test_lint_reports_wildcard_negation_code(self):
        from repro.datalog.lint import ERROR, lint_text

        findings = lint_text("Out(x) :- In(x), !Seen(x, _).")
        codes = {finding.code for finding in findings}
        assert "wildcard-negation" in codes
        assert all(
            finding.severity == ERROR
            for finding in findings
            if finding.code == "wildcard-negation"
        )

    def test_clean_negation_not_flagged(self):
        from repro.datalog.lint import lint_text

        findings = lint_text("Out(x) :- In(x), !Seen(x).")
        assert not any(
            finding.code == "wildcard-negation" for finding in findings
        )


class TestInternedDatabase:
    def test_facts_returns_cached_frozenset(self):
        db = Database()
        db.add("R", ("a", 1))
        first = db.facts("R")
        assert isinstance(first, frozenset)
        assert first is db.facts("R")  # cached until the relation changes
        db.add("R", ("b", 2))
        second = db.facts("R")
        assert second == {("a", 1), ("b", 2)}
        assert first == {("a", 1)}  # old snapshot unaffected

    def test_facts_cannot_corrupt_store(self):
        db = Database()
        db.add("R", ("a",))
        with pytest.raises(AttributeError):
            db.facts("R").add(("b",))  # frozenset has no add

    def test_interning_is_invisible_to_callers(self):
        db = Database()
        db.add("R", ("addr", 7))
        assert db.contains("R", ("addr", 7))
        assert db.facts("R") == {("addr", 7)}
        assert not db.contains("R", ("addr", 8))

    def test_register_index_is_eager_and_incremental(self):
        db = Database()
        db.add("E", ("a", "b"))
        index, built = db.register_index("E", (0,))
        assert built
        _, built_again = db.register_index("E", (0,))
        assert not built_again
        db.add("E", ("a", "z"))  # maintained without a rebuild
        key = (db.intern_value("a"),)
        assert [db.decode(fact) for fact in index[key]] == [
            ("a", "b"), ("a", "z")
        ]

    def test_relation_view_is_live(self):
        db = Database()
        view = db.relation_view("R")
        assert len(view) == 0
        db.add("R", ("a",))
        assert len(view) == 1


def _counters(stats):
    """The counters whose meaning :class:`EngineStats` defines, exactly."""
    return {
        "iterations": stats.iterations,
        "stratum_iterations": stats.stratum_iterations,
        "derived_facts": stats.derived_facts,
        "matches": stats.matches,
        "join_probes": stats.join_probes,
        "index_probes": stats.index_probes,
        "index_hits": stats.index_hits,
        "index_builds": stats.index_builds,
        "delta_index_builds": stats.delta_index_builds,
    }


class TestEngineStats:
    """Exact counter values on two small programs, worked out by hand
    from the definitions in :class:`EngineStats`, so an executor change
    cannot redefine a counter without failing here."""

    def _closure(self):
        rules = [
            parse_rule("Path(x, y) :- Edge(x, y)."),
            parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."),
        ]
        db = Database()
        db.add_all("Edge", [("a", "b"), ("b", "c"), ("c", "d")])
        engine = Engine(rules)
        engine.evaluate(db)
        return engine

    def test_per_rule_derivation_counts(self):
        engine = self._closure()
        stats = engine.stats
        assert stats.evaluations == 1
        assert stats.derived_facts == 6
        assert sum(stats.rule_derivations.values()) == 6
        recursive = repr(parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."))
        assert stats.rule_derivations[recursive] == 3

    def test_compiled_path_probes_indexes(self):
        # Planned with Path empty: the recursive rule's seed variant scans
        # Path, then probes an index on Edge's first column (the one index
        # built; the delta variant reuses it).  Seed round: the base rule
        # scans Edge (1 probe; ab, bc, cd), then the recursive seed scans
        # the 3 paths and probes Edge 3 times (b, c hit; d misses): ac, bd.
        # Round 1 scans the 5-fact delta and probes Edge 5 times (ab, bc,
        # ac hit): ac, bd again plus ad.  Round 2 scans {ad}, one miss.
        stats = self._closure().stats
        assert _counters(stats) == {
            "iterations": 2,
            "stratum_iterations": [2],
            "derived_facts": 6,
            "matches": 3 + 2 + 3,
            "join_probes": 1 + (1 + 3) + (1 + 5) + (1 + 1),
            "index_probes": 3 + 5 + 1,
            "index_hits": 2 + 3 + 0,
            "index_builds": 1,
            "delta_index_builds": 0,
        }

    def test_negation_program_counts_exactly(self):
        rules = [
            parse_rule('Owns("attacker", x) :- Grant(x).'),
            parse_rule(
                'Owns("attacker", y) :- Owns("attacker", x), Edge(x, y).'
            ),
            parse_rule('Safe(x) :- Node(x), !Owns("attacker", x).'),
        ]
        db = Database()
        db.add_all("Edge", [("a", "b"), ("b", "c"), ("x", "y")])
        db.add("Grant", ("a",))
        db.add_all("Node", [(node,) for node in "abcxy"])
        engine = Engine(rules)
        engine.evaluate(db)
        assert db.facts("Safe") == {("x",), ("y",)}
        # Stratum 1 binds indexes on Owns' constant column and on Edge's
        # first column.  Seed round: the base rule scans Grant (owns a);
        # the recursive seed probes Owns("attacker") and Edge(a): owns b.
        # Round 1 builds a delta index on the constant column and probes
        # it once, then Edge twice (b, c): owns c.  Round 2 builds the
        # delta index again over {c}; Edge(c) misses.  Stratum 2 scans
        # Node under the negation guard (x, y survive); its one round has
        # no delta variant to run.
        assert _counters(engine.stats) == {
            "iterations": 2 + 1,
            "stratum_iterations": [2, 1],
            "derived_facts": 3 + 2,
            "matches": 1 + 1 + 2 + 0 + 2,
            "join_probes": 1 + 2 + (1 + 2) + (1 + 1) + 1,
            "index_probes": 2 + 2 + 1,
            "index_hits": 2 + 2 + 0,
            "index_builds": 2,
            "delta_index_builds": 2,
        }

    def test_as_dict_shape(self):
        stats = self._closure().stats.as_dict()
        for key in (
            "evaluations",
            "iterations",
            "stratum_iterations",
            "derived_facts",
            "matches",
            "join_probes",
            "index_probes",
            "index_hits",
            "index_builds",
            "delta_index_builds",
            "rule_derivations",
            "rule_matches",
        ):
            assert key in stats
        for gone in ("batches", "batch_rows", "rule_batches"):
            assert gone not in stats
        assert stats == EngineStats(**{
            key: value for key, value in stats.items()
        }).as_dict()


class TestStatsThreading:
    def test_datalog_engine_result_carries_stats(self):
        from repro.core.bytecode_datalog import analyze_with_datalog
        from repro.corpus import generate_corpus

        contract = generate_corpus(1, seed=11)[0]
        result = analyze_with_datalog(runtime_bytecode=contract.runtime)
        assert result.engine_stats is not None
        assert result.engine_stats["derived_facts"] > 0
        assert result.engine_stats["rule_derivations"]
