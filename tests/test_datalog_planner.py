"""Planner and storage-layer units: join ordering, plan safety errors,
interned storage behavior, and EngineStats observability."""

import pytest

from repro.datalog import (
    Atom,
    Database,
    Engine,
    EngineStats,
    Literal,
    PlanningError,
    Rule,
    Variable,
    parse_rule,
    var,
)
from repro.datalog.planner import compile_rule, compile_variant
from repro.datalog.terms import Filter


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


class TestTemplateCopies:
    def test_copies_carry_every_slot(self):
        """Binding works on copies of cached templates: a slot the copy
        dropped would leave bound plans half-built."""
        plan = compile_rule(
            parse_rule("P(x, z) :- P(x, y), E(y, z), !N(z)."),
            recursive_relations={"P"},
        )
        for variant in plan.variants():
            copy = variant.copy()
            assert copy is not variant
            for name in type(variant).__slots__:
                assert getattr(copy, name) is getattr(variant, name), name
            for step in variant.steps:
                step_copy = step.copy()
                for name in type(step).__slots__:
                    assert getattr(step_copy, name) is getattr(step, name), name
        rebuilt = plan.with_variants(plan.seed, plan.delta_variants)
        assert (rebuilt.rule, rebuilt.key) == (plan.rule, plan.key)


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

    def test_legacy_derive_rejects_wildcard_negation(self):
        """The legacy interpreter errors explicitly instead of dying with a
        bare KeyError from binding[arg]."""
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", Variable("_")), negated=True),
            ],
            check=False,
        )
        engine = Engine([parse_rule("Ok(x) :- In(x).")], use_plans=False)
        db = Database()
        db.add("In", ("a",))
        db.add("Seen", ("a",))
        with pytest.raises(PlanningError):
            engine._derive(db, rule, None, {})

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

    def test_lookup_empty_positions_is_the_cached_snapshot(self):
        db = Database()
        db.add_all("R", [("a",), ("b",)])
        assert db.lookup("R", (), ()) is db.facts("R")

    def test_lookup_unknown_value_is_empty(self):
        db = Database()
        db.add("E", ("a", "b"))
        assert db.lookup("E", (0,), ("never-seen",)) == []

    def test_interning_is_invisible_to_callers(self):
        db = Database()
        db.add("R", ("addr", 7))
        assert db.contains("R", ("addr", 7))
        assert db.facts("R") == {("addr", 7)}
        assert db.lookup("R", (1,), (7,)) == [("addr", 7)]

    def test_register_index_is_eager_and_incremental(self):
        db = Database()
        db.add("E", ("a", "b"))
        index, built = db.register_index("E", (0,))
        assert built
        _, built_again = db.register_index("E", (0,))
        assert not built_again
        db.add("E", ("a", "z"))  # maintained without a rebuild
        assert ("a", "z") in db.lookup("E", (0,), ("a",))

    def test_relation_view_is_live(self):
        db = Database()
        view = db.relation_view("R")
        assert len(view) == 0
        db.add("R", ("a",))
        assert len(view) == 1


class TestEngineStats:
    def _closure(self, use_plans):
        rules = [
            parse_rule("Path(x, y) :- Edge(x, y)."),
            parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."),
        ]
        db = Database()
        db.add_all("Edge", [("a", "b"), ("b", "c"), ("c", "d")])
        engine = Engine(rules, use_plans=use_plans)
        engine.evaluate(db)
        return engine

    def test_per_rule_derivation_counts(self):
        engine = self._closure(use_plans=True)
        stats = engine.stats
        assert stats.evaluations == 1
        assert stats.derived_facts == 6
        assert sum(stats.rule_derivations.values()) == 6
        recursive = repr(parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."))
        assert stats.rule_derivations[recursive] == 3

    def test_legacy_path_counts_too(self):
        engine = self._closure(use_plans=False)
        assert engine.stats.derived_facts == 6
        assert engine.stats.stratum_iterations  # per-stratum rounds recorded

    def test_compiled_path_probes_indexes(self):
        engine = self._closure(use_plans=True)
        stats = engine.stats
        assert stats.index_builds >= 1
        assert stats.index_probes > 0
        assert stats.join_probes >= stats.index_probes

    def test_as_dict_shape(self):
        stats = self._closure(use_plans=True).stats.as_dict()
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

    def test_legacy_config_value_matches_compiled_warnings(self):
        from repro import api
        from repro.core.analysis import AnalysisConfig
        from repro.corpus import generate_corpus

        def rows(result):
            return [
                (w.kind, w.pc, w.statement, w.slot, w.detail)
                for w in result.warnings
            ]

        for contract in generate_corpus(4, seed=11):
            compiled = api.analyze(
                contract.runtime, AnalysisConfig(engine="datalog")
            )
            legacy = api.analyze(
                contract.runtime, AnalysisConfig(engine="datalog-legacy")
            )
            assert rows(compiled) == rows(legacy)
            assert compiled.datalog_stats is not None
            assert legacy.datalog_stats is not None
