"""Datalog program linter: seeded-defect detection with line anchoring,
clean shipped rules, and the stratification preview."""

import pytest

from repro.datalog import DatalogSyntaxError, parse_program, parse_program_lenient
from repro.datalog.lint import (
    LintFinding,
    format_findings,
    has_errors,
    lint_cross_program,
    lint_shipped,
    lint_text,
    register_program,
    shipped_programs,
    stratification_preview,
    unregister_program,
)


def codes(findings):
    return [finding.code for finding in findings]


class TestSeededDefects:
    def test_unbound_head_variable(self):
        findings = lint_text("Bad(x, q) :- Edge(x, y).", source="t")
        assert codes(findings) == ["unsafe-rule"]
        assert findings[0].severity == "error"
        assert findings[0].line == 1
        assert "q" in findings[0].message

    def test_negation_unbound_variable(self):
        findings = lint_text("Safe(x) :- Node(x), !Edge(x, z).", source="t")
        assert codes(findings) == ["unsafe-rule"]

    def test_arity_mismatch_against_decl(self):
        text = ".decl Edge(a, b)\n\nPath(x) :- Edge(x, y, z)."
        findings = lint_text(text, source="t")
        assert "arity-mismatch" in codes(findings)
        finding = next(f for f in findings if f.code == "arity-mismatch")
        assert finding.line == 3
        assert "declared" in finding.message and "line 1" in finding.message

    def test_arity_mismatch_against_prior_use(self):
        text = "Path(x) :- Edge(x, y).\nPath(x) :- Edge(x)."
        findings = lint_text(text, source="t")
        finding = next(f for f in findings if f.code == "arity-mismatch")
        assert finding.line == 2
        assert "used" in finding.message

    def test_negation_in_recursive_component(self):
        text = "Odd(x) :- Edge(x, y), !Even(y).\nEven(x) :- Edge(x, y), !Odd(y)."
        findings = lint_text(text, source="t")
        recursion = [f for f in findings if f.code == "negation-in-recursion"]
        assert len(recursion) == 2
        assert {f.line for f in recursion} == {1, 2}
        assert {f.severity for f in recursion} == {"error"}

    def test_direct_negative_self_recursion(self):
        findings = lint_text("P(x) :- Q(x), !P(x).", source="t")
        assert "negation-in-recursion" in codes(findings)

    def test_wildcard_in_head(self):
        findings = lint_text("Out(_) :- In(x).", source="t")
        assert "wildcard-head" in codes(findings)

    def test_duplicate_declaration(self):
        text = ".decl Edge(a, b)\n.decl Edge(a, b)"
        findings = lint_text(text, source="t")
        duplicate = [f for f in findings if f.code == "duplicate-decl"]
        assert len(duplicate) == 1
        assert duplicate[0].severity == "warning"
        assert duplicate[0].line == 2

    def test_duplicate_rule(self):
        text = "P(x) :- Q(x).\nP(x) :- Q(x)."
        findings = lint_text(text, source="t")
        duplicate = [f for f in findings if f.code == "duplicate-rule"]
        assert len(duplicate) == 1
        assert duplicate[0].line == 2
        assert "line 1" in duplicate[0].message

    def test_unused_declared_relation(self):
        text = ".decl Ghost(a)\nP(x) :- Q(x)."
        findings = lint_text(text, source="t")
        unused = [f for f in findings if f.code == "unused-relation"]
        assert len(unused) == 1
        assert unused[0].line == 1
        assert "Ghost" in unused[0].message

    def test_syntax_error_becomes_finding(self):
        findings = lint_text("P(x :- Q(x).", source="t")
        assert codes(findings) == ["syntax-error"]
        assert findings[0].severity == "error"
        assert findings[0].line >= 1

    def test_clean_program_has_no_findings(self):
        text = """
.decl Edge(a, b)
Path(x, y) :- Edge(x, y).
Path(x, z) :- Path(x, y), Edge(y, z).
Safe(x) :- Edge(x, _), !Path(x, x).
"""
        assert lint_text(text, source="t") == []


class TestStrictParser:
    def test_arity_mismatch_raises_with_line(self):
        with pytest.raises(DatalogSyntaxError) as excinfo:
            parse_program(".decl Edge(a, b)\nP(x) :- Edge(x, y, z).")
        assert excinfo.value.line == 2
        assert "arity" in str(excinfo.value)

    def test_mismatch_against_prior_use_raises(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program("P(x) :- Edge(x, y).\nQ(x) :- Edge(x).")

    def test_lenient_collects_instead_of_raising(self):
        program = parse_program_lenient(
            ".decl Edge(a, b)\nP(x) :- Edge(x, y, z).\nBad(x, q) :- Edge(x, y)."
        )
        assert sorted(issue.code for issue in program.issues) == [
            "arity-mismatch",
            "unsafe-rule",
        ]
        # The unsafe rule is still materialized for inspection.
        assert len(program.rules) == 2


class TestRendering:
    def test_render_shape(self):
        finding = LintFinding(
            source="rules.dl", line=3, code="unsafe-rule",
            severity="error", message="boom",
        )
        assert finding.render() == "rules.dl:3: [error] unsafe-rule: boom"

    def test_format_and_has_errors(self):
        findings = lint_text("Bad(x, q) :- Edge(x, y).", source="t")
        assert has_errors(findings)
        assert "unsafe-rule" in format_findings(findings)
        assert not has_errors([])


class TestShippedRules:
    def test_shipped_rules_are_clean(self):
        assert lint_shipped() == []

    def test_shipped_programs_cover_both_modules(self):
        names = [name for name, _ in shipped_programs()]
        assert any("datalog_rules" in name for name in names)
        assert any("bytecode_datalog" in name for name in names)
        assert any("linkage" in name for name in names)


class TestCrossProgramChecks:
    def test_cross_arity_mismatch_flags_every_declaration(self):
        findings = lint_cross_program(
            [
                ("a.dl", ".decl Edge(x, y)\nPath(x, y) :- Edge(x, y)."),
                ("b.dl", ".decl Edge(x, y, w)\nPath(x, y) :- Edge(x, y, w)."),
            ]
        )
        mismatches = [f for f in findings if f.code == "cross-arity-mismatch"]
        assert len(mismatches) == 2  # one anchored in each program
        assert {f.source for f in mismatches} == {"a.dl", "b.dl"}
        assert all(f.severity == "error" for f in mismatches)
        assert has_errors(findings)

    def test_consistent_arities_across_programs_are_clean(self):
        findings = lint_cross_program(
            [
                ("a.dl", ".decl Edge(x, y)\nPath(x, y) :- Edge(x, y)."),
                ("b.dl", ".decl Edge(x, y)\nLoop(x) :- Edge(x, x)."),
            ]
        )
        assert [f for f in findings if f.code == "cross-arity-mismatch"] == []

    def test_unread_edb_is_a_warning(self):
        findings = lint_cross_program(
            [("a.dl", ".decl Orphan(x)\nPath(x, y) :- Edge(x, y).")]
        )
        assert codes(findings) == ["unread-edb"]
        assert findings[0].severity == "warning"
        assert "Orphan" in findings[0].message

    def test_relation_read_in_another_program_is_not_unread(self):
        findings = lint_cross_program(
            [
                ("a.dl", ".decl Seed(x)"),
                ("b.dl", "Out(x) :- Seed(x)."),
            ]
        )
        assert [f for f in findings if f.code == "unread-edb"] == []

    def test_syntax_error_programs_are_skipped(self):
        findings = lint_cross_program(
            [("bad.dl", "This is not Datalog ::-")]
        )
        assert findings == []

    def test_shipped_cross_checks_run_in_lint_shipped(self):
        register_program("test:cross", ".decl Phantom(a, b)")
        try:
            found = lint_shipped()
            assert any(
                f.code == "unread-edb" and "Phantom" in f.message
                for f in found
            )
        finally:
            unregister_program("test:cross")
        assert lint_shipped() == []


class TestFindingCountInvalidation:
    def test_register_program_invalidates_cached_count(self):
        baseline = len(lint_shipped())
        # A registered program with a lint finding must show up in the
        # very next lint, and vanish once unregistered.
        register_program("test:stale", "Bad(x, q) :- Edge(x, y).")
        try:
            assert len(lint_shipped()) > baseline
        finally:
            unregister_program("test:stale")
        assert len(lint_shipped()) == baseline

    def test_unregister_missing_program_is_noop(self):
        before = len(lint_shipped())
        unregister_program("test:never-registered")
        assert len(lint_shipped()) == before


class TestStratificationPreview:
    def test_strata_ordering(self):
        program = parse_program_lenient(
            "Path(x, y) :- Edge(x, y).\n"
            "Path(x, z) :- Path(x, y), Edge(y, z).\n"
            "Unreached(x) :- Node(x), !Path(root, x)."
        )
        strata = stratification_preview(program.rules)
        flat = {rel: level for level, group in enumerate(strata) for rel in group}
        assert flat["Path"] > flat["Edge"]
        assert flat["Unreached"] > flat["Path"]

    def test_recursive_component_is_one_stratum(self):
        program = parse_program_lenient(
            "Odd(x) :- Succ(y, x), Even(y).\n"
            "Even(x) :- Succ(y, x), Odd(y).\n"
            "Even(x) :- Zero(x)."
        )
        strata = stratification_preview(program.rules)
        together = [group for group in strata if "Odd" in group]
        assert together and "Even" in together[0]


class TestAnalysisPath:
    def test_analysis_never_loads_the_linter(self):
        """Linting is a build check (``repro lint-rules``), not part of an
        analysis: a fresh process analyzes on both engines without
        importing the linter or linting the shipped programs."""
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro import api\n"
            "from repro.corpus import generate_corpus\n"
            "code = generate_corpus(1, seed=7)[0].runtime\n"
            "for engine in ('python', 'datalog'):\n"
            "    result = api.analyze(code, api.AnalysisConfig(engine=engine))\n"
            "    assert 'lint_findings' not in result.precision.as_dict()\n"
            "print('repro.datalog.lint' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert output.strip() == "False"
