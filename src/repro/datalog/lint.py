"""Static linter for Datalog rule programs.

The paper's analysis is "several hundred declarative rules"; a typo in one
of them (an unbound head variable, an arity mismatch, negation through
recursion) silently changes the analysis semantics — if it surfaces at all,
it surfaces at evaluation time, after contracts have already been
"analyzed".  This module checks rule programs *statically*:

* **range restriction** — every head variable bound in a positive body
  literal, and no wildcard in a rule head (``substitute`` would die),
* **negation safety** — every variable of a negated literal bound
  positively, and no wildcard under negation (the engine's membership
  probe cannot execute it; reported as ``wildcard-negation``),
* **arity consistency** — every atom's arity agrees with the relation's
  ``.decl`` (or, for undeclared relations, its first use),
* **duplicate / unused relations** — re-declared relations, declared
  relations that appear in no rule, and literally duplicated rules,
* **stratification preview** — the strata the engine would evaluate,
  reusing the stratifier's SCC machinery; negation inside a recursive
  component is reported per offending rule instead of one opaque
  exception.

``repro lint-rules`` runs this over the shipped rule programs
(:mod:`repro.core.datalog_rules`, and every per-contract and merged
ruleset :mod:`repro.core.bytecode_datalog` and :mod:`repro.core.linkage`
can build) and over ``.dl`` files; CI runs the shipped check on every
push.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.datalog.program import (
    condensation_levels,
    rule_dependency_graph,
    strongly_connected_components,
)
from repro.datalog.parser import (
    DatalogSyntaxError,
    ParsedProgram,
    parse_program_lenient,
)
from repro.datalog.terms import Literal, Rule, Variable

ERROR = "error"
WARNING = "warning"

# Codes that make ``repro lint-rules`` exit non-zero.
_ERROR_CODES = {
    "syntax-error",
    "arity-mismatch",
    "unsafe-rule",
    "wildcard-head",
    "wildcard-negation",
    "negation-in-recursion",
    "cross-arity-mismatch",
}


@dataclass(frozen=True)
class LintFinding:
    """One diagnostic, anchored to a source name and 1-based line."""

    source: str
    line: int
    code: str
    severity: str  # ERROR | WARNING
    message: str

    def render(self) -> str:
        return "%s:%d: [%s] %s: %s" % (
            self.source,
            self.line,
            self.severity,
            self.code,
            self.message,
        )


def format_findings(findings: Sequence[LintFinding]) -> str:
    """One rendered diagnostic per line."""
    return "\n".join(finding.render() for finding in findings)


def has_errors(findings: Sequence[LintFinding]) -> bool:
    """Whether any finding is error severity (non-zero exit for the CLI)."""
    return any(finding.severity == ERROR for finding in findings)


# ------------------------------------------------------------------- checks


def _check_rules(
    rules: Sequence[Rule], program: ParsedProgram, source: str
) -> List[LintFinding]:
    findings: List[LintFinding] = []

    # Wildcards in rule heads crash substitution at evaluation time.
    for rule in rules:
        for arg in rule.head.args:
            if isinstance(arg, Variable) and arg.is_wildcard:
                findings.append(
                    LintFinding(
                        source=source,
                        line=rule.line,
                        code="wildcard-head",
                        severity=ERROR,
                        message="wildcard in rule head: %r" % rule,
                    )
                )
                break

    # Duplicate rules: same head and body, stated twice.
    seen: Dict[str, int] = {}
    for rule in rules:
        rendering = repr(rule)
        if rendering in seen:
            findings.append(
                LintFinding(
                    source=source,
                    line=rule.line,
                    code="duplicate-rule",
                    severity=WARNING,
                    message="rule already stated at line %d: %r"
                    % (seen[rendering], rule),
                )
            )
        else:
            seen[rendering] = rule.line

    # Declared-but-unused relations.
    used: Set[str] = set()
    for rule in rules:
        used.add(rule.head.relation)
        for item in rule.body:
            if isinstance(item, Literal):
                used.add(item.atom.relation)
    for name, arity in sorted(program.declarations.items()):
        if name not in used:
            findings.append(
                LintFinding(
                    source=source,
                    line=program.declaration_lines.get(name, 0),
                    code="unused-relation",
                    severity=WARNING,
                    message="relation %s/%d is declared but never used"
                    % (name, arity),
                )
            )

    # Stratifiability: negation inside a recursive component, reported per
    # offending rule with its line (the engine machinery, but diagnostic).
    relations, edges = rule_dependency_graph(rules)
    successors: Dict[str, Set[str]] = {rel: set() for rel in relations}
    for edge_source, edge_target, _ in edges:
        successors[edge_source].add(edge_target)
    _, component_of = strongly_connected_components(relations, successors)
    for rule in rules:
        head_component = component_of.get(rule.head.relation)
        for item in rule.body:
            if not (isinstance(item, Literal) and item.negated):
                continue
            negated_component = component_of.get(item.atom.relation)
            if negated_component == head_component:
                findings.append(
                    LintFinding(
                        source=source,
                        line=rule.line,
                        code="negation-in-recursion",
                        severity=ERROR,
                        message="negation of %s is recursive with %s in %r"
                        % (item.atom.relation, rule.head.relation, rule),
                    )
                )
    return findings


def stratification_preview(rules: Sequence[Rule]) -> List[List[str]]:
    """The strata (groups of relations) the engine would evaluate, in
    order.  Computable even for non-stratifiable programs (the offending
    component simply appears as one stratum)."""
    relations, edges = rule_dependency_graph(rules)
    successors: Dict[str, Set[str]] = {rel: set() for rel in relations}
    for source, target, _ in edges:
        successors[source].add(target)
    components, component_of = strongly_connected_components(relations, successors)
    level = condensation_levels(components, component_of, edges)
    max_level = max(level.values(), default=0)
    strata: List[List[str]] = [[] for _ in range(max_level + 1)]
    for position, component in enumerate(components):
        strata[level.get(position, 0)].extend(sorted(component))
    return [sorted(stratum) for stratum in strata if stratum]


def lint_text(text: str, source: str = "<datalog>") -> List[LintFinding]:
    """Lint one textual Datalog program."""
    try:
        program = parse_program_lenient(text)
    except DatalogSyntaxError as error:
        return [_syntax_finding(error, source)]
    return _lint_program(program, source)


def _syntax_finding(error: DatalogSyntaxError, source: str) -> LintFinding:
    return LintFinding(
        source=source,
        line=getattr(error, "line", 0),
        code="syntax-error",
        severity=ERROR,
        message=str(error),
    )


def _lint_program(program: ParsedProgram, source: str) -> List[LintFinding]:
    findings = []
    for issue in program.issues:
        code = issue.code
        # Wildcards under negation surface from rule safety as generic
        # unsafe-rule violations; give them their own code so the engine's
        # PlanningError has a matching static diagnostic.
        if code == "unsafe-rule" and "wildcard in negated literal" in issue.message:
            code = "wildcard-negation"
        findings.append(
            LintFinding(
                source=source,
                line=issue.line,
                code=code,
                severity=ERROR if code in _ERROR_CODES else WARNING,
                message=issue.message,
            )
        )
    findings.extend(_check_rules(program.rules, program, source))
    findings.sort(key=lambda finding: (finding.line, finding.code))
    return findings


# ----------------------------------------------------- cross-program checks


def lint_cross_program(
    programs: Sequence[Tuple[str, str]],
) -> List[LintFinding]:
    """Checks that only make sense *across* a set of rule programs.

    With the cross-contract strata, one relation (``TaintedStorage``,
    ``CompromisedGuard``, ...) is now defined in one program text and
    extended in another; two whole-set invariants keep that composition
    honest:

    * **cross-arity-mismatch** (error) — a relation ``.decl``ared with
      different arities in different programs: the texts can never be
      concatenated and evaluated together, and a fact emitted under one
      program's shape silently never joins under the other's.
    * **unread-edb** (warning) — a relation ``.decl``ared somewhere but
      read by *no* rule in *any* program: an input relation the Python
      side dutifully computes and loads that no rule will ever consume
      (or a declaration left behind by a deleted rule).

    Programs that fail to parse are skipped here — :func:`lint_text`
    already reports their syntax errors.
    """

    def parsed() -> Iterator[Tuple[str, ParsedProgram]]:
        for source, text in programs:
            try:
                yield source, parse_program_lenient(text)
            except DatalogSyntaxError:
                continue

    return _cross_program_findings(parsed())


def _cross_program_findings(
    programs: Iterable[Tuple[str, ParsedProgram]],
) -> List[LintFinding]:
    """The cross-program checks over ``(source, parsed program)`` pairs,
    read once and keeping only each program's declarations and relation
    names."""
    findings: List[LintFinding] = []
    # relation -> list of (source, line, arity) declarations
    declarations: Dict[str, List[Tuple[str, int, int]]] = {}
    heads: Set[str] = set()
    reads: Set[str] = set()
    for source, program in programs:
        for name, arity in program.declarations.items():
            declarations.setdefault(name, []).append(
                (source, program.declaration_lines.get(name, 0), arity)
            )
        for rule in program.rules:
            heads.add(rule.head.relation)
            for item in rule.body:
                if isinstance(item, Literal):
                    reads.add(item.atom.relation)

    for name, decls in sorted(declarations.items()):
        arities = sorted({arity for _, _, arity in decls})
        if len(arities) > 1:
            shapes = ", ".join(
                "%s:%d declares /%d" % (source, line, arity)
                for source, line, arity in decls
            )
            for source, line, _ in decls:
                findings.append(
                    LintFinding(
                        source=source,
                        line=line,
                        code="cross-arity-mismatch",
                        severity=ERROR,
                        message="relation %s declared with conflicting "
                        "arities across programs (%s)" % (name, shapes),
                    )
                )
        if name not in reads:
            # Declared relations are EDB-or-IDB inputs by intent; one no
            # rule reads is dead weight even if some rule *derives* it.
            for source, line, arity in decls:
                findings.append(
                    LintFinding(
                        source=source,
                        line=line,
                        code="unread-edb",
                        severity=WARNING,
                        message="relation %s/%d is declared but no rule "
                        "in any shipped program reads it" % (name, arity),
                    )
                )
    findings.sort(key=lambda finding: (finding.source, finding.line, finding.code))
    return findings


# ------------------------------------------------------------ shipped rules

# Extra programs registered at runtime (tests, experiments, plugged-in rule
# sets).  Ordered so shipped_programs() output stays deterministic.
_REGISTERED_PROGRAMS: Dict[str, str] = {}


def register_program(name: str, text: str) -> None:
    """Add a rule program to the shipped set."""
    _REGISTERED_PROGRAMS[name] = text


def unregister_program(name: str) -> None:
    """Remove a registered rule program (no-op if absent)."""
    _REGISTERED_PROGRAMS.pop(name, None)


def shipped_programs() -> List[Tuple[str, str]]:
    """(name, text) of every rule program this build actually evaluates:
    the §4 model's rules, then every per-contract and every merged
    bytecode ruleset the analysis flags can select, each named after the
    rule texts it concatenates."""
    from repro.core.bytecode_datalog import RULESET_KEYS, ruleset_fragments
    from repro.core.datalog_rules import ETHAINTER_RULES
    from repro.core.linkage import merged_fragments

    programs = [("core/datalog_rules.py:ETHAINTER_RULES", ETHAINTER_RULES)]
    for module, fragments_of in (
        ("core/bytecode_datalog.py", ruleset_fragments),
        ("core/linkage.py", merged_fragments),
    ):
        for key in RULESET_KEYS:
            fragments = fragments_of(key)
            programs.append(
                (
                    "%s:%s" % (module, "+".join(name for name, _ in fragments)),
                    "".join(text for _, text in fragments),
                )
            )
    programs.extend(_REGISTERED_PROGRAMS.items())
    return programs


def lint_shipped() -> List[LintFinding]:
    """Lint every shipped rule program, plus the cross-program checks."""
    findings: List[LintFinding] = []

    # One parse per program, shared by both passes and dropped as soon as
    # both have read it: parsing is most of the cost.
    def parsed() -> Iterator[Tuple[str, ParsedProgram]]:
        for name, text in shipped_programs():
            try:
                program = parse_program_lenient(text)
            except DatalogSyntaxError as error:
                findings.append(_syntax_finding(error, name))
                continue
            findings.extend(_lint_program(program, name))
            yield name, program

    cross = _cross_program_findings(parsed())
    return findings + cross
