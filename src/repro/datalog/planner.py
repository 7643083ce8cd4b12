"""Query planning and compilation for the Datalog engine.

The paper's whole-chain run rests on Soufflé *compiling* Datalog rules to
specialized join code (§5–6); an interpreter that rediscovers bound
positions and allocates closures on every derivation cannot keep up.  This
module performs the equivalent ahead-of-time work for :class:`~repro.datalog.engine.Engine`:

* **Join ordering** — body literals are reordered once per rule by a
  sideways-information-passing (SIP) heuristic: at each step the literal
  with the most bound argument positions wins, ties broken by estimated
  relation size (smaller first) and then by source order.  Filters and
  negated literals are attached as *guards* to the earliest generator that
  binds all of their variables, so they prune as soon as possible.
* **Slot compilation** — rule variables are mapped to dense integer slots;
  at evaluation time a binding is a flat list indexed by slot, not a dict
  keyed by :class:`~repro.datalog.terms.Variable`.
* **Index signatures** — every join step precomputes its bound positions
  and key layout, so the engine registers the needed hash indexes eagerly
  (before the fixpoint starts) instead of building them lazily mid-round.
* **Delta variants** — for each recursive body position, a separate plan
  variant treats that literal as the semi-naive delta: it is preferred
  early in the join order (deltas are small), and when probed it uses a
  per-round delta index, so both sides of a recursive join are indexed.
* **Join code** — each variant becomes Python source with one nested
  ``for`` loop per join step over local variables (:func:`join_source`),
  compiled once per distinct source (:func:`join_factory`).  The source
  holds slot numbers, fact positions and parameter names only; relation
  names, constants, predicates and database references are arguments of
  the compiled factory, so no rule text reaches ``compile()``.

Plans are *compiled* once per ruleset and size-rank signature (the
templates :class:`~repro.datalog.program.CompiledProgram` caches) and
*bound* per evaluation: the engine interns each variant's constants
against the database's symbol table, registers its indexes and calls its
factory, whose closure runs the variant's joins.  A template is never
mutated.  :class:`EngineStats` is the observability record the generated
loops fill.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.datalog.terms import Filter, Literal, Rule, Variable


class PlanningError(ValueError):
    """A rule cannot be compiled into a join plan.

    Raised for rules that would die with an opaque ``KeyError`` in a naive
    interpreter: a wildcard in a negated literal, a negated or filter
    variable no positive literal ever binds, or an unbindable head
    variable.  Safety-checked rules never trigger this; rules built with
    ``check=False`` (the linter's path) can.
    """


@dataclass
class EngineStats:
    """Per-engine observability counters (the ``--profile`` payload).

    Each counter has one meaning, summed over every evaluation the engine
    ran.  A *plan execution* runs one bound plan variant (a rule's seed
    variant, or one of its delta variants) to completion; a *step entry*
    starts one join step's candidate scan for the current environment.

    * ``evaluations`` — :meth:`~repro.datalog.engine.Engine.evaluate`
      calls.
    * ``iterations`` — semi-naive rounds after a stratum's seed round: one
      per round that starts with a non-empty delta, so a stratum whose
      seed round derives anything counts at least one, recursive or not.
      ``stratum_iterations`` lists them per stratum run, in run order.
    * ``derived_facts`` — facts a rule inserted that were not yet present
      (first derivations); ``rule_derivations`` splits them per rule.
    * ``matches`` — head tuples produced by plan executions, duplicates
      and already-known facts included; ``rule_matches`` splits them per
      rule.  ``matches - derived_facts`` is re-derivation overhead.
    * ``join_probes`` — step entries: every candidate fetch, whether an
      index probe, a full-relation scan, a delta scan or a delta-index
      probe.
    * ``index_probes`` — step entries that probe a full relation's hash
      index (a non-delta step with bound positions); ``index_hits`` —
      those that found at least one candidate.
    * ``index_builds`` — hash indexes built on the database while binding
      plan variants (an index that already exists is reused, not counted).
    * ``delta_index_builds`` — per-round indexes built over a delta
      relation, one per (relation, bound positions) per round.
    """

    evaluations: int = 0
    iterations: int = 0
    stratum_iterations: List[int] = field(default_factory=list)
    derived_facts: int = 0
    matches: int = 0
    join_probes: int = 0
    index_probes: int = 0
    index_hits: int = 0
    index_builds: int = 0
    delta_index_builds: int = 0
    rule_derivations: Dict[str, int] = field(default_factory=dict)
    rule_matches: Dict[str, int] = field(default_factory=dict)

    def count_rule(self, rule_key: str, matches: int, derived: int) -> None:
        """Fold one plan execution's per-rule counters in."""
        if matches:
            self.matches += matches
            self.rule_matches[rule_key] = (
                self.rule_matches.get(rule_key, 0) + matches
            )
        if derived:
            self.derived_facts += derived
            self.rule_derivations[rule_key] = (
                self.rule_derivations.get(rule_key, 0) + derived
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (per-rule maps sorted by count, descending)."""
        def ranked(counter: Dict[str, int]) -> Dict[str, int]:
            return dict(
                sorted(counter.items(), key=lambda item: (-item[1], item[0]))
            )

        payload = self.scalar_counters()
        payload["stratum_iterations"] = list(self.stratum_iterations)
        payload["rule_derivations"] = ranked(self.rule_derivations)
        payload["rule_matches"] = ranked(self.rule_matches)
        return payload

    def scalar_counters(self) -> Dict[str, int]:
        """The flat integer counters only (batch summaries, CI artifacts)."""
        return {
            "evaluations": self.evaluations,
            "iterations": self.iterations,
            "derived_facts": self.derived_facts,
            "matches": self.matches,
            "join_probes": self.join_probes,
            "index_probes": self.index_probes,
            "index_hits": self.index_hits,
            "index_builds": self.index_builds,
            "delta_index_builds": self.delta_index_builds,
        }


# ------------------------------------------------------------ plan structure
#
# A *spec* is a tuple of (from_slot, value) pairs: from_slot=True reads the
# environment slot ``value``; from_slot=False is a raw constant.

Spec = Tuple[Tuple[bool, Any], ...]


class JoinStep:
    """One positive body literal, compiled: where its candidates come from
    (full relation or delta, scan or index probe) and how a candidate fact
    extends the environment (``outs``) or is checked against it
    (``checks``)."""

    __slots__ = (
        "relation",
        "delta",
        "positions",
        "key_spec",
        "outs",
        "checks",
        "guards",
        "orig_index",
    )

    def __init__(
        self,
        relation: str,
        delta: bool,
        positions: Tuple[int, ...],
        key_spec: Spec,
        outs: Tuple[Tuple[int, int], ...],
        checks: Tuple[Tuple[int, int], ...],
        orig_index: int,
    ):
        self.relation = relation
        self.delta = delta
        self.positions = positions
        self.key_spec = key_spec
        self.outs = outs
        self.checks = checks
        self.guards: Tuple[Any, ...] = ()
        self.orig_index = orig_index

    def __repr__(self) -> str:
        source = "Δ" if self.delta else ""
        return "<join %s%s key=%r>" % (source, self.relation, self.positions)


class NegGuard:
    """A negated literal, compiled to a full-tuple membership probe."""

    __slots__ = ("relation", "key_spec", "orig_index")

    def __init__(self, relation: str, key_spec: Spec, orig_index: int):
        self.relation = relation
        self.key_spec = key_spec
        self.orig_index = orig_index

    def __repr__(self) -> str:
        return "<neg %s>" % self.relation


class FilterGuard:
    """A Python filter predicate, compiled; slot values are decoded back to
    raw constants before the predicate sees them."""

    __slots__ = ("predicate", "arg_spec", "name", "orig_index")

    def __init__(self, predicate: Callable[..., bool], arg_spec: Spec, name: str, orig_index: int):
        self.predicate = predicate
        self.arg_spec = arg_spec
        self.name = name
        self.orig_index = orig_index

    def __repr__(self) -> str:
        return "<filter %s>" % self.name


class PlanVariant:
    """One executable ordering of a rule's body.

    ``delta_relation`` names the relation the variant's delta step scans
    (None for the seed/naive variant).  ``prelude`` holds guards whose
    variables are bound before any generator runs (constant-only filters
    and negations).  ``factory`` is the variant's generated join function,
    compiled from ``source`` (see :func:`join_source`); ``statics`` and
    ``bindings`` say what to pass it.  Its provenance-tracking twin is
    compiled on first use (:func:`traced_factory`)."""

    __slots__ = (
        "rule",
        "key",
        "delta_position",
        "delta_relation",
        "prelude",
        "steps",
        "head_relation",
        "head_spec",
        "statics",
        "bindings",
        "source",
        "factory",
    )

    def __init__(
        self,
        rule: Rule,
        delta_position: Optional[int],
        prelude: Tuple[Any, ...],
        steps: Tuple[JoinStep, ...],
        head_spec: Spec,
    ):
        self.rule = rule
        self.key: Optional[str] = None  # set by RulePlan (shared repr)
        self.delta_position = delta_position
        self.delta_relation: Optional[str] = None
        if delta_position is not None:
            self.delta_relation = rule.body[delta_position].atom.relation
        self.prelude = prelude
        self.steps = steps
        self.head_relation = rule.head.relation
        self.head_spec = head_spec
        self.statics, self.bindings, source = join_source(self, traced=False)
        # Interned: templates of one shape share one copy of the source.
        self.source = sys.intern(source)
        self.factory = join_factory(self.source)

    def order(self) -> List[str]:
        """Relation names in execution order (tests / debugging)."""
        return [step.relation for step in self.steps]

    def __repr__(self) -> str:
        return "<plan %s :- %s>" % (
            self.head_relation,
            ", ".join(self.order()) or "true",
        )


class RulePlan:
    """All compiled variants of one rule: the seed (all-full) variant plus
    one delta-specialized variant per recursive body position."""

    __slots__ = ("rule", "key", "seed", "delta_variants")

    def __init__(
        self,
        rule: Rule,
        seed: PlanVariant,
        delta_variants: Dict[int, PlanVariant],
    ):
        self.rule = rule
        self.key = repr(rule)
        self.seed = seed
        self.delta_variants = delta_variants
        seed.key = self.key
        for variant in delta_variants.values():
            variant.key = self.key

    def variants(self) -> List[PlanVariant]:
        """Every variant (seed first)."""
        return [self.seed] + list(self.delta_variants.values())

    def __repr__(self) -> str:
        return "<rule-plan %s (%d delta variant(s))>" % (
            self.key,
            len(self.delta_variants),
        )


# ------------------------------------------------------------- join code
#
# A plan variant runs as a generated function: one nested ``for`` loop per
# join step over local variables (``v<slot>`` for slots, ``f<level>`` for
# facts), with failed checks and guards as ``continue``.  The source holds
# slot numbers, fact positions and parameter names only.  Everything taken
# from the rule arrives as a factory parameter: ``s<n>`` for the variant's
# ``statics`` (relation names, filter predicates, raw filter constants and
# delta-index keys, passed as they are) and ``a<n>`` for its ``bindings``,
# which the engine resolves against each database:
#
# * ``(CONST, value)`` — a rule constant, interned into the database;
# * ``(INDEX, (relation, positions))`` — the database's live hash index;
# * ``(RELATION, relation)`` — the database's live fact set.
#
# So no rule text reaches ``compile()``, and variants of one shape share
# one compiled function.  Bindings are listed in the order the engine has
# always interned a variant's constants (prelude guards, then each step's
# key and guards, then the head): symbol ids, and with them the order the
# interned sets iterate in and so the first derivation provenance keeps,
# stay what they were.

CONST, INDEX, RELATION = "const", "index", "relation"

# Join probes between two ticks of the run's deadline (a power of two: the
# generated loops test ``probes & (TICK_PROBES - 1)``).
TICK_PROBES = 4096

# Shapes kept compiled; a template holds its own function, so eviction
# only costs a recompile for the next template of that shape.
JOIN_CACHE_SIZE = 1024


def _tuple_expr(items: List[str]) -> str:
    return "(%s,)" % items[0] if len(items) == 1 else "(%s)" % ", ".join(items)


def join_source(
    variant: "PlanVariant", traced: bool
) -> Tuple[Tuple[Any, ...], Tuple[Tuple[str, Any], ...], str]:
    """``(statics, bindings, source)`` of ``variant``'s join function.

    The source defines ``factory(stats, tick, symbols, s0, ..., a0, ...)``,
    which returns ``run(delta, delta_indexes)``: one execution of the
    variant, returning its head facts in derivation order (with
    ``traced``, ``(head, support)`` pairs, support being ``(body index,
    relation, fact)`` per step).  ``run`` counts its probes, index probes,
    hits and delta-index builds in locals, adds them to ``stats`` once,
    and calls ``tick`` every :data:`TICK_PROBES` join probes.
    """
    statics: List[Any] = []
    bindings: List[Tuple[str, Any]] = []
    # (indent, text) per line of ``run``'s body; ``counters`` maps each
    # local counter used to the EngineStats field it is added to.
    lines: List[Tuple[int, str]] = []
    emit = lines.append
    counters: Dict[str, str] = {}

    def static(value: Any) -> str:
        statics.append(value)
        return "s%d" % (len(statics) - 1)

    def param(kind: str, value: Any) -> str:
        bindings.append((kind, value))
        return "a%d" % (len(bindings) - 1)

    def terms(spec: Spec) -> List[str]:
        return ["v%d" % value if from_slot else param(CONST, value) for from_slot, value in spec]

    def failed(guard: Any) -> str:
        if guard.__class__ is NegGuard:
            key = _tuple_expr(terms(guard.key_spec))
            return "%s in %s" % (key, param(RELATION, guard.relation))
        predicate = static(guard.predicate)
        args = [
            "symbols[v%d]" % value if from_slot else static(value)
            for from_slot, value in guard.arg_spec
        ]
        return "not %s(%s)" % (predicate, ", ".join(args))

    prologue = []
    for guard in variant.prelude:
        emit((0, "if %s:" % failed(guard)))
        emit((1, "return []"))
    emit((0, "out = []"))
    emit((0, "append = out.append"))
    depth = 0
    trail = []
    for level, step in enumerate(variant.steps):
        key = _tuple_expr(terms(step.key_spec))
        name = static(step.relation)
        fact = "f%d" % level
        counters["probes"] = "join_probes"
        emit((depth, "probes += 1"))
        emit((depth, "if not probes & %d:" % (TICK_PROBES - 1)))
        emit((depth + 1, "tick(%d)" % TICK_PROBES))
        if step.delta:
            prologue.append("delta_facts = delta.get(%s, ())" % name)
            if step.positions:
                # Built at the step's first probe in a round, shared by
                # every variant probing this relation on these positions.
                delta_key = static((step.relation, step.positions))
                prologue.append("delta_index = None")
                counters["builds"] = "delta_index_builds"
                index_key = _tuple_expr(["fact[%d]" % p for p in step.positions])
                emit((depth, "if delta_index is None:"))
                emit((depth + 1, "delta_index = delta_indexes.get(%s)" % delta_key))
                emit((depth + 1, "if delta_index is None:"))
                emit((depth + 2, "delta_index = delta_indexes[%s] = {}" % delta_key))
                emit((depth + 2, "for fact in delta_facts:"))
                emit((depth + 3, "index_key = %s" % index_key))
                emit((depth + 3, "bucket = delta_index.get(index_key)"))
                emit((depth + 3, "if bucket is None:"))
                emit((depth + 4, "delta_index[index_key] = [fact]"))
                emit((depth + 3, "else:"))
                emit((depth + 4, "bucket.append(fact)"))
                emit((depth + 2, "builds += 1"))
                emit((depth, "for %s in delta_index.get(%s, ()):" % (fact, key)))
            else:
                emit((depth, "for %s in delta_facts:" % fact))
        elif step.positions:
            index = param(INDEX, (step.relation, step.positions))
            counters["index_probes"] = "index_probes"
            counters["hits"] = "index_hits"
            emit((depth, "index_probes += 1"))
            emit((depth, "bucket%d = %s.get(%s)" % (level, index, key)))
            emit((depth, "if bucket%d is not None:" % level))
            depth += 1
            emit((depth, "hits += 1"))
            emit((depth, "for %s in bucket%d:" % (fact, level)))
        else:
            emit((depth, "for %s in %s:" % (fact, param(RELATION, step.relation))))
        depth += 1
        for position, slot in step.outs:
            emit((depth, "v%d = %s[%d]" % (slot, fact, position)))
        for position, slot in step.checks:
            emit((depth, "if %s[%d] != v%d:" % (fact, position, slot)))
            emit((depth + 1, "continue"))
        for guard in step.guards:
            emit((depth, "if %s:" % failed(guard)))
            emit((depth + 1, "continue"))
        trail.append("(%d, %s, %s)" % (step.orig_index, name, fact))
    head = _tuple_expr(terms(variant.head_spec))
    if traced:
        emit((depth, "append((%s, [%s]))" % (head, ", ".join(trail))))
    else:
        emit((depth, "append(%s)" % head))

    parameters = ["stats", "tick", "symbols"]
    parameters += ["s%d" % n for n in range(len(statics))]
    parameters += ["a%d" % n for n in range(len(bindings))]
    body = [(0, line) for line in prologue]
    if counters:
        body.append((0, "%s = 0" % " = ".join(counters)))
    body += lines
    body += [(0, "stats.%s += %s" % (stat, local)) for local, stat in counters.items()]
    body.append((0, "return out"))
    source = ["def factory(%s):" % ", ".join(parameters), "    def run(delta, delta_indexes):"]
    source += ["        " + "    " * indent + text for indent, text in body]
    source += ["    return run", ""]
    return tuple(statics), tuple(bindings), "\n".join(source)


@lru_cache(maxsize=JOIN_CACHE_SIZE)
def join_factory(source: str) -> Callable[..., Callable]:
    """The compiled ``factory`` of a :func:`join_source` source."""
    namespace: Dict[str, Any] = {}
    exec(compile(source, "<datalog join>", "exec"), namespace)
    return namespace["factory"]


def traced_factory(variant: "PlanVariant") -> Callable[..., Callable]:
    """The compiled factory of ``variant``'s provenance-tracking twin: the
    same arguments, with each head paired with its support."""
    return join_factory(join_source(variant, traced=True)[2])


# -------------------------------------------------------------- compilation


def _guard_variables(item: Any) -> List[Variable]:
    """Non-wildcard variables a guard (filter or negated literal) reads."""
    args = item.atom.args if isinstance(item, Literal) else item.args
    return [
        arg for arg in args if isinstance(arg, Variable) and not arg.is_wildcard
    ]


def _bound_argument_count(literal: Literal, bound: Set[Variable]) -> int:
    """How many of the literal's argument positions are bound (constants
    always are; wildcards never)."""
    count = 0
    for arg in literal.atom.args:
        if isinstance(arg, Variable):
            if not arg.is_wildcard and arg in bound:
                count += 1
        else:
            count += 1
    return count


def _order_body(
    rule: Rule,
    delta_position: Optional[int],
    size_of: Callable[[str], int],
) -> Tuple[List[Tuple[int, Any]], List[Tuple[int, Any]], Dict[int, List[Tuple[int, Any]]]]:
    """Schedule the rule body: returns ``(generators, prelude_guards,
    guards_after)`` where ``generators`` is the ordered list of
    ``(orig_index, Literal)`` positive literals, ``prelude_guards`` the
    guards runnable before any generator, and ``guards_after`` maps a
    generator's orig_index to the guards that become runnable right after
    it."""
    positives: List[Tuple[int, Literal]] = []
    guards: List[Tuple[int, Any]] = []
    for index, item in enumerate(rule.body):
        if isinstance(item, Literal) and not item.negated:
            positives.append((index, item))
        else:
            if isinstance(item, Literal):
                for arg in item.atom.args:
                    if isinstance(arg, Variable) and arg.is_wildcard:
                        raise PlanningError(
                            "wildcard in negated literal %r of rule %r"
                            % (item, rule)
                        )
            guards.append((index, item))

    bound: Set[Variable] = set()
    generators: List[Tuple[int, Literal]] = []
    prelude: List[Tuple[int, Any]] = []
    guards_after: Dict[int, List[Tuple[int, Any]]] = {}

    def flush_guards(after: Optional[int]) -> None:
        nonlocal guards
        still_pending = []
        for entry in guards:
            if all(variable in bound for variable in _guard_variables(entry[1])):
                if after is None:
                    prelude.append(entry)
                else:
                    guards_after.setdefault(after, []).append(entry)
            else:
                still_pending.append(entry)
        guards = still_pending

    def schedule(index: int, literal: Literal) -> None:
        generators.append((index, literal))
        bound.update(literal.atom.variables())
        flush_guards(index)

    flush_guards(None)
    remaining = list(positives)
    if delta_position is not None:
        chosen = next(
            entry for entry in remaining if entry[0] == delta_position
        )
        remaining.remove(chosen)
        # The delta literal still competes in the ordering, but with an
        # effective size of -1 it is preferred at equal bound counts.
        remaining.insert(0, chosen)

    pending = remaining
    while pending:
        best = None
        best_score = None
        for entry in pending:
            index, literal = entry
            size = -1 if index == delta_position else size_of(literal.atom.relation)
            score = (_bound_argument_count(literal, bound), -size, -index)
            if best_score is None or score > best_score:
                best, best_score = entry, score
        pending = [entry for entry in pending if entry is not best]
        schedule(*best)

    if guards:
        index, item = guards[0]
        unbound = [
            variable
            for variable in _guard_variables(item)
            if variable not in bound
        ]
        kind = "negated literal" if isinstance(item, Literal) else "filter"
        raise PlanningError(
            "variable(s) %s of %s %r are never bound by a positive literal "
            "in rule %r" % (unbound, kind, item, rule)
        )
    return generators, prelude, guards_after


def _compile_guard(item: Any, orig_index: int, slot_of: Dict[Variable, int]) -> Any:
    """Compile a filter or negated literal into its guard object."""
    if isinstance(item, Literal):
        key_spec = []
        for arg in item.atom.args:
            if isinstance(arg, Variable):
                key_spec.append((True, slot_of[arg]))
            else:
                key_spec.append((False, arg))
        return NegGuard(item.atom.relation, tuple(key_spec), orig_index)
    arg_spec = []
    for arg in item.args:
        if isinstance(arg, Variable):
            if arg.is_wildcard or arg not in slot_of:
                raise PlanningError(
                    "filter %r reads variable %r that is never bound"
                    % (item, arg)
                )
            arg_spec.append((True, slot_of[arg]))
        else:
            arg_spec.append((False, arg))
    return FilterGuard(item.predicate, tuple(arg_spec), item.name, orig_index)


def compile_variant(
    rule: Rule,
    delta_position: Optional[int] = None,
    size_of: Optional[Callable[[str], int]] = None,
) -> PlanVariant:
    """Compile one ordering of ``rule`` (seed, or delta-specialized on the
    body literal at ``delta_position``), join function included."""
    if size_of is None:
        size_of = lambda relation: 0  # noqa: E731 - trivial default
    return PlanVariant(rule, delta_position, *_plan(rule, delta_position, size_of))


def check_rule(rule: Rule) -> None:
    """Raise :class:`PlanningError` if ``rule`` cannot be planned.  Plans
    its seed ordering only, generating no join code: every error is a
    property of the rule, not of an ordering."""
    _plan(rule, None, lambda relation: 0)


def _plan(
    rule: Rule, delta_position: Optional[int], size_of: Callable[[str], int]
) -> Tuple[Tuple[Any, ...], Tuple[JoinStep, ...], Spec]:
    """``(prelude, steps, head_spec)`` of one ordering of ``rule``."""
    generators, prelude_items, guards_after = _order_body(
        rule, delta_position, size_of
    )

    slot_of: Dict[Variable, int] = {}
    steps: List[JoinStep] = []
    for orig_index, literal in generators:
        positions: List[int] = []
        key_spec: List[Tuple[bool, Any]] = []
        outs: List[Tuple[int, int]] = []
        checks: List[Tuple[int, int]] = []
        new_here: Set[Variable] = set()
        for position, arg in enumerate(literal.atom.args):
            if isinstance(arg, Variable):
                if arg.is_wildcard:
                    continue
                slot = slot_of.get(arg)
                if slot is None:
                    slot = slot_of[arg] = len(slot_of)
                    new_here.add(arg)
                    outs.append((position, slot))
                elif arg in new_here:
                    # Repeated occurrence bound earlier in this same
                    # literal: compare, don't probe.
                    checks.append((position, slot))
                else:
                    positions.append(position)
                    key_spec.append((True, slot))
            else:
                positions.append(position)
                key_spec.append((False, arg))
        step = JoinStep(
            relation=literal.atom.relation,
            delta=orig_index == delta_position,
            positions=tuple(positions),
            key_spec=tuple(key_spec),
            outs=tuple(outs),
            checks=tuple(checks),
            orig_index=orig_index,
        )
        step.guards = tuple(
            _compile_guard(item, guard_index, slot_of)
            for guard_index, item in guards_after.get(orig_index, ())
        )
        steps.append(step)

    prelude = tuple(
        _compile_guard(item, guard_index, slot_of)
        for guard_index, item in prelude_items
    )

    head_spec: List[Tuple[bool, Any]] = []
    for arg in rule.head.args:
        if isinstance(arg, Variable):
            if arg.is_wildcard:
                raise PlanningError("wildcard in rule head: %r" % rule)
            slot = slot_of.get(arg)
            if slot is None:
                raise PlanningError(
                    "head variable %r of rule %r is never bound" % (arg, rule)
                )
            head_spec.append((True, slot))
        else:
            head_spec.append((False, arg))

    return prelude, tuple(steps), tuple(head_spec)


def compile_rule(
    rule: Rule,
    recursive_relations: Optional[Set[str]] = None,
    size_of: Optional[Callable[[str], int]] = None,
) -> RulePlan:
    """Compile ``rule`` into its seed variant plus one delta variant per
    body literal whose relation is in ``recursive_relations`` (the heads of
    the rule's stratum)."""
    recursive_relations = recursive_relations or set()
    seed = compile_variant(rule, None, size_of)
    delta_variants: Dict[int, PlanVariant] = {}
    for position, item in enumerate(rule.body):
        if (
            isinstance(item, Literal)
            and not item.negated
            and item.atom.relation in recursive_relations
        ):
            delta_variants[position] = compile_variant(rule, position, size_of)
    return RulePlan(rule, seed, delta_variants)
