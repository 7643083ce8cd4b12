"""Semi-naive, stratified Datalog evaluation over compiled join plans.

Evaluation pipeline:

1. **Compilation, once per ruleset** — a
   :class:`~repro.datalog.program.CompiledProgram` stratifies the rules
   (negation through recursion is a
   :class:`~repro.datalog.program.StratificationError`) and
   caches join-plan templates (see :mod:`repro.datalog.planner`): body
   literals reordered by a sideways-information-passing heuristic,
   per-literal index signatures precomputed, and one delta-specialized
   variant per recursive body position, each with a generated join
   function.  Templates are keyed by the ranks of the relation sizes the
   heuristic compares, so every database whose sizes rank alike shares
   one compiled plan.
2. **Binding, once per evaluation** — just before a stratum runs, each
   variant's join factory is called with the database's interned
   constants, live relation sets and eagerly registered indexes; the
   closure it returns runs the variant's nested join loops.  Templates
   are never mutated, so one program serves any number of engines and
   threads.
3. **Semi-naive iteration** — within a recursive SCC, each round runs the
   delta variants whose delta relation gained facts in the previous round,
   probing per-round delta indexes so both sides of a recursive join are
   indexed.

The database interns every constant into a dense symbol table, so stored
tuples are int-only: hashing, equality, and index keys never touch the
original (possibly string) values.  Every fixpoint is computed from
scratch by :meth:`Engine.evaluate`, as the paper's per-contract Soufflé
runs are; the test suite checks its fixpoints against a naive reference
evaluator.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.datalog.planner import (
    CONST,
    INDEX,
    EngineStats,
    PlanVariant,
    RulePlan,
    traced_factory,
)
from repro.datalog.program import CompiledProgram
from repro.datalog.terms import Rule
from repro.deadline import Deadline


def _key_getter(positions: Tuple[int, ...]) -> Callable[[Tuple], Tuple]:
    """A C-level function from a fact to its values at ``positions``, as a
    tuple (a slice when the positions are contiguous)."""
    first, last = positions[0], positions[-1]
    if positions == tuple(range(first, last + 1)):
        return itemgetter(slice(first, last + 1))
    return itemgetter(*positions)


class Database:
    """Interned fact storage with eagerly maintainable hash indexes.

    Every constant is interned into a dense symbol table on first sight, so
    relations store tuples of small ints: hashing, equality, and index keys
    are int-only no matter how large the original values are.  The public
    API (``add``/``facts``/``contains``) still speaks raw
    values — interning is invisible to callers.

    Indexes live per relation (``_indexes[relation][positions]``) so an
    insert only maintains the inserted relation's indexes; they are
    registered eagerly by compiled join plans (:meth:`register_index`) and
    updated incrementally by every subsequent insert.
    """

    def __init__(self) -> None:
        self._intern: Dict[Any, int] = {}
        self._symbols: List[Any] = []
        # relation -> set of interned tuples
        self._relations: Dict[str, Set[Tuple[int, ...]]] = {}
        # relation -> {bound positions: (key getter, {interned key:
        # [interned facts]})} — nested by relation so inserts only touch
        # the inserted relation's indexes.
        self._indexes: Dict[str, Dict[Tuple[int, ...], Tuple[Callable, Dict]]] = {}
        # relation -> cached frozenset of decoded facts (facts() result),
        # invalidated on insert.
        self._decoded: Dict[str, frozenset] = {}

    # ---------------------------------------------------------- interning

    def intern_value(self, value: Any) -> int:
        """Dense id for ``value``, allocating one on first sight."""
        ident = self._intern.get(value)
        if ident is None:
            ident = len(self._symbols)
            self._intern[value] = ident
            self._symbols.append(value)
        return ident

    def decode(self, fact: Tuple[int, ...]) -> Tuple:
        """Raw-value tuple for an interned fact."""
        symbols = self._symbols
        return tuple(symbols[ident] for ident in fact)

    # ------------------------------------------------------------ mutation

    def add(self, relation: str, fact: Iterable) -> bool:
        """Insert one fact (raw values); returns True if it was new."""
        return self.add_all(relation, (fact,)) == 1

    def add_all(self, relation: str, facts: Iterable[Iterable]) -> int:
        """Insert many facts (raw values); returns how many were new."""
        intern = self._intern
        symbols = self._symbols
        interned: List[Tuple[int, ...]] = []
        for fact in facts:
            row: List[int] = []
            for value in fact:
                ident = intern.get(value)
                if ident is None:
                    ident = len(symbols)
                    intern[value] = ident
                    symbols.append(value)
                row.append(ident)
            interned.append(tuple(row))
        return len(self._insert(relation, interned))

    def _insert(self, relation: str, facts: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
        """Insert already-interned facts; returns the new ones, in order."""
        rel = self.relation_view(relation)
        indexes = self._indexes.get(relation)
        maintained = list(indexes.values()) if indexes else ()
        new = []
        for fact in facts:
            if fact in rel:
                continue
            rel.add(fact)
            new.append(fact)
            for key_of, index in maintained:
                key = key_of(fact)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [fact]
                else:
                    bucket.append(fact)
        if new:
            self._decoded.pop(relation, None)
        return new

    # -------------------------------------------------------------- reads

    def facts(self, relation: str) -> frozenset:
        """Immutable snapshot of ``relation``'s facts (raw values).

        The frozenset is cached until the relation next changes, so
        repeated reads of a settled relation are free and callers can no
        longer corrupt the store by mutating the result.
        """
        cached = self._decoded.get(relation)
        if cached is None:
            symbols = self._symbols
            cached = frozenset(
                tuple(symbols[ident] for ident in fact)
                for fact in self._relations.get(relation, ())
            )
            self._decoded[relation] = cached
        return cached

    def relations(self) -> List[str]:
        """Names of all non-empty relations."""
        return [name for name, rel in self._relations.items() if rel]

    def contains(self, relation: str, fact: Iterable) -> bool:
        """Membership test for one fact (raw values)."""
        intern = self._intern
        interned: List[int] = []
        for value in fact:
            ident = intern.get(value)
            if ident is None:
                return False
            interned.append(ident)
        return tuple(interned) in self._relations.get(relation, ())

    def count(self, relation: str) -> int:
        """Number of facts in ``relation``."""
        return len(self._relations.get(relation, ()))

    # ----------------------------------------------------- engine plumbing

    def register_index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Tuple[Dict[Tuple, List[Tuple]], bool]:
        """Ensure a hash index on ``positions`` exists (compiled plans call
        this eagerly at bind time, before the fixpoint starts).

        Returns ``(index, built)`` where ``built`` says whether this call
        created it; the returned dict is live — inserts keep it fresh.
        """
        relation_indexes = self._indexes.setdefault(relation, {})
        entry = relation_indexes.get(positions)
        if entry is not None:
            return entry[1], False
        key_of = _key_getter(positions)
        index: Dict[Tuple, List[Tuple]] = {}
        for fact in self.relation_view(relation):
            key = key_of(fact)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [fact]
            else:
                bucket.append(fact)
        relation_indexes[positions] = (key_of, index)
        return index, True

    def relation_view(self, relation: str) -> Set[Tuple[int, ...]]:
        """The live *interned* fact set of ``relation``, created on demand
        so bind-time captured references stay valid as facts arrive."""
        rel = self._relations.get(relation)
        if rel is None:
            rel = self._relations[relation] = set()
        return rel


class Engine:
    """Evaluates a rule program over a database to fixpoint.

    ``rules`` is a :class:`~repro.datalog.program.CompiledProgram` or a
    plain rule sequence, for which the engine builds a private program.
    Callers that evaluate one ruleset many times share one program, so
    parsing, stratification and join planning happen once per ruleset
    (and size-rank signature), not once per evaluation.  Each
    :meth:`evaluate` binds the join functions of the program's plan
    templates to its database.  ``stats`` accumulates :class:`EngineStats`
    counters across evaluations.

    With ``track_provenance=True`` the engine records, for each derived
    fact, the rule and body facts of its *first* derivation; ``explain``
    then renders the derivation tree down to the EDB — the "why" behind an
    analysis warning.
    """

    def __init__(
        self,
        rules: Union[CompiledProgram, Sequence[Rule]],
        track_provenance: bool = False,
    ):
        if not isinstance(rules, CompiledProgram):
            rules = CompiledProgram(rules)
        self.program = rules
        self.rules = rules.rules
        self.strata = rules.strata
        self.track_provenance = track_provenance
        self.stats = EngineStats()
        # (relation, fact) -> (rule, [(relation, fact), ...]) of 1st proof.
        self.provenance: Dict[Tuple[str, Tuple], Tuple[Rule, List[Tuple[str, Tuple]]]] = {}

    # ------------------------------------------------------------ evaluation

    def evaluate(
        self,
        database: Database,
        max_iterations: int = 1_000_000,
        deadline: Optional[Deadline] = None,
    ) -> Database:
        """Run all strata to fixpoint, mutating and returning ``database``.

        ``deadline`` (the run's budget) is checked before each rule is
        bound, before each rule's seed round and once per semi-naive
        round, and the generated join loops tick it every
        :data:`~repro.datalog.planner.TICK_PROBES` join probes, so the
        clock is read inside a long round too, not only between rounds.
        """
        deadline = deadline or Deadline()
        self.stats.evaluations += 1
        # The program picks plan templates by the relation sizes read here,
        # before the first stratum runs; each stratum then binds its join
        # functions (constants interned, indexes registered) just before
        # it runs.
        for templates in self.program.plans(database.count):
            bound = []
            for plan in templates:
                deadline.check()
                seed = self._bind(database, plan.seed, deadline)
                deltas = [
                    (variant.delta_relation, self._bind(database, variant, deadline))
                    for variant in plan.delta_variants.values()
                ]
                bound.append((plan, seed, deltas))
            self._evaluate_stratum(database, bound, max_iterations, deadline)
        return database

    # ------------------------------------------------------------- executor

    def _bind(
        self, database: Database, variant: PlanVariant, deadline: Deadline
    ) -> Callable[[Optional[Dict], Optional[Dict]], list]:
        """``variant``'s join function over ``database``: its factory
        called with the variant's statics and its bindings resolved
        (constants interned, live relation sets captured, and the indexes
        its join steps probe registered eagerly).  The template is
        untouched."""
        stats = self.stats
        args: List[Any] = [stats, deadline.tick, database._symbols, *variant.statics]
        for kind, value in variant.bindings:
            if kind == CONST:
                args.append(database.intern_value(value))
            elif kind == INDEX:
                index, built = database.register_index(*value)
                if built:
                    stats.index_builds += 1
                args.append(index)
            else:
                args.append(database.relation_view(value))
        if self.track_provenance:
            return traced_factory(variant)(*args)
        return variant.factory(*args)

    def _evaluate_stratum(
        self,
        database: Database,
        bound: List[Tuple[RulePlan, Callable, List[Tuple[str, Callable]]]],
        max_iterations: int,
        deadline: Deadline,
    ) -> None:
        """Run one stratum's bound rules, ``(plan, seed run, [(delta
        relation, delta run), ...])`` each, to fixpoint."""
        stats = self.stats
        tracking = self.track_provenance
        heads = {plan.rule.head.relation for plan, _, _ in bound}
        insert = database._insert

        def flush(plan: RulePlan, matches: list, delta_out) -> None:
            relation = plan.rule.head.relation
            if tracking:
                new = []
                for head, support in matches:
                    if insert(relation, (head,)):
                        new.append(head)
                        self._record_interned(database, plan.rule, head, support)
            else:
                new = insert(relation, matches)
            delta_out[relation].update(new)
            stats.count_rule(plan.key, len(matches), len(new))

        # Naive first round to seed deltas, then semi-naive iteration.
        delta: Dict[str, Set[Tuple]] = {rel: set() for rel in heads}
        for plan, seed, _ in bound:
            deadline.check()
            flush(plan, seed(None, None), delta)

        iterations = 0
        while any(delta.values()):
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("datalog evaluation did not converge")
            deadline.check()
            stats.iterations += 1
            new_delta: Dict[str, Set[Tuple]] = {rel: set() for rel in heads}
            delta_indexes: Dict = {}
            for plan, _, variants in bound:
                for relation, run in variants:
                    if delta.get(relation):
                        flush(plan, run(delta, delta_indexes), new_delta)
            delta = new_delta
        stats.stratum_iterations.append(iterations)

    # ----------------------------------------------------------- provenance

    def _record_interned(
        self, database: Database, rule: Rule, fact: Tuple, support: list
    ) -> None:
        """Record a derivation: decode the head and supports and restore
        original body order (supports sort by body index)."""
        key = (rule.head.relation, database.decode(fact))
        if key in self.provenance:
            return
        decoded = [
            (relation, database.decode(body_fact))
            for _, relation, body_fact in sorted(support)
        ]
        self.provenance[key] = (rule, decoded)

    def explain(
        self, relation: str, fact: Iterable, max_depth: int = 32
    ) -> Optional[dict]:
        """Derivation tree for ``fact``: ``{"fact", "rule", "premises"}``.

        EDB facts (never derived by a rule) get ``{"rule": None}`` leaves.
        Returns None if the fact has no recorded derivation and therefore
        must be an EDB fact or underivable.
        """
        key = (relation, tuple(fact))
        entry = self.provenance.get(key)
        node = {"fact": "%s%r" % (relation, tuple(fact)), "rule": None, "premises": []}
        if entry is None or max_depth == 0:
            return node
        rule, support = entry
        node["rule"] = repr(rule)
        for premise_relation, premise_fact in support:
            node["premises"].append(
                self.explain(premise_relation, premise_fact, max_depth - 1)
            )
        return node

    def format_explanation(self, relation: str, fact: Iterable) -> str:
        """Human-readable indented derivation tree."""
        lines: List[str] = []

        def walk(node: dict, depth: int) -> None:
            lines.append("  " * depth + node["fact"])
            if node["rule"]:
                lines.append("  " * depth + "  via " + node["rule"])
            for premise in node["premises"]:
                walk(premise, depth + 1)

        tree = self.explain(relation, fact)
        if tree is not None:
            walk(tree, 0)
        return "\n".join(lines)


def run(rules: Sequence[Rule], database: Database) -> Database:
    """Convenience one-shot evaluation."""
    return Engine(rules).evaluate(database)
