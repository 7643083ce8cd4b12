"""Semi-naive, stratified Datalog evaluation over compiled join plans.

Evaluation pipeline:

1. **Compilation, once per ruleset** — a
   :class:`~repro.datalog.program.CompiledProgram` stratifies the rules
   (negation through recursion is a
   :class:`~repro.datalog.program.StratificationError`) and
   caches join-plan templates (see :mod:`repro.datalog.planner`): body
   literals reordered by a sideways-information-passing heuristic,
   per-literal index signatures precomputed, and one delta-specialized
   variant per recursive body position.  Templates are keyed by the ranks
   of the relation sizes the heuristic compares, so every database whose
   sizes rank alike shares one compiled plan.
2. **Binding, once per evaluation** — each stratum's templates are copied
   just before it runs; the copies get the database's interned constants
   and eagerly registered indexes, and are executed by a flat,
   non-recursive interpreter.  Templates are never mutated, so one
   program serves any number of engines and threads.
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
    EngineStats,
    NegGuard,
    PlanVariant,
    RulePlan,
    Spec,
)
from repro.datalog.program import CompiledProgram
from repro.datalog.terms import Rule
from repro.deadline import Deadline


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
        # relation -> {bound positions: {interned key: [interned facts]}} —
        # nested by relation so inserts only touch the inserted relation's
        # indexes (a flat map made every add() scan every index).
        self._indexes: Dict[str, Dict[Tuple[int, ...], Dict[Tuple, List[Tuple]]]] = {}
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
        intern = self._intern
        symbols = self._symbols
        interned: List[int] = []
        for value in fact:
            ident = intern.get(value)
            if ident is None:
                ident = len(symbols)
                intern[value] = ident
                symbols.append(value)
            interned.append(ident)
        return self._add_interned(relation, tuple(interned))

    def _add_interned(self, relation: str, fact: Tuple[int, ...]) -> bool:
        """Insert an already-interned fact; returns True if it was new."""
        rel = self._relations.get(relation)
        if rel is None:
            rel = self._relations[relation] = set()
        if fact in rel:
            return False
        rel.add(fact)
        indexes = self._indexes.get(relation)
        if indexes:
            for positions, index in indexes.items():
                key = tuple(fact[position] for position in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [fact]
                else:
                    bucket.append(fact)
        self._decoded.pop(relation, None)
        return True

    def add_all(self, relation: str, facts: Iterable[Iterable]) -> int:
        """Insert many facts; returns how many were new."""
        return sum(1 for fact in facts if self.add(relation, fact))

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
        index = relation_indexes.get(positions)
        if index is not None:
            return index, False
        return self._build_index(relation, positions), True

    def _build_index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Dict[Tuple, List[Tuple]]:
        index: Dict[Tuple, List[Tuple]] = {}
        for fact in self._relations.get(relation, ()):
            key = tuple(fact[position] for position in positions)
            index.setdefault(key, []).append(fact)
        self._indexes.setdefault(relation, {})[positions] = index
        return index

    def relation_view(self, relation: str) -> Set[Tuple[int, ...]]:
        """The live *interned* fact set of ``relation``, created on demand
        so bind-time captured references stay valid as facts arrive."""
        rel = self._relations.get(relation)
        if rel is None:
            rel = self._relations[relation] = set()
        return rel


def _intern_spec(spec: Spec, intern: Callable[[Any], int]) -> Spec:
    """``spec`` with its constants interned (shared as-is when it has
    none)."""
    if all(from_slot for from_slot, _ in spec):
        return spec
    return tuple(
        (True, value) if from_slot else (False, intern(value))
        for from_slot, value in spec
    )


class Engine:
    """Evaluates a rule program over a database to fixpoint.

    ``rules`` is a :class:`~repro.datalog.program.CompiledProgram` or a
    plain rule sequence, for which the engine builds a private program.
    Callers that evaluate one ruleset many times share one program, so
    parsing, stratification and join planning happen once per ruleset
    (and size-rank signature), not once per evaluation.  Each
    :meth:`evaluate` binds fresh copies of the program's plan templates to
    its database.  ``stats`` accumulates :class:`EngineStats` counters
    across evaluations.

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

        ``deadline`` (the run's budget) is checked before each plan is
        bound, before each rule's seed round, and once per semi-naive
        iteration, so neither a large EDB nor runaway recursion outlives
        the caller's cutoff by more than one round.
        """
        deadline = deadline or Deadline()
        self.stats.evaluations += 1
        # The program picks plan templates by the relation sizes read here,
        # before the first stratum runs; each stratum then binds fresh
        # copies (constants interned, indexes registered) just before it
        # runs.
        for templates in self.program.plans(database.count):
            plans = []
            for template in templates:
                deadline.check()
                plans.append(self._bind_plan(database, template))
            self._evaluate_stratum(database, plans, max_iterations, deadline)
        return database

    # ------------------------------------------------------------- executor

    def _bind_plan(self, database: Database, template: RulePlan) -> RulePlan:
        """A copy of ``template`` bound to ``database``: constants interned,
        live relation views captured, and the indexes its join steps
        declared registered eagerly.  The template itself is untouched."""
        seed = self._bind_variant(database, template.seed)
        delta_variants = {
            position: self._bind_variant(database, variant)
            for position, variant in template.delta_variants.items()
        }
        return template.with_variants(seed, delta_variants)

    def _bind_variant(
        self, database: Database, template: PlanVariant
    ) -> PlanVariant:
        intern = database.intern_value
        variant = template.copy()
        variant.prelude = tuple(
            self._bind_guard(database, guard) for guard in template.prelude
        )
        steps = []
        for source in template.steps:
            step = source.copy()
            step.key_spec = _intern_spec(source.key_spec, intern)
            if step.key_spec and all(
                not from_slot for from_slot, _ in step.key_spec
            ):
                step.static_key = tuple(value for _, value in step.key_spec)
            if step.delta:
                pass  # candidates come from the per-round delta sets
            elif step.positions:
                index, built = database.register_index(
                    step.relation, step.positions
                )
                step.index = index
                if built:
                    self.stats.index_builds += 1
            else:
                step.rel_set = database.relation_view(step.relation)
            step.guards = tuple(
                self._bind_guard(database, guard) for guard in source.guards
            )
            steps.append(step)
        variant.steps = tuple(steps)
        variant.head_spec = _intern_spec(template.head_spec, intern)
        if all(not from_slot for from_slot, _ in variant.head_spec):
            variant.static_head = tuple(value for _, value in variant.head_spec)
        return variant

    @staticmethod
    def _bind_guard(database: Database, guard):
        if guard.__class__ is NegGuard:
            bound = NegGuard(
                guard.relation,
                _intern_spec(guard.key_spec, database.intern_value),
                guard.orig_index,
            )
            bound.rel_set = database.relation_view(guard.relation)
            return bound
        # FilterGuard constants stay raw: predicates see original values.
        return guard

    def _evaluate_stratum(
        self,
        database: Database,
        plans: List[RulePlan],
        max_iterations: int,
        deadline: Deadline,
    ) -> None:
        stats = self.stats
        tracking = self.track_provenance
        heads = {plan.rule.head.relation for plan in plans}

        def flush(plan: RulePlan, matches, delta_out) -> None:
            derived = 0
            relation = plan.rule.head.relation
            for head_fact, support in matches:
                if database._add_interned(relation, head_fact):
                    derived += 1
                    delta_out[relation].add(head_fact)
                    if tracking:
                        self._record_interned(
                            database, plan.rule, head_fact, support
                        )
            stats.count_rule(plan.key, len(matches), derived)

        # Naive first round to seed deltas, then semi-naive iteration.
        delta: Dict[str, Set[Tuple]] = {rel: set() for rel in heads}
        for plan in plans:
            deadline.check()
            flush(plan, self._run_variant(database, plan.seed, None, None), delta)

        iterations = 0
        while any(delta.values()):
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("datalog evaluation did not converge")
            deadline.check()
            stats.iterations += 1
            new_delta: Dict[str, Set[Tuple]] = {rel: set() for rel in heads}
            delta_index_cache: Dict = {}
            for plan in plans:
                for variant in plan.delta_variants.values():
                    if not delta.get(variant.delta_relation):
                        continue
                    flush(
                        plan,
                        self._run_variant(
                            database, variant, delta, delta_index_cache
                        ),
                        new_delta,
                    )
            delta = new_delta
        stats.stratum_iterations.append(iterations)

    def _run_variant(
        self,
        database: Database,
        variant: PlanVariant,
        delta: Optional[Dict[str, Set[Tuple]]],
        delta_index_cache: Optional[Dict],
    ) -> List[Tuple[Tuple, list]]:
        """Execute one bound plan variant: a flat backtracking join over
        resumable candidate iterators.  Returns ``(head fact, support)``
        pairs (support is empty unless provenance tracking is on)."""
        env: List[Any] = [None] * variant.n_slots
        for guard in variant.prelude:
            if not self._eval_guard(database, guard, env):
                return []
        steps = variant.steps
        depth = len(steps)
        if depth == 0:
            return [(variant.static_head, [])]
        tracking = self.track_provenance
        results: List[Tuple[Tuple, list]] = []
        iters: List[Any] = [None] * depth
        trail: List[Any] = [None] * depth
        head_spec = variant.head_spec
        static_head = variant.static_head
        level = 0
        iters[0] = self._candidates(steps[0], env, delta, delta_index_cache)
        while level >= 0:
            step = steps[level]
            descended = False
            for fact in iters[level]:
                ok = True
                for position, slot in step.outs:
                    env[slot] = fact[position]
                for position, slot in step.checks:
                    if fact[position] != env[slot]:
                        ok = False
                        break
                if ok:
                    for guard in step.guards:
                        if not self._eval_guard(database, guard, env):
                            ok = False
                            break
                if not ok:
                    continue
                if tracking:
                    trail[level] = (step.orig_index, step.relation, fact)
                if level + 1 == depth:
                    head = static_head
                    if head is None:
                        head = tuple(
                            env[value] if from_slot else value
                            for from_slot, value in head_spec
                        )
                    results.append((head, list(trail) if tracking else []))
                    continue
                level += 1
                iters[level] = self._candidates(
                    steps[level], env, delta, delta_index_cache
                )
                descended = True
                break
            if not descended:
                level -= 1
        return results

    def _candidates(
        self,
        step,
        env: List[Any],
        delta: Optional[Dict[str, Set[Tuple]]],
        delta_index_cache: Optional[Dict],
    ):
        """Iterator over a join step's candidate facts: delta set/index for
        delta steps, registered index probe or full scan otherwise."""
        stats = self.stats
        stats.join_probes += 1
        if step.delta:
            facts = delta.get(step.relation, ())
            if not step.positions:
                return iter(facts)
            cache_key = (step.relation, step.positions)
            index = delta_index_cache.get(cache_key)
            if index is None:
                index = {}
                for fact in facts:
                    key = tuple(fact[position] for position in step.positions)
                    index.setdefault(key, []).append(fact)
                delta_index_cache[cache_key] = index
                stats.delta_index_builds += 1
            key = step.static_key
            if key is None:
                key = tuple(
                    env[value] if from_slot else value
                    for from_slot, value in step.key_spec
                )
            return iter(index.get(key, ()))
        if not step.positions:
            return iter(step.rel_set)
        key = step.static_key
        if key is None:
            key = tuple(
                env[value] if from_slot else value
                for from_slot, value in step.key_spec
            )
        stats.index_probes += 1
        bucket = step.index.get(key)
        if bucket is None:
            return iter(())
        stats.index_hits += 1
        return iter(bucket)

    def _eval_guard(self, database: Database, guard, env: List[Any]) -> bool:
        """Evaluate a bound negation or filter guard against the current
        slot environment."""
        if guard.__class__ is NegGuard:
            probe = tuple(
                env[value] if from_slot else value
                for from_slot, value in guard.key_spec
            )
            return probe not in guard.rel_set
        symbols = database._symbols
        values = [
            symbols[env[value]] if from_slot else value
            for from_slot, value in guard.arg_spec
        ]
        return bool(guard.predicate(*values))

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
