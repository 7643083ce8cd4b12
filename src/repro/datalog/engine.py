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
original (possibly string) values.  This one executor runs every
evaluation and every DRed repair (:meth:`Engine.apply_changes`); the test
suite checks its fixpoints against a naive reference evaluator.
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


class Database:
    """Interned fact storage with eagerly maintainable hash indexes.

    Every constant is interned into a dense symbol table on first sight, so
    relations store tuples of small ints: hashing, equality, and index keys
    are int-only no matter how large the original values are.  The public
    API (``add``/``remove``/``facts``/``contains``) still speaks raw
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

    def remove(self, relation: str, fact: Iterable) -> bool:
        """Remove one fact (raw values); returns True if it was present."""
        intern = self._intern
        interned: List[int] = []
        for value in fact:
            ident = intern.get(value)
            if ident is None:
                return False
            interned.append(ident)
        return self.remove_interned(relation, tuple(interned))

    def remove_interned(self, relation: str, fact: Tuple[int, ...]) -> bool:
        """Remove an already-interned fact, maintaining hash indexes and
        invalidating caches; returns True if it was present."""
        rel = self._relations.get(relation)
        if rel is None or fact not in rel:
            return False
        rel.discard(fact)
        indexes = self._indexes.get(relation)
        if indexes:
            for positions, index in indexes.items():
                key = tuple(fact[position] for position in positions)
                bucket = index.get(key)
                if bucket is not None:
                    try:
                        bucket.remove(fact)
                    except ValueError:
                        pass
                    if not bucket:
                        del index[key]
        self._decoded.pop(relation, None)
        return True

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
    across evaluations and repairs.

    With ``track_provenance=True`` the engine records, for each derived
    fact, the rule and body facts of its *first* derivation; ``explain``
    then renders the derivation tree down to the EDB — the "why" behind an
    analysis warning.

    After an ``evaluate()`` the engine remembers the database and its EDB
    (the facts present before derivation started); :meth:`apply_changes`
    then accepts EDB additions/retractions and repairs the fixpoint
    incrementally with DRed (overdelete / rederive / insert) instead of
    recomputing from scratch.
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
        # Incremental (DRed) state: the database of the last evaluate(),
        # its EDB snapshot, and lazily built all-delta repair plans bound
        # to that database.
        self._inc_db: Optional[Database] = None
        self._inc_edb: Optional[Dict[str, Set[Tuple[int, ...]]]] = None
        self._inc_plans: Optional[List[List[RulePlan]]] = None

    # ------------------------------------------------------------ evaluation

    def evaluate(
        self,
        database: Database,
        max_iterations: int = 1_000_000,
        deadline=None,
    ) -> Database:
        """Run all strata to fixpoint, mutating and returning ``database``.

        ``deadline`` is an optional cooperative budget (duck-typed:
        ``check()`` raises when spent), consulted before each plan is bound
        (the first check follows the EDB snapshot), before each rule's seed
        round, and once per semi-naive iteration, so neither a large EDB nor
        runaway recursion outlives the caller's cutoff.
        """
        self.stats.evaluations += 1
        self._inc_plans = None
        # Snapshot the EDB (everything present before derivation) so
        # apply_changes() can later tell explicit facts from derived ones.
        # The program picks plan templates by the relation sizes read here,
        # before the first stratum runs; each stratum then binds fresh
        # copies (constants interned, indexes registered) just before it
        # runs.
        self._inc_db = database
        self._inc_edb = {
            relation: set(facts)
            for relation, facts in database._relations.items()
            if facts
        }
        for templates in self.program.plans(database.count):
            plans = []
            for template in templates:
                if deadline is not None:
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
        deadline=None,
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
            if deadline is not None:
                deadline.check()
            flush(plan, self._run_variant(database, plan.seed, None, None), delta)

        iterations = 0
        while any(delta.values()):
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("datalog evaluation did not converge")
            if deadline is not None:
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

    # ------------------------------------------- incremental (DRed) repair

    def apply_changes(
        self,
        additions: Optional[Dict[str, Iterable[Iterable]]] = None,
        retractions: Optional[Dict[str, Iterable[Iterable]]] = None,
        max_iterations: int = 1_000_000,
        deadline=None,
    ) -> Database:
        """Apply EDB additions/retractions after an :meth:`evaluate` and
        incrementally repair the IDB (delete-and-rederive).

        Retractions must name facts that were explicitly added (EDB facts
        of the last evaluation, or earlier ``apply_changes`` additions) —
        retracting a derived fact raises :class:`ValueError`.  Per
        stratum, the repair runs DRed: an overdeletion fixpoint marks
        everything derivable from a deleted fact, a one-step rederivation
        restores facts with surviving alternative proofs, and a
        semi-naive insertion pass propagates additions.  Strata whose
        *negated* dependencies changed are recomputed from scratch
        instead (DRed cannot reason through negation).  Provenance stays
        consistent: overdeletion pops the proofs of every fact whose
        recorded premises died, and rederivation records fresh ones.

        Returns the repaired database (the same object ``evaluate`` ran
        on); the fixpoint is identical to a cold re-evaluation of the
        mutated EDB.
        """
        database = self._inc_db
        if database is None:
            raise RuntimeError("apply_changes() needs a prior evaluate()")
        stats = self.stats
        stats.incremental_applies += 1
        edb = self._inc_edb
        tracking = self.track_provenance
        program = self.program
        all_heads: Set[str] = set().union(*program.stratum_heads)

        # ---- normalize the change set against the EDB bookkeeping
        retract: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in (retractions or {}).items():
            known = edb.get(relation, set())
            interned: Set[Tuple[int, ...]] = set()
            for fact in facts:
                ifact = self._intern_known(database, fact)
                if ifact is None or ifact not in known:
                    raise ValueError(
                        "cannot retract %s%r: not an explicitly added "
                        "(EDB) fact" % (relation, tuple(fact))
                    )
                interned.add(ifact)
            if interned:
                retract[relation] = interned
        insert: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in (additions or {}).items():
            interned = {
                tuple(database.intern_value(value) for value in fact)
                for fact in facts
            }
            if interned:
                insert[relation] = interned
        for relation in list(insert):
            gone = retract.get(relation)
            if gone:
                # Retract + re-add of the same fact cancels out.
                both = insert[relation] & gone
                insert[relation] -= both
                gone -= both
                if not gone:
                    del retract[relation]
            existing = edb.get(relation)
            if existing:
                insert[relation] -= existing  # re-adding EDB facts: no-op
            if not insert[relation]:
                del insert[relation]

        for relation, facts in retract.items():
            edb[relation] -= facts
        for relation, facts in insert.items():
            edb.setdefault(relation, set()).update(facts)

        # ---- net changesets, accumulated stratum by stratum
        changes_add: Dict[str, Set[Tuple[int, ...]]] = {}
        changes_rem: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in insert.items():
            new: Set[Tuple[int, ...]] = set()
            for fact in facts:
                if database._add_interned(relation, fact):
                    new.add(fact)
                elif tracking:
                    # The fact already existed as a derived fact; now that
                    # it is explicitly added it is EDB, and a cold engine
                    # would record no proof for it.
                    self.provenance.pop(
                        (relation, database.decode(fact)), None
                    )
            if new:
                changes_add[relation] = new
        # Retractions on relations no rule derives leave immediately; on
        # head relations the owning stratum's overdeletion decides (the
        # fact may have surviving derivations).
        pending_retract: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in retract.items():
            if relation in all_heads:
                pending_retract[relation] = set(facts)
            else:
                removed = {
                    fact for fact in facts
                    if database.remove_interned(relation, fact)
                }
                if removed:
                    changes_rem[relation] = removed
                    stats.retracted_facts += len(removed)
        if not changes_add and not changes_rem and not pending_retract:
            return database

        plans = self._incremental_plans(database)
        for level, stratum_plans in enumerate(plans):
            heads = program.stratum_heads[level]
            reads_pos = program.stratum_pos[level]
            reads_neg = program.stratum_neg[level]
            stratum_pending = {
                relation: pending_retract.pop(relation)
                for relation in list(pending_retract)
                if relation in heads
            }
            if any(
                changes_add.get(relation) or changes_rem.get(relation)
                for relation in reads_neg
            ):
                self._recompute_stratum(
                    database, level, changes_add, changes_rem,
                    max_iterations, deadline,
                )
                continue
            touched = stratum_pending or any(
                changes_add.get(relation) or changes_rem.get(relation)
                for relation in (reads_pos | heads)
            )
            if not touched:
                continue
            self._dred_stratum(
                database, stratum_plans, heads, reads_pos, stratum_pending,
                changes_add, changes_rem, max_iterations, deadline,
            )
        return database

    @staticmethod
    def _intern_known(database: Database, fact: Iterable) -> Optional[Tuple[int, ...]]:
        """Interned form of ``fact`` if every value is already known."""
        intern = database._intern
        out: List[int] = []
        for value in fact:
            ident = intern.get(value)
            if ident is None:
                return None
            out.append(ident)
        return tuple(out)

    def _incremental_plans(self, database: Database) -> List[List[RulePlan]]:
        """Repair plans: delta variants for *every* positive body position
        (changes arrive in any relation), planned for the database's sizes
        at the first repair and bound once to it; the hash indexes they
        probe are maintained through insertions and removals alike."""
        plans = self._inc_plans
        if plans is None:
            plans = self._inc_plans = [
                [self._bind_plan(database, template) for template in templates]
                for templates in self.program.plans(
                    database.count, all_deltas=True
                )
            ]
        return plans

    def _dred_stratum(
        self,
        database: Database,
        plans: List[RulePlan],
        heads: Set[str],
        reads_pos: Set[str],
        pending_retract: Dict[str, Set[Tuple[int, ...]]],
        changes_add: Dict[str, Set[Tuple[int, ...]]],
        changes_rem: Dict[str, Set[Tuple[int, ...]]],
        max_iterations: int,
        deadline=None,
    ) -> None:
        stats = self.stats
        tracking = self.track_provenance
        edb = self._inc_edb

        # ---- overdeletion fixpoint: mark everything derivable from a
        #      deleted fact.  Joins must see the pre-deletion database, so
        #      facts already removed by lower strata are resurrected for
        #      the duration and marked facts stay in place until the end.
        overdeleted: Dict[str, Set[Tuple[int, ...]]] = {}
        round_delta: Dict[str, Set[Tuple[int, ...]]] = {}
        resurrected: List[Tuple[str, Tuple[int, ...]]] = []
        for relation in reads_pos:
            if relation in heads:
                continue
            gone = changes_rem.get(relation)
            if gone:
                for fact in gone:
                    if database._add_interned(relation, fact):
                        resurrected.append((relation, fact))
                round_delta[relation] = set(gone)
        for relation, facts in pending_retract.items():
            present = database._relations.get(relation, ())
            marked = {fact for fact in facts if fact in present}
            if marked:
                overdeleted[relation] = set(marked)
                round_delta.setdefault(relation, set()).update(marked)
        iterations = 0
        while round_delta:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("overdeletion did not converge")
            if deadline is not None:
                deadline.check()
            delta_index_cache: Dict = {}
            new_round: Dict[str, Set[Tuple[int, ...]]] = {}
            for plan in plans:
                relation = plan.rule.head.relation
                rel_view = database._relations.get(relation, ())
                rel_edb = edb.get(relation, ())
                for variant in plan.delta_variants.values():
                    if not round_delta.get(variant.delta_relation):
                        continue
                    for head_fact, _support in self._run_variant(
                        database, variant, round_delta, delta_index_cache
                    ):
                        if (
                            head_fact not in rel_view
                            or head_fact in rel_edb
                        ):
                            continue
                        marked = overdeleted.get(relation)
                        if marked is None:
                            marked = overdeleted[relation] = set()
                        if head_fact not in marked:
                            marked.add(head_fact)
                            new_round.setdefault(relation, set()).add(
                                head_fact
                            )
            round_delta = new_round
        for relation, facts in overdeleted.items():
            stats.overdeleted_facts += len(facts)
            for fact in facts:
                database.remove_interned(relation, fact)
                if tracking:
                    self.provenance.pop(
                        (relation, database.decode(fact)), None
                    )
        for relation, fact in resurrected:
            database.remove_interned(relation, fact)

        # ---- rederivation: one step over the repaired database restores
        #      overdeleted facts that still have an alternative proof
        #      (recursive consequences return via insertion propagation)
        added_back: Dict[str, Set[Tuple[int, ...]]] = {}
        if overdeleted:
            for plan in plans:
                relation = plan.rule.head.relation
                candidates = overdeleted.get(relation)
                if not candidates:
                    continue
                matches = self._run_variant(database, plan.seed, None, None)
                derived = 0
                for head_fact, support in matches:
                    if database._add_interned(relation, head_fact):
                        derived += 1
                        if tracking:
                            self._record_interned(
                                database, plan.rule, head_fact, support
                            )
                        added_back.setdefault(relation, set()).add(head_fact)
                        if head_fact in candidates:
                            stats.rederived_facts += 1
                if matches:
                    stats.count_rule(plan.key, len(matches), derived)

        # ---- insertion propagation: semi-naive over the delta variants,
        #      seeded by upstream additions and rederived facts
        ins_delta: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation in reads_pos | heads:
            gained = changes_add.get(relation)
            if gained:
                ins_delta[relation] = set(gained)
        added_net: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in added_back.items():
            ins_delta.setdefault(relation, set()).update(facts)
            added_net[relation] = set(facts)
        iterations = 0
        while ins_delta:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("insertion propagation did not converge")
            if deadline is not None:
                deadline.check()
            delta_index_cache = {}
            new_delta: Dict[str, Set[Tuple[int, ...]]] = {}
            for plan in plans:
                relation = plan.rule.head.relation
                for variant in plan.delta_variants.values():
                    if not ins_delta.get(variant.delta_relation):
                        continue
                    matches = self._run_variant(
                        database, variant, ins_delta, delta_index_cache
                    )
                    derived = 0
                    for head_fact, support in matches:
                        if database._add_interned(relation, head_fact):
                            derived += 1
                            if tracking:
                                self._record_interned(
                                    database, plan.rule, head_fact, support
                                )
                            new_delta.setdefault(relation, set()).add(
                                head_fact
                            )
                            added_net.setdefault(relation, set()).add(
                                head_fact
                            )
                    if matches:
                        stats.count_rule(plan.key, len(matches), derived)
                        if derived:
                            stats.delta_derived_facts += derived
                            stats.rule_delta_derivations[plan.key] = (
                                stats.rule_delta_derivations.get(plan.key, 0)
                                + derived
                            )
            ins_delta = new_delta

        # ---- fold this stratum's net effect into the global changesets
        for relation in heads:
            over = overdeleted.get(relation, set())
            added = added_net.get(relation, set())
            present = database._relations.get(relation, ())
            net_removed = {fact for fact in over if fact not in present}
            net_added = added - over
            if net_removed:
                changes_rem.setdefault(relation, set()).update(net_removed)
                stats.retracted_facts += len(net_removed)
            if net_added:
                changes_add.setdefault(relation, set()).update(net_added)

    def _recompute_stratum(
        self,
        database: Database,
        level: int,
        changes_add: Dict[str, Set[Tuple[int, ...]]],
        changes_rem: Dict[str, Set[Tuple[int, ...]]],
        max_iterations: int,
        deadline=None,
    ) -> None:
        """Fallback when a stratum's negated dependency changed: clear the
        stratum's derived facts and rerun its fixpoint, then diff old vs
        new into the global changesets."""
        stats = self.stats
        stats.strata_recomputed += 1
        tracking = self.track_provenance
        edb = self._inc_edb
        heads = self.program.stratum_heads[level]
        old: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation in heads:
            current = database._relations.get(relation, set())
            old[relation] = set(current)
            keep = edb.get(relation, ())
            for fact in list(current):
                if fact not in keep:
                    database.remove_interned(relation, fact)
                    if tracking:
                        self.provenance.pop(
                            (relation, database.decode(fact)), None
                        )
        self._evaluate_stratum(
            database, self._inc_plans[level], max_iterations, deadline
        )
        for relation in heads:
            new = database._relations.get(relation, set())
            before = old[relation]
            net_added = new - before
            net_removed = before - new
            if net_added:
                changes_add.setdefault(relation, set()).update(net_added)
            if net_removed:
                changes_rem.setdefault(relation, set()).update(net_removed)
                stats.retracted_facts += len(net_removed)

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
