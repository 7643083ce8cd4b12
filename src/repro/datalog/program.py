"""Compile-once rule programs: stratification plus a join-plan cache.

Soufflé compiles a Datalog program once and then runs the binary on every
input (paper §5–6).  :class:`CompiledProgram` is that step for
:class:`~repro.datalog.engine.Engine`: it parses nothing and evaluates
nothing, but does every piece of work that depends only on the rules —

1. **Stratification** — relations are grouped into strongly connected
   components of the rule dependency graph; a negative edge inside an SCC
   is a :class:`StratificationError` (the program is not stratifiable).
   SCCs are evaluated in topological order, so a negated relation is
   always fully computed before it is read.
2. **Relation roles** — per stratum, the relations its rules derive (the
   ones that get delta variants) and read positively (the sizes its join
   orders depend on).
3. **Plan templates** — each rule compiled into a
   :class:`~repro.datalog.planner.RulePlan`, with a generated join
   function per variant, cached per *size-rank signature* (see
   :meth:`CompiledProgram.plans`).  Every rule is planned once when the
   program is built, so a :class:`~repro.datalog.planner.PlanningError`
   surfaces there, not in the middle of an analysis.

Templates are shared by every engine (and thread) evaluating the program
and are never mutated: an evaluation calls each variant's join factory
with its own database's constants, relation sets and indexes (see
:meth:`Engine._bind`), and runs the closure that returns.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.datalog.planner import RulePlan, check_rule, compile_rule
from repro.datalog.terms import Literal, Rule

# Plan templates kept per program.  A constant, not an option: arbitrary
# bytecode can produce any size-rank signature, and the seed-7 e2ebench set
# (300 contracts) needs only 84 of them for the bytecode taint ruleset.
PLAN_CACHE_SIZE = 256


class StratificationError(Exception):
    """The program uses negation through recursion."""


# ------------------------------------------------------------ SCC machinery
#
# Shared between the stratifier and the program linter's stratification
# preview (:mod:`repro.datalog.lint`).


def rule_dependency_graph(
    rules: Sequence[Rule],
) -> Tuple[Set[str], List[Tuple[str, str, bool]]]:
    """The relation dependency graph of ``rules``.

    Returns ``(relations, edges)`` where each edge is
    ``(body relation, head relation, negated)``.
    """
    relations: Set[str] = set()
    edges: List[Tuple[str, str, bool]] = []
    for rule in rules:
        relations.add(rule.head.relation)
        for item in rule.body:
            if isinstance(item, Literal):
                relations.add(item.atom.relation)
                edges.append((item.atom.relation, rule.head.relation, item.negated))
    return relations, edges


def strongly_connected_components(
    relations: Iterable[str], successors: Dict[str, Set[str]]
) -> Tuple[List[List[str]], Dict[str, int]]:
    """Tarjan SCC (iterative).  Returns ``(components, component_of)``;
    components are emitted in reverse topological order."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    component_of: Dict[str, int] = {}
    components: List[List[str]] = []

    def strongconnect(node: str) -> None:
        worklist = [(node, iter(successors.get(node, ())))]
        index[node] = lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while worklist:
            current, successor_iter = worklist[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    worklist.append((successor, iter(successors.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[current] = min(lowlink[current], index[successor])
            if advanced:
                continue
            worklist.pop()
            if worklist:
                parent = worklist[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component_of[member] = len(components)
                    component.append(member)
                    if member == current:
                        break
                components.append(component)

    for rel in relations:
        if rel not in index:
            strongconnect(rel)
    return components, component_of


def condensation_levels(
    components: List[List[str]],
    component_of: Dict[str, int],
    edges: List[Tuple[str, str, bool]],
) -> Dict[int, int]:
    """Stratum level per component: Kahn-style longest path over the SCC
    condensation of ``edges``."""
    condensed: Dict[int, Set[int]] = {i: set() for i in range(len(components))}
    for source, target, _ in edges:
        s, t = component_of[source], component_of[target]
        if s != t:
            condensed[s].add(t)
    indegree: Dict[int, int] = {i: 0 for i in range(len(components))}
    for source_component, targets in condensed.items():
        for target_component in targets:
            indegree[target_component] += 1
    queue = [c for c, d in indegree.items() if d == 0]
    level: Dict[int, int] = {c: 0 for c in queue}
    while queue:
        current = queue.pop()
        for target_component in condensed[current]:
            level[target_component] = max(
                level.get(target_component, 0), level[current] + 1
            )
            indegree[target_component] -= 1
            if indegree[target_component] == 0:
                queue.append(target_component)
    return level


def stratify(rules: Sequence[Rule]) -> List[List[Rule]]:
    """``rules`` grouped into strata, lowest first (rules keep their
    relative order within a stratum)."""
    relations, edges = rule_dependency_graph(rules)
    successors: Dict[str, Set[str]] = {rel: set() for rel in relations}
    for source, target, _ in edges:
        successors[source].add(target)

    components, component_of = strongly_connected_components(relations, successors)

    # Negative edge inside one SCC => not stratifiable.
    for source, target, negated in edges:
        if negated and component_of[source] == component_of[target]:
            raise StratificationError(
                "negation of %r is recursive with %r" % (source, target)
            )

    level = condensation_levels(components, component_of, edges)
    max_level = max(level.values(), default=0)
    strata: List[List[Rule]] = [[] for _ in range(max_level + 1)]
    for rule in rules:
        component = component_of[rule.head.relation]
        strata[level.get(component, 0)].append(rule)
    return [stratum for stratum in strata if stratum]


# ------------------------------------------------------------ the program


def _dense_ranks(values: List[int]) -> Tuple[int, ...]:
    """Each value's rank among the distinct values (ties share a rank)."""
    rank = {value: index for index, value in enumerate(sorted(set(values)))}
    return tuple(rank[value] for value in values)


class CompiledProgram:
    """One ruleset, stratified and planned once, evaluated on many
    databases.

    Holds the rules, their strata, each stratum's head and positively read
    relation sets, and a bounded LRU cache of
    :class:`~repro.datalog.planner.RulePlan` templates.  Build it once per
    ruleset and hand it to every :class:`~repro.datalog.engine.Engine`
    that evaluates those rules; ``Engine(rules)`` builds a private one.

    The plan cache is safe to share across threads: a template is inserted
    only once fully built, its join function included, and two threads
    missing on the same key at once both compile it, which is harmless.
    """

    def __init__(self, rules: Sequence[Rule]):
        self.rules: List[Rule] = list(rules)
        self.strata: List[List[Rule]] = stratify(self.rules)
        self.stratum_heads: List[Set[str]] = []
        self.stratum_pos: List[Set[str]] = []
        # Per stratum, per rule: the relations of its positive body
        # literals in body order — the sizes the join-order heuristic
        # compares.
        self._positive: List[List[Tuple[str, ...]]] = []
        for stratum in self.strata:
            heads: Set[str] = set()
            reads_pos: Set[str] = set()
            positive: List[Tuple[str, ...]] = []
            for rule in stratum:
                heads.add(rule.head.relation)
                relations = []
                for item in rule.body:
                    if isinstance(item, Literal) and not item.negated:
                        reads_pos.add(item.atom.relation)
                        relations.append(item.atom.relation)
                positive.append(tuple(relations))
            self.stratum_heads.append(heads)
            self.stratum_pos.append(reads_pos)
            self._positive.append(positive)
        # Every relation some rule reads positively: the sizes to read.
        self._sized = tuple(sorted(set().union(*self.stratum_pos)))
        self._template = lru_cache(maxsize=PLAN_CACHE_SIZE)(self._compile)
        # Planning every rule surfaces PlanningErrors — wildcards in
        # negation, unbindable filter or head variables — now rather than
        # at evaluation; templates, join code included, are built when an
        # evaluation first needs them.
        for rule in self.rules:
            check_rule(rule)

    def plans(self, size_of: Callable[[str], int]) -> List[List[RulePlan]]:
        """Plan templates per stratum for a database whose relation sizes
        ``size_of`` reports.  Bind their join functions; never mutate
        them.

        Every size is read here, once, before any stratum runs.  A rule's
        template is cached under ``(stratum, rule position, dense ranks of
        its positive body literals' sizes)``: the join-order heuristic
        scores a literal by ``(bound arguments, -size, -position)``, bound
        counts do not depend on sizes and a delta literal's size is pinned
        below every real one, so the plan depends on sizes only through
        comparisons among the rule's own positive literals — which dense
        ranks keep exactly, ties included.  Each same-stratum (recursive)
        body literal gets a delta variant.
        """
        sizes = {relation: size_of(relation) for relation in self._sized}
        template = self._template
        return [
            [
                template(
                    level,
                    position,
                    _dense_ranks([sizes[relation] for relation in relations]),
                )
                for position, relations in enumerate(stratum)
            ]
            for level, stratum in enumerate(self._positive)
        ]

    def _compile(self, level: int, position: int, ranks: Tuple[int, ...]) -> RulePlan:
        relations = self._positive[level][position]
        # Compiling against the ranks themselves yields the same plan as
        # the sizes they rank (only their comparisons matter).
        rank_of = dict(zip(relations, ranks))
        return compile_rule(
            self.strata[level][position],
            self.stratum_heads[level],
            rank_of.__getitem__,
        )

    def cache_info(self):
        """The plan cache's ``(hits, misses, maxsize, currsize)``."""
        return self._template.cache_info()
