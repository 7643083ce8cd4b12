"""Compile-once rule programs: the plan-template cache and its users.

A :class:`~repro.datalog.CompiledProgram` is built once per ruleset and
shared by every evaluation — across contracts, engines and threads.  These
tests pin its cache: bounded, reused on a repeat contract, safe under
concurrent fills, and built for every ruleset the analysis can select.
"""

import os
import sys
import threading
import time
from itertools import permutations

import pytest

from repro.core import bytecode_datalog
from repro.core.bytecode_datalog import (
    RULESET_KEYS,
    _facts_to_edb,
    _load_edb,
    analyze_with_datalog,
    ruleset_fragments,
    ruleset_key,
    ruleset_program,
)
from repro.core.facts import extract_facts
from repro.core.guards import build_guard_model
from repro.core.linkage import merged_fragments, merged_program
from repro.core.ordering import build_call_order_model
from repro.core.storage_model import build_storage_model
from repro.core.taint import TaintOptions
from repro.corpus import generate_corpus
from repro.datalog import CompiledProgram, Database, Engine, parse_program
from repro.datalog.lint import shipped_programs
from repro.datalog.program import PLAN_CACHE_SIZE
from repro.decompiler import lift


def _snapshot(database):
    return {
        relation: database.facts(relation) for relation in sorted(database.relations())
    }


@pytest.fixture(scope="module")
def corpus_edbs():
    """Per-contract taint EDBs of a small corpus (sizes differ, so their
    size-rank signatures do too)."""
    edbs = []
    for contract in generate_corpus(8, seed=5):
        facts = extract_facts(lift(contract.runtime))
        storage = build_storage_model(facts)
        guards = build_guard_model(facts, storage)
        ordering = build_call_order_model(facts, storage, guards)
        edbs.append(
            _facts_to_edb(facts, storage, guards, TaintOptions(), ordering=ordering)
        )
    return edbs


class TestPlanCache:
    def test_more_keys_than_the_bound_keep_the_cache_at_the_bound(self):
        """Six same-arity literals whose sizes are permuted: every
        permutation is a new rank signature.  The cache stays at its
        bound, and every result still equals a fresh engine's."""
        relations = ["R%d" % index for index in range(6)]
        program = CompiledProgram(
            parse_program(
                "Out(x) :- %s." % ", ".join("%s(x)" % name for name in relations)
            ).rules
        )
        signatures = list(permutations(range(1, 7)))[: PLAN_CACHE_SIZE + 40]
        for sizes in signatures:
            shared_db, fresh_db = Database(), Database()
            for name, size in zip(relations, sizes):
                rows = [(value,) for value in range(size)]
                shared_db.add_all(name, rows)
                fresh_db.add_all(name, rows)
            shared = Engine(program)
            shared.evaluate(shared_db)
            fresh = Engine(program.rules)
            fresh.evaluate(fresh_db)
            assert _snapshot(shared_db) == _snapshot(fresh_db)
            assert shared.stats.as_dict() == fresh.stats.as_dict()
        info = program.cache_info()
        assert info.maxsize == PLAN_CACHE_SIZE
        assert info.currsize == PLAN_CACHE_SIZE
        assert info.misses > PLAN_CACHE_SIZE

    def test_repeat_contract_compiles_nothing(self, victim_contract):
        """Once a contract's rank signatures are cached, analyzing it again
        (or on the other executor) only hits the cache."""
        options = TaintOptions()
        analyze_with_datalog(victim_contract.runtime, options=options)
        program = bytecode_datalog._rules(options)
        before = program.cache_info()
        for columnar in (False, True):
            analyze_with_datalog(
                victim_contract.runtime, options=options, columnar=columnar
            )
        after = program.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_engines_share_one_program(self):
        program = ruleset_program(RULESET_KEYS[-1])
        assert bytecode_datalog._rules(
            TaintOptions(conservative_storage=True), reentrancy=True
        ) is program
        engine = Engine(program)
        assert engine.program is program
        assert engine.strata is program.strata

    def test_threads_filling_one_cache_agree_with_cold_fixpoints(
        self, corpus_edbs
    ):
        """More threads than cores evaluate the corpus on one cold program
        while the interpreter switches threads every few microseconds;
        every fixpoint must equal the single-threaded cold one."""
        rules = bytecode_datalog._rules(TaintOptions()).rules
        expected = []
        for edb in corpus_edbs:
            database = _load_edb(edb)
            Engine(rules).evaluate(database)
            expected.append(_snapshot(database))
        program = CompiledProgram(rules)
        failures = []
        deadline = time.monotonic() + 1.5

        def work(offset):
            turn = offset
            try:
                while time.monotonic() < deadline:
                    index = turn % len(corpus_edbs)
                    database = _load_edb(corpus_edbs[index])
                    Engine(program, columnar=turn % 3 == 0).evaluate(database)
                    if _snapshot(database) != expected[index]:
                        failures.append(index)
                    turn += 1
            except Exception as error:  # surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=work, args=(offset,))
            for offset in range(max(4, 2 * _cores() + 2))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert program.cache_info().currsize > 0


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


class TestRulesets:
    def test_every_ruleset_compiles(self):
        """All 12 bytecode-level programs — per-contract and merged, for
        every storage x conservative x reentrancy key — build, and each is
        a different rule set."""
        texts = set()
        for key in RULESET_KEYS:
            for program in (ruleset_program(key), merged_program(key)):
                assert isinstance(program, CompiledProgram)
                assert program.strata
                texts.add(tuple(repr(rule) for rule in program.rules))
        assert len(RULESET_KEYS) == 6
        assert len(texts) == 12

    def test_linter_sees_every_ruleset_the_analysis_builds(self):
        shipped = {text for _, text in shipped_programs()}
        for key in RULESET_KEYS:
            for fragments in (ruleset_fragments(key), merged_fragments(key)):
                assert "".join(text for _, text in fragments) in shipped

    def test_conservative_needs_storage(self):
        options = TaintOptions(model_storage_taint=False, conservative_storage=True)
        assert ruleset_key(options) == (False, False, False)
        assert ruleset_key(TaintOptions(), reentrancy=True) == (True, False, True)
