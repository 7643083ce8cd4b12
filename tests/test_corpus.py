"""Corpus generator: determinism, compilability, ground-truth consistency."""

import random

import pytest

from repro import api
from repro.corpus import TEMPLATES, generate_corpus
from repro.corpus.generator import DEFAULT_WEIGHTS
from repro.minisol import compile_source


class TestTemplates:
    @pytest.mark.parametrize("template_name", sorted(TEMPLATES))
    def test_template_compiles_across_seeds(self, template_name):
        for seed in range(3):
            output = TEMPLATES[template_name](random.Random(seed * 31 + 1))
            compiled = compile_source(output.source, output.contract_name)
            assert compiled.runtime

    @pytest.mark.parametrize("template_name", sorted(TEMPLATES))
    def test_analysis_matches_template_expectation(self, template_name):
        """Ethainter must flag exactly labels ∪ expected FP kinds."""
        output = TEMPLATES[template_name](random.Random(1234))
        compiled = compile_source(output.source, output.contract_name)
        result = api.analyze(compiled.runtime)
        flagged = {w.kind for w in result.warnings}
        assert flagged == output.labels | output.expected_fp_kinds

    def test_weights_cover_all_templates(self):
        assert set(DEFAULT_WEIGHTS) == set(TEMPLATES)


class TestGenerator:
    def test_deterministic_per_seed(self):
        first = generate_corpus(30, seed=99)
        second = generate_corpus(30, seed=99)
        assert [c.runtime for c in first] == [c.runtime for c in second]
        assert [c.template for c in first] == [c.template for c in second]

    def test_different_seeds_differ(self):
        first = generate_corpus(30, seed=1)
        second = generate_corpus(30, seed=2)
        assert [c.runtime for c in first] != [c.runtime for c in second]

    def test_requested_size(self):
        assert len(generate_corpus(17, seed=5)) == 17

    def test_unique_bytecodes(self):
        corpus = generate_corpus(60, seed=3)
        runtimes = [c.runtime for c in corpus]
        assert len(set(runtimes)) == len(runtimes)

    def test_majority_benign(self):
        corpus = generate_corpus(300, seed=2020)
        vulnerable = sum(1 for c in corpus if c.is_vulnerable)
        assert vulnerable < len(corpus) * 0.15

    def test_template_restriction(self):
        corpus = generate_corpus(10, seed=1, templates=["safe_token"])
        assert {c.template for c in corpus} == {"safe_token"}

    def test_eth_distribution_is_skewed(self):
        corpus = generate_corpus(300, seed=8)
        balances = sorted(c.eth_held for c in corpus)
        assert balances[0] == 0
        assert balances[-1] > 10**17

    def test_securify2_applicability_depends_on_version(self):
        corpus = generate_corpus(200, seed=4)
        applicable = [c for c in corpus if c.securify2_applicable]
        assert 0 < len(applicable) < len(corpus)

    def test_labels_only_on_vulnerable_templates(self):
        corpus = generate_corpus(100, seed=6)
        for contract in corpus:
            if contract.template.startswith("safe_"):
                assert not contract.labels

    def test_exploitable_implies_selfdestruct_label(self):
        from repro.core.vulnerabilities import (
            ACCESSIBLE_SELFDESTRUCT,
            TAINTED_SELFDESTRUCT,
        )

        corpus = generate_corpus(200, seed=12)
        for contract in corpus:
            if contract.exploitable_selfdestruct:
                assert contract.labels & {ACCESSIBLE_SELFDESTRUCT, TAINTED_SELFDESTRUCT}
