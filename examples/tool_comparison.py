"""Tool comparison: Ethainter vs Securify, Securify2, and teEther (§6.2).

Runs all four analyzers over a corpus sample and scores them against ground
truth, printing a Figure-7-style table.

Run with::

    python examples/tool_comparison.py [corpus-size]
"""

import sys
from collections import Counter

from repro import api
from repro.baselines import SecurifyAnalysis, Securify2Analysis, TeEtherAnalysis
from repro.corpus import generate_corpus


def main(size: int = 200) -> None:
    corpus = generate_corpus(size, seed=7)
    securify = SecurifyAnalysis()
    securify2 = Securify2Analysis()
    teether = TeEtherAnalysis()

    scores = {name: Counter() for name in ("ethainter", "securify", "securify2", "teether")}

    for contract in corpus:
        truth_vulnerable = contract.is_vulnerable

        ethainter_result = api.analyze(contract.runtime)
        securify_result = securify.analyze(contract.runtime)
        teether_result = teether.analyze(contract.runtime)
        securify2_result = securify2.analyze(
            contract.source,
            contract.name,
            contract.solidity_version,
            contract.has_source,
            contract.inline_assembly,
        )

        outcomes = {
            "ethainter": ethainter_result.flagged,
            "securify": securify_result.flagged,
            "teether": teether_result.flagged,
        }
        if securify2_result.applicable and not securify2_result.timed_out:
            outcomes["securify2"] = securify2_result.flagged
            scores["securify2"]["applicable"] += 1
        elif securify2_result.timed_out:
            scores["securify2"]["timeout"] += 1

        for tool, flagged in outcomes.items():
            if flagged and truth_vulnerable:
                scores[tool]["tp"] += 1
            elif flagged:
                scores[tool]["fp"] += 1
            elif truth_vulnerable:
                scores[tool]["fn"] += 1
            else:
                scores[tool]["tn"] += 1

    print("%-12s %6s %6s %6s %6s %10s %8s" % ("tool", "TP", "FP", "FN", "TN", "precision", "recall"))
    for tool, counter in scores.items():
        tp, fp, fn = counter["tp"], counter["fp"], counter["fn"]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        extra = ""
        if tool == "securify2":
            extra = "  (applicable: %d, timeouts: %d)" % (
                counter["applicable"],
                counter["timeout"],
            )
        print(
            "%-12s %6d %6d %6d %6d %9.1f%% %7.1f%%%s"
            % (tool, tp, fp, fn, counter["tn"], 100 * precision, 100 * recall, extra)
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
