"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Commands:

* ``analyze``  — run Ethainter on a contract (MiniSol source or hex bytecode)
* ``compile``  — compile MiniSol to EVM bytecode
* ``disasm``   — disassemble hex bytecode
* ``decompile``— lift hex bytecode to three-address code (``--dot`` for CFG)
* ``abi``      — print function selectors and event signatures
* ``corpus``   — generate a labeled synthetic corpus to a directory
* ``sweep``    — analyze a generated corpus and print/emit statistics
* ``serve``    — run the analysis-as-a-service HTTP daemon
* ``kill``     — deploy a contract locally and run Ethainter-Kill against it
* ``lint-rules`` — statically lint Datalog rule programs (shipped or files)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import api
from repro.baselines import SecurifyAnalysis, TeEtherAnalysis
from repro.chain import Blockchain
from repro.corpus import generate_corpus
from repro.decompiler import lift
from repro.core.vulnerabilities import (
    UnknownKindError,
    VULNERABILITY_KINDS,
    validate_kinds,
)
from repro.evm.disassembler import format_disassembly
from repro.kill import EthainterKill
from repro.minisol import MiniSolError, compile_source


def _parse_kinds(text: str):
    """argparse type for ``--kinds``: comma-separated, validated."""
    names = [piece.strip() for piece in text.split(",") if piece.strip()]
    try:
        return validate_kinds(names)
    except UnknownKindError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _read_bytecode(args: argparse.Namespace) -> bytes:
    if args.source:
        text = Path(args.source).read_text()
        compiled = compile_source(text, args.contract)
        if isinstance(compiled, dict):
            raise SystemExit(
                "multiple contracts in source; pick one with --contract: %s"
                % ", ".join(compiled)
            )
        return compiled.runtime
    if args.hex:
        text = Path(args.hex).read_text().strip()
        if text.startswith("0x"):
            text = text[2:]
        return bytes.fromhex(text)
    raise SystemExit("provide --source FILE or --hex FILE")


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", help="MiniSol source file")
    parser.add_argument("--contract", help="contract name within the source")
    parser.add_argument("--hex", help="hex-encoded runtime bytecode file")


def _print_stage_profile(stage_seconds, stream=None) -> None:
    """Per-stage wall-clock breakdown (the ``--profile`` view)."""
    from repro.core.pipeline import STAGE_NAMES

    stream = stream if stream is not None else sys.stdout
    total = sum(stage_seconds.values()) or 1.0
    print("pipeline profile:", file=stream)
    for name in STAGE_NAMES:
        if name not in stage_seconds:
            continue
        seconds = stage_seconds[name]
        print(
            "  %-8s %9.3f ms  %5.1f%%"
            % (name, 1000 * seconds, 100 * seconds / total),
            file=stream,
        )
    for name in stage_seconds:
        if name not in STAGE_NAMES:
            print("  %-8s %9.3f ms" % (name, 1000 * stage_seconds[name]), file=stream)


def _print_precision(precision: dict, stream=None) -> None:
    """Precision counters (the second ``--profile`` section)."""
    stream = stream if stream is not None else sys.stdout
    print("precision counters:", file=stream)
    for key, value in precision.items():
        print("  %-28s %d" % (key, value), file=stream)


def _print_orchestrator(stats: dict, stream=None) -> None:
    """Sweep health counters (the ``--profile`` section for the
    orchestrator: crashes, watchdog kills, retries, recycles, dedup)."""
    stream = stream if stream is not None else sys.stdout
    print("orchestrator:", file=stream)
    for key, value in stats.items():
        print("  %-28s %s" % (key, value), file=stream)


def _print_datalog_stats(stats: dict, stream=None) -> None:
    """Datalog engine counters (the ``--profile`` section for the datalog
    engines): flat join/index/iteration counters plus per-rule derivation
    counts, most productive rules first."""
    stream = stream if stream is not None else sys.stdout
    print("datalog engine:", file=stream)
    for key, value in stats.items():
        if isinstance(value, int):
            print("  %-28s %d" % (key, value), file=stream)
    rule_derivations = stats.get("rule_derivations") or {}
    if rule_derivations:
        print("  per-rule derivations:", file=stream)
        for rule, count in rule_derivations.items():
            print("    %6d  %s" % (count, rule), file=stream)


def _request_from_args(args: argparse.Namespace, **overrides) -> api.AnalyzeRequest:
    """Fold the shared ``_analysis_parent`` flags into the public
    :class:`repro.api.AnalyzeRequest` — the CLI speaks the same config
    surface as the library and the HTTP daemon."""
    fields = dict(
        engine=args.engine,
        kinds=args.kinds,
        value_analysis=args.value_analysis,
        deadline=args.deadline,
        model_guards=not getattr(args, "no_guards", False),
        model_storage_taint=not getattr(args, "no_storage", False),
        conservative_storage=getattr(args, "conservative_storage", False),
    )
    fields.update(overrides)
    return api.AnalyzeRequest(**fields)


def cmd_analyze(args: argparse.Namespace) -> int:
    """``repro analyze``: run Ethainter on source or hex bytecode, or a
    multi-contract ``--bundle`` through the cross-contract pass."""
    if getattr(args, "bundle", None):
        return _analyze_bundle_cmd(args)
    runtime = _read_bytecode(args)
    request = _request_from_args(args)
    config = request.config()
    result = api.analyze(runtime, config)
    if args.profile:
        # With --json on stdout, stdout must stay machine-parseable; the
        # human breakdown goes to stderr (stage_seconds is in the JSON).
        stream = sys.stderr if args.json == "-" else sys.stdout
        _print_stage_profile(result.stage_seconds(), stream=stream)
        if result.deadline_exceeded:
            print("  (deadline exceeded)", file=stream)
        _print_precision(result.precision.as_dict(), stream=stream)
        if result.datalog_stats:
            _print_datalog_stats(result.datalog_stats, stream=stream)
    if args.json:
        from repro.core.report import ContractReport

        text = ContractReport.from_result(
            result, name=args.contract or "", bytecode_size=len(runtime)
        ).to_json()
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text)
            print("report written to %s" % args.json)
        return 1 if result.warnings else 0
    if result.error:
        print("analysis error: %s" % result.error)
        return 2
    print(
        "analyzed %d blocks / %d statements in %.3fs"
        % (result.block_count, result.statement_count, result.elapsed_seconds)
    )
    if not result.warnings:
        print("no vulnerabilities found")
        return 0
    for warning in result.warnings:
        location = "pc=0x%x" % warning.pc if warning.pc >= 0 else "slot=%s" % warning.slot
        print("[%s] %s — %s" % (warning.kind, location, warning.detail))
    if args.explain and result.warnings:
        from repro.core.bytecode_datalog import analyze_with_datalog, explain_warning

        taint = analyze_with_datalog(
            facts=result.facts,
            storage=result.storage,
            guards=result.guards,
            options=config.taint_options(),
            track_provenance=True,
        )
        engine = taint.engine  # type: ignore[attr-defined]
        for warning in result.warnings:
            print("\nwhy [%s]:" % warning.kind)
            explanation = explain_warning(engine, warning, taint)
            print("\n".join("  " + line for line in explanation.splitlines()))
    if args.compare:
        securify = SecurifyAnalysis().analyze(runtime)
        teether = TeEtherAnalysis().analyze(runtime)
        print(
            "baselines: securify=%d violation(s), teether=%s"
            % (len(securify.violations), sorted(teether.kinds()) or "none")
        )
    return 1


def _analyze_bundle_cmd(args: argparse.Namespace) -> int:
    """The ``repro analyze --bundle FILE`` path: cross-contract analysis."""
    if args.source or args.hex:
        raise SystemExit("--bundle replaces --source/--hex, not combines")
    from repro.core.report import BundleReport

    try:
        bundle = api.load_bundle_file(Path(args.bundle))
    except (OSError, ValueError) as error:
        raise SystemExit("bad bundle file: %s" % error) from None
    request = _request_from_args(args, bundle=bundle)
    result = api.analyze_bundle(request)
    report = BundleReport.from_result(result)
    if args.json:
        text = report.to_json()
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text)
            print("report written to %s" % args.json)
        return 1 if report.flagged else 0
    for contract, contract_report in zip(bundle.contracts, report.contracts):
        if contract_report.error:
            print(
                "%s (0x%x): analysis error: %s"
                % (contract.label(), contract.address, contract_report.error)
            )
            continue
        print(
            "%s (0x%x): %d blocks / %d statements, %d warning(s)"
            % (
                contract.label(),
                contract.address,
                contract_report.block_count,
                contract_report.statement_count,
                len(contract_report.warnings),
            )
        )
        for warning in contract_report.warnings:
            location = (
                "pc=0x%x" % warning["pc"]
                if warning["pc"] >= 0
                else "slot=%s" % warning["slot"]
            )
            print("  [%s] %s — %s" % (warning["kind"], location, warning["detail"]))
    if result.error:
        print("analysis error: %s" % result.error)
        return 2
    resolved = sum(1 for edge in result.call_edges if edge.callee is not None)
    print(
        "call graph: %d site(s), %d resolved within the bundle"
        % (len(result.call_edges), resolved)
    )
    for edge in result.call_edges:
        target = "0x%x" % edge.callee if edge.callee is not None else "?"
        via = " via slot %d" % edge.slot if edge.slot is not None else ""
        print(
            "  0x%x --%s--> %s%s (pc=0x%x)"
            % (edge.caller, edge.kind, target, via, edge.pc)
        )
    if not result.cross_findings:
        print("no cross-contract vulnerabilities found")
        return 1 if report.flagged else 0
    for finding in result.cross_findings:
        print(
            "[%s] 0x%x pc=0x%x — %s"
            % (finding.kind, finding.address, finding.pc, finding.detail)
        )
    return 1


def cmd_compile(args: argparse.Namespace) -> int:
    """``repro compile``: MiniSol source to runtime bytecode hex."""
    text = Path(args.file).read_text()
    compiled = compile_source(text, args.contract)
    if isinstance(compiled, dict):
        for name, contract in compiled.items():
            print("%s: %d bytes runtime" % (name, len(contract.runtime)))
            print("  runtime: %s" % contract.runtime.hex())
        return 0
    print(compiled.runtime.hex())
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    """``repro disasm``: print a bytecode disassembly listing."""
    runtime = _read_bytecode(args)
    print(format_disassembly(runtime))
    return 0


def cmd_decompile(args: argparse.Namespace) -> int:
    """``repro decompile``: lift bytecode to TAC (or a dot CFG)."""
    runtime = _read_bytecode(args)
    program = lift(runtime)
    if args.dot:
        from repro.ir.dot import to_dot

        print(to_dot(program))
        return 0
    print(program)
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    """``repro corpus``: write a labeled synthetic corpus to disk."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mainnet = None
    if getattr(args, "mainnet", None):
        from repro.corpus.generator import generate_mainnet

        mainnet = generate_mainnet(
            args.mainnet,
            unique=args.size,
            seed=args.seed,
            duplication_seed=args.dup_seed,
        )
        corpus = mainnet.uniques
    else:
        corpus = generate_corpus(args.size, seed=args.seed)
    index = []
    for contract in corpus:
        stem = "%04d_%s" % (contract.index, contract.name)
        (out_dir / (stem + ".msol")).write_text(contract.source)
        (out_dir / (stem + ".hex")).write_text(contract.runtime.hex())
        index.append(
            {
                "index": contract.index,
                "name": contract.name,
                "template": contract.template,
                "labels": sorted(contract.labels),
                "expected_fp_kinds": sorted(contract.expected_fp_kinds),
                "exploitable_selfdestruct": contract.exploitable_selfdestruct,
                "solidity_version": contract.solidity_version,
                "has_source": contract.has_source,
                "inline_assembly": contract.inline_assembly,
                "eth_held": contract.eth_held,
            }
        )
    (out_dir / "index.json").write_text(json.dumps(index, indent=2))
    if mainnet is not None:
        # Unique sources are on disk above; the manifest records the
        # deployed population (assignments into the unique set) plus every
        # seed, so the mainnet is reproducible from this file alone.
        manifest = dict(mainnet.manifest)
        manifest["assignments"] = mainnet.assignments
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
        print(
            "wrote %d unique contracts to %s (mainnet manifest: %d "
            "submissions, dup rate %.1f%%)"
            % (
                len(corpus),
                out_dir,
                mainnet.total,
                100 * mainnet.manifest["duplicate_rate"],
            )
        )
        return 0
    print("wrote %d contracts to %s" % (len(corpus), out_dir))
    return 0


def cmd_abi(args: argparse.Namespace) -> int:
    """``repro abi``: print selectors and event signatures."""
    text = Path(args.file).read_text()
    compiled = compile_source(text, args.contract)
    contracts = compiled if isinstance(compiled, dict) else {compiled.name: compiled}
    from repro.evm.hashing import function_selector

    for name, contract in contracts.items():
        print("contract %s" % name)
        for fn in contract.public_functions:
            print("  0x%08x  %s" % (function_selector(fn.signature), fn.signature))
        for event in contract.ast.events:
            print("  event     %s" % event.signature)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: corpus-wide statistics (and optional JSON).

    ``--jobs N`` fans the corpus out over the supervised orchestrator
    (crash isolation, watchdog, retries); ``--result-cache DIR`` stores
    each finished contract as it completes and resolves contracts an
    earlier run finished, so an interrupted sweep re-run over the same
    directory analyzes only the unfinished remainder.
    """
    from repro.core.report import ContractReport, SweepReport

    mainnet = None
    if getattr(args, "mainnet", None):
        from repro.corpus.generator import generate_mainnet

        mainnet = generate_mainnet(
            args.mainnet,
            unique=args.size,
            seed=args.seed,
            duplication_seed=args.dup_seed,
        )
        corpus = mainnet.contracts()
    else:
        corpus = generate_corpus(args.size, seed=args.seed)
    request = _request_from_args(args)
    summary = api.sweep(
        [contract.runtime for contract in corpus],
        request,
        jobs=args.jobs,
        mp_context=args.mp_context,
        max_retries=args.max_retries,
        result_cache=args.result_cache,
    )
    sweep = SweepReport()
    for contract, entry in zip(corpus, summary.entries):
        sweep.add(
            ContractReport.from_entry(
                entry, name=contract.name, bytecode_size=len(contract.runtime)
            )
        )
    sweep.orchestrator = dict(summary.orchestrator)

    # With --json on stdout the human summary moves to stderr so stdout
    # stays machine-parseable.
    out = sys.stderr if args.json == "-" else sys.stdout
    stats = sweep.summary()
    if mainnet is not None:
        manifest = mainnet.manifest
        print(
            "synthetic mainnet: %d submissions over %d uniques "
            "(dup rate %.1f%%, seed=%s dup_seed=%s)"
            % (
                manifest["total"],
                manifest["unique"],
                100 * manifest["duplicate_rate"],
                manifest["seed"],
                manifest["duplication_seed"],
            ),
            file=out,
        )
    print("analyzed %d contracts (%d flagged, %d errors)" % (
        stats["analyzed"], stats["flagged"], stats["errors"]), file=out)
    if summary.tasks_total and summary.dedup_hits + summary.result_cache_hits:
        print(
            "dedup: %d submissions -> %d unique (%d fan-out, %d result-cache)"
            % (
                summary.tasks_total,
                summary.tasks_unique,
                summary.dedup_hits,
                summary.result_cache_hits,
            ),
            file=out,
        )
    print("flag rate: %.2f%%  avg time: %.1f ms" % (
        100 * stats["flag_rate"], 1000 * stats["avg_elapsed_seconds"]), file=out)
    for kind, count in stats["kind_counts"].items():
        print("  %-32s %d" % (kind, count), file=out)
    if summary.degraded:
        print(
            "degraded to in-process execution: %s" % summary.degraded_reason,
            file=out,
        )
    if stats["error_kind_counts"]:
        print(
            "error kinds: %s"
            % ", ".join(
                "%s=%d" % (kind, count)
                for kind, count in sorted(stats["error_kind_counts"].items())
            ),
            file=out,
        )
    if args.profile:
        _print_stage_profile(stats["stage_seconds"], stream=out)
        if stats["deadline_exceeded"]:
            print(
                "  deadline exceeded on %d contract(s)"
                % stats["deadline_exceeded"],
                file=out,
            )
        _print_precision(stats["precision"], stream=out)
        if stats.get("datalog"):
            _print_datalog_stats(stats["datalog"], stream=out)
        if stats.get("orchestrator"):
            _print_orchestrator(stats["orchestrator"], stream=out)
    if args.json == "-":
        print(sweep.to_json())
    elif args.json:
        Path(args.json).write_text(sweep.to_json())
        print("full report written to %s" % args.json, file=out)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the analysis-as-a-service HTTP daemon.

    The shared analysis flags become the daemon's *default*
    :class:`repro.api.AnalyzeRequest`; every HTTP request may override
    any field.  Runs until SIGTERM/SIGINT, then drains gracefully
    (in-flight requests finish, the worker pool shuts down).
    """
    from repro.core.orchestrator import OrchestratorOptions
    from repro.serve import ServeOptions, serve_forever

    orchestrator = OrchestratorOptions(mp_context=args.mp_context)
    options = ServeOptions(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_queue=args.max_queue,
        result_cache=args.result_cache,
        defaults=_request_from_args(args),
        orchestrator=orchestrator,
    )
    serve_forever(options)
    return 0


def cmd_kill(args: argparse.Namespace) -> int:
    """``repro kill``: deploy locally and run Ethainter-Kill."""
    text = Path(args.source).read_text()
    compiled = compile_source(text, args.contract)
    if isinstance(compiled, dict):
        raise SystemExit("multiple contracts; pick one with --contract")
    chain = Blockchain()
    deployer = 0xDE9107E2
    chain.fund(deployer, 10**20)
    receipt = chain.deploy(deployer, compiled.init, value=args.value)
    if not receipt.success:
        print("deployment failed: %s" % receipt.error)
        return 2
    address = receipt.contract_address
    print("deployed %s at 0x%040x with %d wei" % (compiled.name, address, args.value))
    result = api.analyze(compiled.runtime)
    print("ethainter warnings: %s" % sorted({w.kind for w in result.warnings}))
    killer = EthainterKill(chain)
    outcome = killer.attack(address, result)
    if outcome.destroyed:
        print(
            "DESTROYED in %d transaction(s); plan: %s"
            % (
                outcome.transactions_sent,
                " -> ".join("0x%08x" % call.selector for call in outcome.plan),
            )
        )
        return 1
    print("not destroyed: %s" % (outcome.reason or "exploit failed"))
    return 0


def cmd_lint_rules(args: argparse.Namespace) -> int:
    """``repro lint-rules``: statically lint Datalog rule programs.

    Without arguments, lints every rule program the analysis actually
    evaluates; with file arguments, lints those ``.dl`` files instead.
    Exits 1 when any error-severity finding exists.
    """
    from repro.datalog.lint import (
        format_findings,
        has_errors,
        lint_shipped,
        lint_text,
        stratification_preview,
    )

    findings = []
    if args.files:
        for path in args.files:
            findings.extend(lint_text(Path(path).read_text(), source=path))
    else:
        findings = lint_shipped()
    if findings:
        print(format_findings(findings))
    errors = sum(1 for finding in findings if finding.severity == "error")
    print(
        "%d finding(s) (%d error(s)) in %s"
        % (
            len(findings),
            errors,
            ", ".join(args.files) if args.files else "shipped rule programs",
        )
    )
    if args.strata:
        from repro.datalog.lint import shipped_programs
        from repro.datalog.parser import DatalogSyntaxError, parse_program_lenient

        sources = (
            [(path, Path(path).read_text()) for path in args.files]
            if args.files
            else shipped_programs()
        )
        for name, text in sources:
            try:
                program = parse_program_lenient(text)
            except DatalogSyntaxError:
                continue
            print("strata for %s:" % name)
            for level, stratum in enumerate(stratification_preview(program.rules)):
                print("  %d: %s" % (level, ", ".join(stratum)))
    return 1 if has_errors(findings) else 0


def _analysis_parent() -> argparse.ArgumentParser:
    """Flags shared (with identical spellings) by ``analyze`` and ``sweep``.

    Both commands configure the same :class:`AnalysisConfig`, so they
    accept the same knobs: ``--engine``, ``--value-analysis``,
    ``--deadline``, ``--profile`` and ``--json``.  ``--json`` with no
    argument writes the report to stdout (human output moves to stderr);
    with a path it writes the report file.
    """
    from repro.core.pipeline import ENGINE_CHOICES

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--engine",
        choices=sorted(ENGINE_CHOICES),
        default="python",
        help="fixpoint engine: "
        + "; ".join(
            "%s = %s" % (name, description)
            for name, description in sorted(ENGINE_CHOICES.items())
        ),
    )
    parent.add_argument(
        "--value-analysis",
        action="store_true",
        help="enable the value-set stratum (resolves computed storage indices)",
    )
    parent.add_argument(
        "--deadline",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="per-contract wall-clock budget (paper §6 cutoff; default 120)",
    )
    # Historical spelling of --deadline; kept working but hidden.
    parent.add_argument(
        "--timeout",
        type=float,
        dest="deadline",
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    parent.add_argument(
        "--kinds",
        type=_parse_kinds,
        default=None,
        metavar="KIND[,KIND...]",
        help="restrict reported warnings to these vulnerability kinds "
        "(comma-separated subset of: %s)" % ", ".join(VULNERABILITY_KINDS),
    )
    parent.add_argument(
        "--profile",
        action="store_true",
        help="print wall-clock and precision breakdowns",
    )
    parent.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="FILE",
        help="emit the JSON report: to FILE, or to stdout when no FILE given",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ethainter reproduction: composite smart-contract vulnerability analysis",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    analysis_parent = _analysis_parent()

    analyze = commands.add_parser(
        "analyze", help="run the Ethainter analysis", parents=[analysis_parent]
    )
    _add_input_args(analyze)
    analyze.add_argument(
        "--bundle",
        help="multi-contract bundle JSON file (cross-contract analysis); "
        'shape: {"contracts": [{"address", "source"|"bytecode"|'
        '"source_file"|"hex_file", "name", "storage"}, ...]}',
    )
    analyze.add_argument("--no-guards", action="store_true", help="Fig. 8b ablation")
    analyze.add_argument("--no-storage", action="store_true", help="Fig. 8a ablation")
    analyze.add_argument(
        "--conservative-storage", action="store_true", help="Fig. 8c ablation"
    )
    analyze.add_argument(
        "--compare", action="store_true", help="also run Securify/teEther baselines"
    )
    analyze.add_argument(
        "--explain",
        action="store_true",
        help="print Datalog derivation trees for each warning",
    )
    analyze.set_defaults(func=cmd_analyze)

    abi = commands.add_parser("abi", help="print selectors and event signatures")
    abi.add_argument("file")
    abi.add_argument("--contract")
    abi.set_defaults(func=cmd_abi)

    sweep = commands.add_parser(
        "sweep",
        help="analyze a generated corpus and print/emit statistics",
        parents=[analysis_parent],
    )
    sweep.add_argument("--size", type=int, default=100)
    sweep.add_argument("--seed", type=int, default=2020)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (>1 runs the supervised orchestrator; "
        "1 analyzes in this process)",
    )
    sweep.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per contract for transient worker failures",
    )
    sweep.add_argument(
        "--mp-context",
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method (default: fork where available)",
    )
    sweep.add_argument(
        "--result-cache",
        metavar="DIR",
        help="disk-backed cross-run result cache directory: identities "
        "(bytecode digest + config fingerprint) completed by any earlier "
        "sweep are resolved without analysis, and each contract is stored "
        "as it finishes, so re-running an interrupted sweep over the same "
        "directory analyzes only what is left",
    )
    sweep.add_argument(
        "--mainnet",
        type=int,
        metavar="TOTAL",
        help="sweep a synthetic mainnet of TOTAL submissions drawn with "
        "Zipf-like duplication over --size unique contracts (§6.1 shape)",
    )
    sweep.add_argument(
        "--dup-seed",
        type=int,
        help="seed for the --mainnet duplication distribution "
        "(default: --seed)",
    )
    sweep.set_defaults(func=cmd_sweep)

    serve = commands.add_parser(
        "serve",
        help="run the analysis-as-a-service HTTP daemon",
        parents=[analysis_parent],
        description="Long-lived asyncio HTTP daemon: POST /analyze, "
        "POST /batch (NDJSON streaming), GET /health, GET /metrics.  The "
        "shared analysis flags (--engine, --deadline, --kinds, ...) set "
        "the daemon's default configuration; each request may override "
        "them field by field.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8091,
        help="bind port (0 picks a free port, printed at startup)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="persistent analysis worker processes (0 = inline, no "
        "subprocesses)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="open-request admission bound; past it requests get HTTP 429",
    )
    serve.add_argument(
        "--result-cache",
        metavar="DIR",
        help="disk-backed cross-run result cache directory, shared with "
        "repro sweep --result-cache (same identity keys)",
    )
    serve.add_argument(
        "--mp-context",
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method (default: fork where available)",
    )
    serve.set_defaults(func=cmd_serve)

    compile_cmd = commands.add_parser("compile", help="compile MiniSol source")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("--contract")
    compile_cmd.set_defaults(func=cmd_compile)

    disasm = commands.add_parser("disasm", help="disassemble bytecode")
    _add_input_args(disasm)
    disasm.set_defaults(func=cmd_disasm)

    decompile = commands.add_parser("decompile", help="lift bytecode to TAC")
    _add_input_args(decompile)
    decompile.add_argument(
        "--dot", action="store_true", help="emit a Graphviz CFG instead of TAC text"
    )
    decompile.set_defaults(func=cmd_decompile)

    corpus = commands.add_parser("corpus", help="generate a labeled corpus")
    corpus.add_argument("--size", type=int, default=100)
    corpus.add_argument("--seed", type=int, default=2020)
    corpus.add_argument("--out", default="corpus-out")
    corpus.add_argument(
        "--mainnet",
        type=int,
        metavar="TOTAL",
        help="also write a synthetic-mainnet manifest: TOTAL submissions "
        "assigned over the --size unique contracts with Zipf-like "
        "duplication (manifest.json records seeds and template mix)",
    )
    corpus.add_argument(
        "--dup-seed",
        type=int,
        help="seed for the --mainnet duplication distribution "
        "(default: --seed)",
    )
    corpus.set_defaults(func=cmd_corpus)

    lint_rules = commands.add_parser(
        "lint-rules", help="statically lint Datalog rule programs"
    )
    lint_rules.add_argument(
        "files", nargs="*", help="Datalog files to lint (default: shipped rules)"
    )
    lint_rules.add_argument(
        "--strata",
        action="store_true",
        help="also print the stratification preview per program",
    )
    lint_rules.set_defaults(func=cmd_lint_rules)

    kill = commands.add_parser("kill", help="deploy locally and attack")
    kill.add_argument("source")
    kill.add_argument("--contract")
    kill.add_argument("--value", type=int, default=10**18)
    kill.set_defaults(func=cmd_kill)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MiniSolError as error:
        # A source that does not compile is a usage error, not a crash.
        print("compile error: %s" % error, file=sys.stderr)
        return 2
    except api.RequestFieldError as error:
        # So is an option value the request rejects (``--deadline 0``).
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
