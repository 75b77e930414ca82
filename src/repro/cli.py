"""Command-line interface: ``python -m repro <command>``.

The CLI is a thin layer over the declarative experiment API of
:mod:`repro.api`: each attack-flow command builds an
:class:`~repro.api.ExperimentSpec` (or a :class:`~repro.api.CampaignSpec`
grid), hands it to the runner, and formats the returned
:class:`~repro.api.ExperimentRecord`.  Any cell the CLI can run is therefore
also available programmatically, serializable to JSON, and shardable across
worker processes.

Commands
--------
``attack``     run the full TrojanZero flow on one benchmark (one spec)
``campaign``   run a benchmark x Pth x design grid, serially or ``--jobs N``
               in parallel, streaming JSONL records with ``--resume`` support
               (``--server URL`` routes the grid through a fleet server)
``serve``      run the campaign fleet service (job queue + spec-hash result
               cache + columnar store) until interrupted
``table1``     regenerate the paper's Table I across all five benchmarks
``detect``     run the evasion experiment on a benchmark (``--mode traces``
               selects the per-cycle trace suite)
``traces``     run the side-channel trace lab with configurable acquisition
               (sequences, repeats, sensor noise, ADC bits, jitter)
``atpg``       run the defender's ATPG on a circuit and report coverage
``prob``       report rare nodes at a probability threshold
``power``      report power/area of a circuit under the 65nm-class model
``equiv``      SAT equivalence check between two .bench files
``lint``       AST-based invariant checker over the source tree (seed
               discipline, payload purity, service lock/import hygiene);
               ``--json`` for machine findings

Circuit arguments accept any name in the :data:`repro.api.CIRCUITS` registry
(c17, c432, c499, c880, c1355, c1908, c3540, c6288, plus anything registered
at runtime) or a path to an ISCAS ``.bench`` file.  ``attack``, ``detect``
and ``campaign`` take ``--seed`` for end-to-end deterministic reruns and
``--json`` to emit the structured record instead of the human report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .api import (
    CampaignRunner,
    CampaignSpec,
    DETECTORS,
    ExperimentRecord,
    ExperimentSpec,
    FleetPolicy,
    RetryPolicy,
    detect_seed_for,
    execute_experiment,
    resolve_circuit,
    resolve_designs,
)
from .api.registry import ensure_circuit_ref
from .bench import save_bench
from .core import TableRow, format_table
from .power import analyze, optimize_netlist, tech65_library


def _resolve_circuit(ref: str):
    try:
        return resolve_circuit(ref)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _check_circuit_ref(ref: str) -> None:
    """Fail fast on a bad circuit reference without building the circuit."""
    try:
        ensure_circuit_ref(ref)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _build_spec(**fields) -> ExperimentSpec:
    """Spec construction with argparse-style errors instead of tracebacks."""
    try:
        return ExperimentSpec(**fields)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _design_ref(counter_bits: Optional[int]) -> Optional[str]:
    return f"counter{counter_bits}" if counter_bits is not None else None


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _cmd_attack(args: argparse.Namespace) -> int:
    spec = _build_spec(
        circuit=args.circuit,
        pth=args.pth,
        design=_design_ref(args.counter_bits),
        seed=args.seed,
        mc_sessions=args.mc_sessions,
    )
    _check_circuit_ref(args.circuit)
    outcome = execute_experiment(spec)
    if args.json:
        print(outcome.record.to_json_line())
    else:
        print(outcome.result.summary())
        if args.mc_sessions > 0 and outcome.record.pft_monte_carlo is not None:
            print(
                f"  Pft (Monte-Carlo, {args.mc_sessions} sessions) = "
                f"{outcome.record.pft_monte_carlo:.3e}"
            )
    if outcome.result.success and args.output:
        save_bench(outcome.result.insertion.infected, args.output)
        if not args.json:
            print(f"TZ-infected netlist written to {args.output}")
    return 0 if outcome.result.success else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    campaign = CampaignSpec.table1(seed=args.seed)
    rows = []
    for spec in campaign:
        record = execute_experiment(spec).record
        rows.append(TableRow.from_record(record))
        status = "ok" if record.success else "FAILED"
        print(f"  {spec.circuit}: {status}", file=sys.stderr)
    print(format_table(rows))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    spec = _build_spec(
        circuit=args.circuit,
        pth=args.pth,
        design=_design_ref(args.counter_bits),
        seed=args.seed,
        detector=args.mode,
        detector_chips=args.chips,
        additive_gates=args.additive_gates,
    )
    _check_circuit_ref(args.circuit)
    outcome = execute_experiment(spec)
    if args.json:
        # Always JSON on stdout, even when insertion fails (success: false).
        print(outcome.record.to_json_line())
        return 0 if outcome.result.success else 1
    if not outcome.result.success:
        print("TrojanZero insertion failed; nothing to detect")
        return 1
    report = outcome.evasion
    print(f"golden flagged:     {report.golden_rates}")
    print(f"additive flagged:   {report.additive_rates}")
    print(f"TrojanZero flagged: {report.trojanzero_rates}")
    verdict = "EVADES" if report.trojanzero_evades() else "is CAUGHT by"
    print(f"TrojanZero {verdict} the {args.mode}-mode detectors")
    return 0


def _validate_campaign(campaign: CampaignSpec) -> None:
    """Fail fast on unresolvable references before any cell runs."""
    for spec in campaign:
        try:
            ensure_circuit_ref(spec.circuit)
            resolve_designs(spec.design)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        if spec.detector is not None and spec.detector not in DETECTORS:
            raise SystemExit(
                f"unknown detector suite {spec.detector!r}; "
                f"registered: {DETECTORS.names()}"
            )


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        if args.table1:
            if args.circuits or args.pths is not None or args.designs:
                raise SystemExit(
                    "--table1 is a fixed grid; it cannot be combined with "
                    "--circuits/--pths/--designs"
                )
            campaign = CampaignSpec.table1(
                seed=args.seed,
                mc_sessions=args.mc_sessions,
                detector=args.detector,
                detector_chips=args.chips,
                additive_gates=args.additive_gates,
            )
        else:
            if not args.circuits:
                raise SystemExit("campaign needs --circuits (or --table1)")
            campaign = CampaignSpec.sweep(
                circuits=_csv(args.circuits),
                pths=[float(p) for p in _csv(args.pths or "0.992")],
                designs=_csv(args.designs) if args.designs else (None,),
                seeds=(args.seed,),
                detectors=(args.detector,),
                mc_sessions=args.mc_sessions,
                detector_chips=args.chips,
                additive_gates=args.additive_gates,
            )
    except ValueError as exc:  # bad --pths / --mc-sessions values
        raise SystemExit(str(exc)) from None
    _validate_campaign(campaign)
    if args.resume and not args.out:
        raise SystemExit("--resume requires --out")
    if args.server and args.resume:
        raise SystemExit(
            "--resume is a local-mode flag; the fleet server already "
            "dedups by canonical spec hash (no cell is computed twice)"
        )

    start = time.perf_counter()

    def progress(record: ExperimentRecord) -> None:
        took = record.runtime.get("timings_s", {}).get("total")
        took_s = f" [{took:.1f}s]" if took is not None else ""
        if record.error is not None:
            status = f"error: {record.error}"
        elif record.success:
            status = "ok"
        else:
            status = "no insertion"
        print(
            f"  {record.spec.circuit} pth={record.spec.pth:g}"
            f"{' ' + record.spec.design if record.spec.design else ''}: "
            f"{status}{took_s}",
            file=sys.stderr,
        )

    try:
        policy = FleetPolicy(
            timeout_s=args.timeout,
            retry=RetryPolicy(max_retries=args.retries),
            max_errors=args.max_errors,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.server:
        return _campaign_via_server(args, campaign, policy, progress, start)
    runner = CampaignRunner(
        campaign, jobs=args.jobs, out=args.out, resume=args.resume, policy=policy
    )
    result = runner.run(progress)
    if args.json:
        print(json.dumps([r.to_dict() for r in result.records], sort_keys=True))
    else:
        elapsed = time.perf_counter() - start
        print(f"campaign {campaign.name!r}: {result.summary()} [{elapsed:.1f}s]")
    return 1 if result.errors else 0


def _campaign_via_server(args, campaign, policy, progress, start) -> int:
    """Route a campaign grid through a running fleet server: submit the
    spec, stream records back (optionally appending to ``--out``), and
    mirror the local command's output and exit-code behavior."""
    from .service import FleetClient, FleetServiceError

    client = FleetClient(args.server)
    records = []
    sink = None
    try:
        client.wait_ready()  # tolerate a server that is still binding
        job_id = client.submit(campaign, jobs=args.jobs, policy=policy)
        if args.out:
            sink = open(args.out, "a", encoding="utf-8")
        for record in client.stream(job_id):
            records.append(record)
            if sink is not None:
                sink.write(record.to_json_line() + "\n")
                sink.flush()
            progress(record)
        status = client.status(job_id)
    except FleetServiceError as exc:
        raise SystemExit(str(exc)) from None
    finally:
        if sink is not None:
            sink.close()
    errors = [r for r in records if r.error is not None]
    if args.json:
        print(json.dumps([r.to_dict() for r in records], sort_keys=True))
    else:
        elapsed = time.perf_counter() - start
        parts = [
            f"{len(records)} records from {args.server} ({status.state})",
            f"{sum(1 for r in records if r.error is None and r.success)} "
            "insertions succeeded",
            f"{len(errors)} errors",
        ]
        if status.n_cached:
            parts.append(f"{status.n_cached} served from cache")
        if args.out:
            parts.append(f"records -> {args.out}")
        print(f"campaign {campaign.name!r}: {', '.join(parts)} [{elapsed:.1f}s]")
    return 1 if errors or status.state != "done" else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api.chaos import ChaosConfigError, ChaosSpec
    from .service import FleetServer

    try:
        ChaosSpec.from_env()  # surface a malformed REPRO_CHAOS before binding
        policy = FleetPolicy(
            timeout_s=args.timeout,
            retry=RetryPolicy(max_retries=args.retries),
            max_errors=args.max_errors,
        )
        server = FleetServer(
            host=args.host,
            port=args.port,
            data_dir=args.data,
            jobs=args.jobs,
            policy=policy,
            use_cache=not args.no_cache,
        )
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"fleet server on {server.url} (data: {server.data_dir}, "
        f"{args.jobs} worker{'s' if args.jobs != 1 else ''}/job, cache "
        f"{'off' if args.no_cache else 'on'}); Ctrl-C for graceful shutdown",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining running job)...", file=sys.stderr)
        server.close()
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from .power import tech65_library
    from .traces import TraceLabConfig, trace_evasion_experiment

    try:
        config = TraceLabConfig(
            n_sequences=args.sequences,
            n_vectors=args.vectors,
            n_repeats=args.repeats,
            noise_rel=args.noise,
            adc_bits=args.adc_bits,
            jitter_cycles=args.jitter,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    spec = _build_spec(
        circuit=args.circuit,
        pth=args.pth,
        design=_design_ref(args.counter_bits),
        seed=args.seed,
    )
    _check_circuit_ref(args.circuit)
    outcome = execute_experiment(spec)
    if not outcome.result.success:
        if args.json:
            print(outcome.record.to_json_line())
        else:
            print("TrojanZero insertion failed; nothing to trace")
        return 1
    report = trace_evasion_experiment(
        outcome.result.thresholds.circuit,
        outcome.result.insertion.infected,
        tech65_library(),
        additive_gates=args.additive_gates,
        n_chips=args.chips,
        seed=detect_seed_for(args.seed),
        config=config,
    )
    if args.json:
        if config == TraceLabConfig():
            # Default acquisition: the record is exactly what a campaign cell
            # with detector="traces" would produce, and its payload is
            # reproducible from its own spec.
            record_spec = spec.with_(
                detector="traces",
                detector_chips=args.chips,
                additive_gates=args.additive_gates,
            )
            record = ExperimentRecord.from_run(
                record_spec, outcome.result, report, outcome.record.runtime
            )
        else:
            # Custom acquisition flags are not expressible in a spec, so the
            # verdicts must not enter the spec-reproducible detection payload;
            # they ride in the non-payload traces section alongside the
            # acquisition config instead.
            import dataclasses

            record = ExperimentRecord.from_run(
                spec, outcome.result, None, outcome.record.runtime
            )
            extra = dict(report.trace_diagnostics)
            extra["rates"] = {
                "golden": report.golden_rates,
                "additive": report.additive_rates,
                "trojanzero": report.trojanzero_rates,
            }
            extra["evades"] = report.trojanzero_evades()
            record = dataclasses.replace(record, traces=extra)
        print(record.to_json_line())
        return 0
    diag = report.trace_diagnostics
    cfg = diag["config"]
    print(
        f"trace lab on {args.circuit}: {cfg['n_sequences']} sequences x "
        f"{cfg['n_vectors']} vectors x {cfg['n_repeats']} repeats, "
        f"{args.chips} chips/population"
    )
    print(
        f"  noise {cfg['noise_rel']:.3f} rel, ADC {cfg['adc_bits']} bits, "
        f"jitter {cfg['jitter_cycles']} cycles"
    )
    print(f"  hypothesis nets: {', '.join(diag['hypothesis_nets'])}")
    print(f"golden flagged:     {report.golden_rates}")
    print(f"additive flagged:   {report.additive_rates}")
    print(f"TrojanZero flagged: {report.trojanzero_rates}")
    stats = diag["max_statistic"]
    print(f"max statistics (golden / additive / TZ):")
    for name in sorted(stats["golden"]):
        print(
            f"  {name:<5} {stats['golden'][name]:8.2f} "
            f"{stats['additive'][name]:8.2f} {stats['trojanzero'][name]:8.2f}"
            f"   (threshold {diag['thresholds'][name]:.2f})"
        )
    verdict = "EVADES" if report.trojanzero_evades() else "is CAUGHT by"
    print(f"TrojanZero {verdict} the trace detectors")
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from .atpg import AtpgConfig, generate_test_set

    circuit = optimize_netlist(_resolve_circuit(args.circuit))
    config = AtpgConfig(
        backtrack_limit=args.backtrack_limit,
        target_coverage=args.target_coverage,
        max_patterns=args.max_patterns,
    )
    ts = generate_test_set(circuit, config)
    print(f"circuit:   {circuit.name} ({circuit.num_logic_gates} gates)")
    print(f"patterns:  {ts.n_patterns}")
    print(f"coverage:  {100 * ts.coverage:.2f}% of {ts.total_faults} collapsed faults")
    print(
        f"holes:     {len(ts.aborted)} aborted, {len(ts.untestable)} untestable, "
        f"{len(ts.not_attempted)} beyond budget"
    )
    return 0


def _cmd_prob(args: argparse.Namespace) -> int:
    from .prob import rare_nodes

    circuit = _resolve_circuit(args.circuit)
    rare = rare_nodes(circuit, args.pth)
    print(f"{len(rare)} candidate nodes at Pth = {args.pth}:")
    for net, p_one in rare[: args.limit]:
        polarity = f"P1={p_one:.5f}" if p_one > 0.5 else f"P0={1 - p_one:.5f}"
        print(f"  {circuit.gate(net).gate_type.value:<5} {net:<20} {polarity}")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    circuit = _resolve_circuit(args.circuit)
    if args.synthesize:
        circuit = optimize_netlist(circuit)
    report = analyze(circuit, tech65_library())
    print(f"circuit:  {circuit.name} ({circuit.num_logic_gates} gates)")
    print(f"total:    {report.total_uw:.2f} uW")
    print(f"dynamic:  {report.dynamic_uw:.2f} uW")
    print(f"leakage:  {report.leakage_uw:.3f} uW")
    print(f"area:     {report.area_ge:.1f} GE ({report.area_um2:.1f} um2)")
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .verify import check_equivalence

    golden = _resolve_circuit(args.golden)
    candidate = _resolve_circuit(args.candidate)
    result = check_equivalence(golden, candidate, random_vectors=args.random_vectors)
    print(f"status: {result.status.value}")
    if result.counterexample:
        print(f"differing output: {result.differing_output}")
        print(f"witness: {result.counterexample}")
    return 0 if bool(result) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import run_lint

    return run_lint(
        args.paths, as_json=args.json, allow=args.allow, select=args.select
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TrojanZero (DATE 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attack", help="run the full TrojanZero flow")
    p.add_argument("circuit")
    p.add_argument("--pth", type=float, default=0.992)
    p.add_argument("--counter-bits", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed for a fully deterministic rerun")
    p.add_argument("--mc-sessions", type=int, default=0,
                   help="Monte-Carlo Pft validation sessions (0 = analytic only)")
    p.add_argument("--output", help="write the TZ-infected .bench here")
    p.add_argument("--json", action="store_true",
                   help="emit the structured ExperimentRecord as JSON")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "campaign",
        help="run a benchmark x Pth x design grid with JSONL records",
    )
    p.add_argument("--circuits", help="comma-separated circuit refs (names or .bench paths)")
    p.add_argument("--pths", default=None,
                   help="comma-separated Pth values (default: 0.992)")
    p.add_argument("--designs", default=None,
                   help="comma-separated design refs (default: full HT library per cell)")
    p.add_argument("--table1", action="store_true",
                   help="use the paper's Table I grid instead of --circuits/--pths")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mc-sessions", type=int, default=0)
    p.add_argument("--detector", default=None,
                   help="detector suite to run on successful insertions "
                        f"({'|'.join(DETECTORS.names())})")
    p.add_argument("--chips", type=int, default=30)
    p.add_argument("--additive-gates", type=int, default=16)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = in-process, campaign order preserved)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-clock timeout in seconds; a cell past "
                        "its deadline errors out and its worker pool is "
                        "recycled (pool mode only)")
    p.add_argument("--retries", type=int, default=2,
                   help="max retries per cell for transient failures "
                        "(worker death, timeout, I/O); deterministic "
                        "pipeline errors never retry")
    p.add_argument("--max-errors", type=int, default=None,
                   help="circuit breaker: stop submitting new cells after "
                        "this many error records (the JSONL sink is still "
                        "flushed and finalized)")
    p.add_argument("--out", help="append one JSON record per cell to this JSONL file")
    p.add_argument("--resume", action="store_true",
                   help="skip cells whose records already exist in --out; "
                        "dedup is last-record-wins per cell (keyed on the "
                        "canonical spec hash), so a cell whose latest record "
                        "is an error re-runs while an older error followed "
                        "by a success stays done")
    p.add_argument("--server", default=None, metavar="URL",
                   help="submit the grid to a running fleet server "
                        "(see `repro serve`) instead of executing locally; "
                        "records stream back as cells finish and repeated "
                        "submissions are served from the spec-hash cache")
    p.add_argument("--json", action="store_true",
                   help="print all records as a JSON array on stdout")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="run the campaign fleet service (job queue + result cache + "
             "columnar store)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8732,
                   help="bind port (0 picks an ephemeral port)")
    p.add_argument("--data", default="fleet_data",
                   help="service state directory (cache/, store/, jobs/)")
    p.add_argument("--jobs", type=int, default=1,
                   help="default worker processes per submitted job")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="max retries per cell for transient failures")
    p.add_argument("--max-errors", type=int, default=None,
                   help="per-job circuit breaker on error records")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the spec-hash result cache (recompute "
                        "every cell)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("table1", help="regenerate the paper's Table I")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("atpg", help="run defender ATPG, report coverage")
    p.add_argument("circuit")
    p.add_argument("--backtrack-limit", type=int, default=20)
    p.add_argument("--target-coverage", type=float, default=0.97)
    p.add_argument("--max-patterns", type=int, default=64)
    p.set_defaults(func=_cmd_atpg)

    p = sub.add_parser("prob", help="list rare nodes at a threshold")
    p.add_argument("circuit")
    p.add_argument("--pth", type=float, default=0.992)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("power", help="power/area report")
    p.add_argument("circuit")
    p.add_argument("--synthesize", action="store_true")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("detect", help="run the evasion experiment")
    p.add_argument("circuit")
    p.add_argument("--pth", type=float, default=0.992)
    p.add_argument("--counter-bits", type=int, default=3)
    p.add_argument("--additive-gates", type=int, default=16)
    p.add_argument("--chips", type=int, default=30)
    p.add_argument("--mode", choices=tuple(DETECTORS.names()), default="paper")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true",
                   help="emit the structured ExperimentRecord as JSON")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "traces", help="run the side-channel trace lab (per-cycle power traces)"
    )
    p.add_argument("circuit")
    p.add_argument("--pth", type=float, default=0.992)
    p.add_argument("--counter-bits", type=int, default=3)
    p.add_argument("--additive-gates", type=int, default=16)
    p.add_argument("--chips", type=int, default=16)
    p.add_argument("--sequences", type=int, default=24,
                   help="stimulus sequences per acquisition")
    p.add_argument("--vectors", type=int, default=33,
                   help="vectors per sequence (trace has vectors-1 cycles)")
    p.add_argument("--repeats", type=int, default=8,
                   help="acquisitions per chip over the same stimuli")
    p.add_argument("--noise", type=float, default=0.01,
                   help="sensor noise sigma relative to the mean trace sample")
    p.add_argument("--adc-bits", type=int, default=12,
                   help="ADC quantization bits (0 = disabled)")
    p.add_argument("--jitter", type=int, default=0,
                   help="acquisition-trigger jitter in cycles")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true",
                   help="emit the structured ExperimentRecord as JSON")
    p.set_defaults(func=_cmd_traces)

    p = sub.add_parser("equiv", help="SAT equivalence check of two circuits")
    p.add_argument("golden")
    p.add_argument("candidate")
    p.add_argument("--random-vectors", type=int, default=512)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser(
        "lint",
        help="AST-based invariant checker (seed discipline, payload "
             "purity, service hygiene); exits 1 on any finding",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to check (default: src/)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable findings "
                        "(rule, path, line, snippet)")
    p.add_argument("--allow", metavar="FILE", default=None,
                   help="suppression allowlist file (path:CODE or "
                        "path:line:CODE per line); the shipped tree "
                        "needs none")
    p.add_argument("--select", metavar="CODES", default=None,
                   help="comma-separated rule codes to run (default: all)")
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[list] = None) -> int:
    from .api.chaos import ChaosConfigError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChaosConfigError as exc:
        # A malformed REPRO_CHAOS is a usage error, not a crash: one line,
        # no traceback from inside campaign/pool startup.
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
