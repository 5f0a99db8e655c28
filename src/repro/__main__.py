"""``python -m repro`` — verification, evaluation and static-analysis
entry points.

* ``python -m repro`` / ``python -m repro eval`` — the full evaluation
  (Tables 1-2, Figures 2 & 5, plus the fcsl-lint sweep); Table 1 runs
  through the parallel cached engine.
* ``python -m repro verify`` — the registry verification sweep alone:
  supervised parallel workers (``--jobs``, ``--timeout``, ``--retries``),
  persistent self-healing obligation cache (``--no-cache`` to disable),
  deterministic fault injection (``--inject``, see docs/ROBUSTNESS.md),
  a durable sweep journal with crash recovery (``--resume``,
  ``--no-journal``), per-obligation-group work units
  (``--split-obligations``), soft resource budgets (``--max-rss``,
  ``--max-disk``), text or JSON output.  Exits 0 (all verified), 1 (a
  verdict failed), 2 (unknown program), or 3 (infrastructure fault: a
  program was quarantined, the sweep was interrupted or checkpointed,
  or the pool degraded to serial).
* ``python -m repro lint`` — static analysis only: lint the registry's
  case studies.
* ``python -m repro race`` — the interference/race rules alone
  (FCSL045+): per-action footprints, non-commuting pairs, race-shaped
  defects.
* ``python -m repro live`` — the liveness rules (FCSL050+): lock-order
  graphs and deadlock cycles, acquire/release discipline, and bounded
  fairness/livelock checking with replayable witnesses
  (docs/LIVENESS.md).  Sweeps every registered program *including* the
  demo rows, so the full sweep exits 1 by design; restrict with
  ``--program`` for the paper's case studies alone.
* ``python -m repro profile`` — a tracing-on, cache-off sweep rendered
  as a hotspot table (span wall times + explorer/cache counters); add
  ``--trace`` for the raw Chrome-trace JSON.
* ``python -m repro explain PROGRAM`` — re-run one program's verifier
  with witness capture, minimize each counterexample by
  replay-confirmed delta debugging, and print the annotated failing
  interleavings (docs/OBSERVABILITY.md).  Exits 1 when witnesses were
  found, 0 when the program verifies cleanly (nothing to explain).
* ``python -m repro serve`` — the resident verification daemon: keeps
  the registry, static pre-pass, fingerprints and obligation cache warm
  and answers versioned JSON requests over a Unix socket (optionally
  HTTP); ``python -m repro watch`` adds the edit-triggered incremental
  re-verification loop, and ``python -m repro client --op ...`` is the
  one-shot RPC helper (docs/SERVING.md).

``lint``, ``race``, ``live``, ``verify``, ``profile`` and ``explain``
share one
exit-code contract: 0 (all clean / verified / nothing to explain), 1
(findings: a diagnostic past the severity threshold, a failed verdict,
or a counterexample witness), 2 (usage: unknown registry program or
malformed flag value), 3 (infrastructure: the analysis itself crashed,
a program was quarantined, the sweep was interrupted, or the pool
degraded to serial).  tests/test_cli_exits.py pins the matrix.
"""

from __future__ import annotations

import argparse
import json
import sys


def _render_diagnostics(args: argparse.Namespace, sweep, tool: str) -> int:
    """Shared lint/race driver: sweep, select, render, exit-code."""
    from .analysis import (
        SelectorError,
        Severity,
        render_json,
        render_text,
        select,
        worst_severity,
    )

    try:
        reports = sweep(names=args.program or None)
    except KeyError as exc:
        print(f"{tool}: {exc.args[0]}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - analysis crash is infra, not usage
        print(f"{tool}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        diagnostics = select(reports, codes=args.select or None)
    except SelectorError as exc:
        # A selector that matches nothing is a usage error (exit 2), not
        # a deceptively clean report.
        print(f"{tool}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(diagnostics, tool=tool))
    else:
        print(render_text(diagnostics, tool=tool))
    worst = worst_severity(diagnostics)
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if worst is not None and worst >= threshold else 0


def _run_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_registry

    return _render_diagnostics(args, lint_registry, "fcsl-lint")


def _run_race(args: argparse.Namespace) -> int:
    from .analysis import race_registry

    return _render_diagnostics(args, race_registry, "fcsl-race")


def _run_live(args: argparse.Namespace) -> int:
    from .analysis import live_registry

    return _render_diagnostics(args, live_registry, "fcsl-live")


def _run_deps(args: argparse.Namespace) -> int:
    """``repro deps``: graph dump for one program, or the FCSL06x
    dependency-hygiene sweep over the registry."""
    if not args.graph_program:
        if args.format == "dot":
            print(
                "fcsl-deps: --format dot needs a PROGRAM to dump "
                "(dot renders one program's graph)",
                file=sys.stderr,
            )
            return 2
        from .analysis import deps_registry

        return _render_diagnostics(args, deps_registry, "fcsl-deps")

    from .analysis import render_text
    from .structures.registry import program

    try:
        info = program(args.graph_program)
    except KeyError as exc:
        print(f"fcsl-deps: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        from .analysis.deps import analyze_obligations
        from .engine.depgraph import depgraph_from_analysis

        analysis = analyze_obligations(info)
        graph = depgraph_from_analysis(info, analysis)
    except Exception as exc:  # noqa: BLE001 - analysis crash is infra
        print(
            f"fcsl-deps: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    diagnostics = analysis.diagnostics()
    if diagnostics:
        print(render_text(diagnostics, tool="fcsl-deps"), file=sys.stderr)
    if graph is None:
        print(
            f"fcsl-deps: {info.name}: per-obligation fingerprints are "
            "unusable (see diagnostics above); the program verifies fully",
            file=sys.stderr,
        )
        return 3
    if args.format == "dot":
        text = graph.to_dot()
    else:
        text = json.dumps(graph.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"fcsl-deps: wrote {args.format} graph to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _dump_witnesses(result, directory: str, tool: str) -> None:
    """Write every witness the sweep captured (one JSON file per program
    with failures, plus an index) into ``directory`` — the CI artifact."""
    import os

    os.makedirs(directory, exist_ok=True)
    index: dict[str, int] = {}
    for outcome in result.outcomes:
        if outcome.report is None:
            continue
        witnesses = [
            {"obligation": o.name, "category": o.category, "witness": w}
            for o in outcome.report.failures()
            for w in o.witnesses
        ]
        if not witnesses:
            continue
        index[outcome.name] = len(witnesses)
        path = os.path.join(directory, f"{outcome.name.replace('/', '-')}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"program": outcome.name, "witnesses": witnesses}, fh, indent=2)
    with open(os.path.join(directory, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"programs": index, "total": sum(index.values())}, fh, indent=2)
    print(
        f"{tool}: wrote {sum(index.values())} witness(es) for "
        f"{len(index)} program(s) to {directory}",
        file=sys.stderr,
    )


def _run_verify(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .engine import FaultPlan, FaultSpecError, run_sweep
    from .obs import tracer

    plan = None
    if args.inject:
        try:
            plan = FaultPlan.parse(";".join(args.inject))
        except FaultSpecError as exc:
            print(f"repro-verify: {exc}", file=sys.stderr)
            return 2
    session = tracer.tracing() if args.trace else nullcontext(None)
    try:
        with session as tr:
            result = run_sweep(
                names=args.program or None,
                jobs=args.jobs,
                cache=not args.no_cache,
                cache_dir=args.cache_dir,
                prepass=not args.no_prepass,
                liveness=args.liveness,
                timeout=args.timeout,
                retries=args.retries,
                faults=plan,
                journal=not args.no_journal,
                resume=args.resume,
                split_obligations=args.split_obligations,
                incremental=args.incremental,
                max_rss_mb=args.max_rss,
                max_disk_mb=args.max_disk,
            )
    except KeyError as exc:
        print(f"repro-verify: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Flag combinations the engine rejects (e.g. --incremental with
        # --split-obligations or --no-cache) are usage errors.
        print(f"repro-verify: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        from .obs.export import write_chrome_trace

        path = write_chrome_trace(tr.records, args.trace)
        print(
            f"repro-verify: wrote {len(tr.records)} trace event(s) to {path} "
            "(load in Perfetto or chrome://tracing)",
            file=sys.stderr,
        )
    if args.witness_dir:
        _dump_witnesses(result, args.witness_dir, "repro-verify")
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return result.exit_code()


def _run_profile(args: argparse.Namespace) -> int:
    """A tracing-on sweep rendered as a hotspot table.

    The cache is always bypassed: hotspots of a verdict replay would
    profile JSON parsing, not verification.  Exit code is the sweep's.
    """
    from .engine import run_sweep
    from .obs import tracer
    from .obs.export import render_profile, write_chrome_trace

    try:
        with tracer.tracing() as tr:
            result = run_sweep(
                names=args.program or None,
                jobs=args.jobs,
                cache=False,
                prepass=not args.no_prepass,
                timeout=args.timeout,
                retries=args.retries,
            )
    except KeyError as exc:
        print(f"repro-profile: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.trace:
        write_chrome_trace(tr.records, args.trace)
        print(
            f"repro-profile: wrote {len(tr.records)} trace event(s) to "
            f"{args.trace}",
            file=sys.stderr,
        )
    print(render_profile(tr.records, limit=args.limit))
    print()
    print(result.render())
    return result.exit_code()


def _run_explain(args: argparse.Namespace) -> int:
    """Re-verify one program with witness capture and explain its failures.

    Exit codes: 1 = witnesses found (and rendered), 0 = the program
    verifies cleanly (nothing to explain), 2 = unknown program, 3 = the
    verifier itself crashed.
    """
    from .obs import witness as obs_witness
    from .obs.minimize import minimize_witness
    from .obs.render import render_witness
    from .structures.registry import program

    try:
        info = program(args.program)
    except KeyError as exc:
        print(f"repro-explain: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        with obs_witness.capturing() as sink:
            report = info.run_verifier()
    except Exception as exc:  # noqa: BLE001 - verifier crash is infra
        print(
            f"repro-explain: verifier crashed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    if not sink:
        status = "verifies cleanly" if report.ok else (
            "fails, but produced no witness (non-schedule failure — "
            "see the report below)"
        )
        print(f"repro-explain: {info.name} {status}: no witness to explain")
        if not report.ok:
            print()
            print(report.pretty())
        return 0
    rendered: list[str] = []
    witnesses = []
    for w in sink:
        if not args.no_minimize and w.replayable:
            w = minimize_witness(w, budget=args.budget)
        witnesses.append(w)
        rendered.append(render_witness(w))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "program": info.name,
                    "witnesses": [w.to_dict() for w in witnesses],
                },
                indent=2,
            )
        )
    else:
        print(
            f"repro-explain: {len(witnesses)} counterexample witness(es) "
            f"for {info.name}"
        )
        for text in rendered:
            print()
            print(text)
    return 1


def _run_eval(args: argparse.Namespace) -> int:
    from .eval.report import main as eval_main

    return eval_main(
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
    )


def _build_server(args: argparse.Namespace):
    """Shared serve/watch construction: session + daemon (not started)."""
    from .serve import DaemonServer, Session

    session = Session(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        trace_dir=args.trace_dir,
    )
    plan = None
    if getattr(args, "inject", None):
        from .engine import FaultPlan

        plan = FaultPlan.parse(";".join(args.inject))
    return DaemonServer(
        session,
        socket_path=args.socket,
        http_port=args.http,
        faults=plan,
    )


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the resident daemon until shutdown."""
    from .engine import FaultSpecError
    from .serve import ServeError

    try:
        server = _build_server(args)
        server.start()
    except FaultSpecError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    except ServeError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-serve: cannot bind {args.socket}: {exc}", file=sys.stderr)
        return 3
    import os

    server.install_signal_handlers()
    extra = ""
    if server.http_address is not None:
        extra = f" (http on {server.http_address[0]}:{server.http_address[1]})"
    print(
        f"repro-serve: pid {os.getpid()} listening on "
        f"{server.socket_path}{extra}",
        file=sys.stderr,
    )
    server.serve_forever()
    print("repro-serve: shut down", file=sys.stderr)
    return 0


def _run_watch(args: argparse.Namespace) -> int:
    """``repro watch``: daemon + poll → fingerprint diff → incremental
    re-verify loop (docs/SERVING.md)."""
    from .engine import FaultSpecError
    from .serve import ServeError, Watcher

    try:
        server = _build_server(args)
        server.start()
    except FaultSpecError as exc:
        print(f"repro-watch: {exc}", file=sys.stderr)
        return 2
    except ServeError as exc:
        print(f"repro-watch: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-watch: cannot bind {args.socket}: {exc}", file=sys.stderr)
        return 3
    server.install_signal_handlers()
    watcher = Watcher(
        server,
        paths=args.paths or [],
        interval=args.interval,
        report_path=args.report,
        out=sys.stderr,
    )
    try:
        return watcher.run(once=args.once, max_cycles=args.max_cycles)
    finally:
        server.stop()


def _run_client(args: argparse.Namespace) -> int:
    from .serve.client import run_client

    return run_client(args)


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: one per case study, capped by "
        "CPU count; 1 = serial in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the persistent obligation cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="obligation cache location (default: .repro-cache/, or "
        "$REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-program wall-clock budget per attempt; a worker past it "
        "is killed and the program retried (default: none; pool path only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="re-dispatches for crashed/timed-out programs before they are "
        "quarantined (default: 1)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FCSL reproduction: verification, evaluation and static analysis",
    )
    sub = parser.add_subparsers(dest="command")

    def add_diag_options(
        p: argparse.ArgumentParser,
        formats: tuple[str, ...] = ("text", "json"),
    ) -> None:
        p.add_argument(
            "--format",
            choices=formats,
            default="text",
            help="output renderer (default: text)",
        )
        p.add_argument(
            "--select",
            action="append",
            metavar="FCSL0xx",
            help="only report codes with this prefix (repeatable)",
        )
        p.add_argument(
            "--program",
            action="append",
            metavar="NAME",
            help="only analyse this registry program (repeatable)",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit non-zero on warnings too, not only errors",
        )

    lint = sub.add_parser("lint", help="run fcsl-lint over the registry")
    add_diag_options(lint)

    race = sub.add_parser(
        "race",
        help="run the fcsl-race interference/commutativity rules (FCSL045+)",
    )
    add_diag_options(race)

    live = sub.add_parser(
        "live",
        help="run the fcsl-live lock-order/deadlock/fairness rules "
        "(FCSL050+; includes the demo rows, so a full sweep exits 1 "
        "by design)",
    )
    add_diag_options(live)

    deps = sub.add_parser(
        "deps",
        help="fcsl-deps: dump one program's per-obligation dependency "
        "graph (JSON/dot), or sweep the registry for dependency-hygiene "
        "diagnostics (FCSL060+)",
    )
    deps.add_argument(
        "graph_program",
        nargs="?",
        default=None,
        metavar="PROGRAM",
        help="registry program whose dependency graph to dump; omit to "
        "run the diagnostics sweep instead",
    )
    add_diag_options(deps, formats=("text", "json", "dot"))
    deps.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the graph dump to FILE instead of stdout",
    )

    verify = sub.add_parser(
        "verify", help="run the registry verification sweep (parallel, cached)"
    )
    verify.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output renderer (default: text)",
    )
    verify.add_argument(
        "--program",
        action="append",
        metavar="NAME",
        help="only verify this registry program (repeatable)",
    )
    verify.add_argument(
        "--no-prepass",
        action="store_true",
        help="skip the fcsl-lint static pre-pass (pure dynamic checking)",
    )
    verify.add_argument(
        "--liveness",
        action="store_true",
        help="enable the bounded livelock detector during exploration: "
        "progress-free lassos are recorded as replayable witnesses "
        "(verdict-preserving; default off)",
    )
    verify.add_argument(
        "--inject",
        action="append",
        metavar="SPEC",
        help="chaos harness: inject a deterministic fault, e.g. "
        "'CAS-lock:crash@1' (kinds: crash, hang, raise, torn, corrupt, "
        "diskfull, sigkill; repeatable, also via $REPRO_FAULTS)",
    )
    verify.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a Chrome-trace JSON of the sweep (obligations, "
        "explorer prunes, cache hits, worker lifecycle) to FILE — "
        "viewable in Perfetto or chrome://tracing",
    )
    verify.add_argument(
        "--witness-dir",
        default=None,
        metavar="DIR",
        help="dump every captured counterexample witness as JSON under DIR "
        "(one file per failing program, plus index.json)",
    )
    verify.add_argument(
        "--resume",
        action="store_true",
        help="replay completed work units from the durable sweep journal "
        "(written under the cache dir) and re-execute only what was "
        "pending or in-flight when the previous sweep died",
    )
    verify.add_argument(
        "--no-journal",
        action="store_true",
        help="skip the durable sweep journal (the sweep is then not "
        "resumable after a crash)",
    )
    verify.add_argument(
        "--split-obligations",
        action="store_true",
        help="decompose each program into per-obligation-category work "
        "units: timeouts, retries, quarantine and journal replay then "
        "apply per (program, group) instead of per program",
    )
    verify.add_argument(
        "--incremental",
        action="store_true",
        help="re-verify only obligations whose static dependency cone "
        "contains an edit (fcsl-deps): fresh obligations replay from "
        "per-obligation fingerprints in the cache entry; requires the "
        "cache, mutually exclusive with --split-obligations",
    )
    verify.add_argument(
        "--max-rss",
        type=float,
        default=None,
        metavar="MIB",
        help="soft resident-memory budget for the sweep process tree; "
        "70%% sheds parallelism, 85%% shrinks explorer caps (sweep "
        "degraded), 100%% checkpoints and exits 3 (resumable)",
    )
    verify.add_argument(
        "--max-disk",
        type=float,
        default=None,
        metavar="MIB",
        help="soft disk budget for the cache directory (entries + journal "
        "+ quarantine); same degradation ladder as --max-rss",
    )
    _add_engine_options(verify)

    profile = sub.add_parser(
        "profile",
        help="run a tracing-on (cache-off) sweep and print the hotspot table",
    )
    profile.add_argument(
        "--program",
        action="append",
        metavar="NAME",
        help="only profile this registry program (repeatable)",
    )
    profile.add_argument(
        "--no-prepass",
        action="store_true",
        help="skip the fcsl-lint static pre-pass (pure dynamic checking)",
    )
    profile.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also write the raw Chrome-trace JSON to FILE",
    )
    profile.add_argument(
        "--limit",
        type=int,
        default=25,
        metavar="N",
        help="hotspot rows to print (default: 25)",
    )
    _add_engine_options(profile)

    explain = sub.add_parser(
        "explain",
        help="re-verify one program with witness capture and print minimized "
        "counterexample interleavings",
    )
    explain.add_argument(
        "program",
        metavar="PROGRAM",
        help="registry program whose failure to explain",
    )
    explain.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output renderer (default: text)",
    )
    explain.add_argument(
        "--no-minimize",
        action="store_true",
        help="print witnesses as captured, skipping delta-debugging "
        "minimization",
    )
    explain.add_argument(
        "--budget",
        type=int,
        default=500,
        metavar="N",
        help="max oracle replays per witness minimization (default: 500)",
    )

    def add_daemon_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--socket",
            default=None,
            metavar="PATH",
            help="Unix socket to serve on (default: serve.sock beside the "
            "obligation cache)",
        )
        p.add_argument(
            "--http",
            type=int,
            default=None,
            metavar="PORT",
            help="also speak line-delimited JSON over HTTP on "
            "127.0.0.1:PORT (0 = pick a free port)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="default worker processes per verify request (default 1: "
            "serial in-process, which keeps the static pre-pass resident)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="obligation cache location (default: .repro-cache/, or "
            "$REPRO_CACHE_DIR)",
        )
        p.add_argument(
            "--trace-dir",
            default=None,
            metavar="DIR",
            help="write one Chrome-trace JSON per request under DIR",
        )
        p.add_argument(
            "--inject",
            action="append",
            metavar="SPEC",
            help="chaos harness for the daemon, e.g. 'verify:conndrop@1' "
            "(drop the client connection before that request's final "
            "response frame)",
        )

    serve = sub.add_parser(
        "serve",
        help="run the resident verification daemon (Unix socket, "
        "optionally HTTP; see docs/SERVING.md)",
    )
    add_daemon_options(serve)

    watch = sub.add_parser(
        "watch",
        help="run the daemon plus an edit-triggered incremental "
        "re-verification loop (docs/SERVING.md)",
    )
    add_daemon_options(watch)
    watch.add_argument(
        "--paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="extra files or directories to watch (default: every "
        "registry program's source modules)",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval (default: 0.5)",
    )
    watch.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="append one NDJSON record per re-verification cycle to FILE",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="exit after the first change batch is processed (CI smoke)",
    )
    watch.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        metavar="N",
        help="exit after N re-verification cycles",
    )

    client = sub.add_parser(
        "client",
        help="one-shot RPC against a running daemon "
        "(e.g. `repro client --op status`)",
    )
    client.add_argument(
        "--op",
        required=True,
        metavar="OP",
        help="operation to request (verify, lint, race, live, deps, "
        "status, reload, shutdown)",
    )
    client.add_argument(
        "--program",
        action="append",
        metavar="NAME",
        help="restrict the op to this registry program (repeatable)",
    )
    client.add_argument(
        "--params",
        default=None,
        metavar="JSON",
        help="extra request params as a JSON object, merged over "
        "--program (e.g. '{\"incremental\": false}')",
    )
    client.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="daemon socket (default: serve.sock beside the obligation cache)",
    )
    client.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="give up waiting for the daemon after this long (default: 600)",
    )
    client.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text prints the result payload; json prints the whole "
        "terminal frame (default: text)",
    )

    evaluate = sub.add_parser("eval", help="run the full evaluation (default)")
    _add_engine_options(evaluate)

    args = parser.parse_args(argv)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "race":
        return _run_race(args)
    if args.command == "live":
        return _run_live(args)
    if args.command == "deps":
        return _run_deps(args)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "explain":
        return _run_explain(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "watch":
        return _run_watch(args)
    if args.command == "client":
        return _run_client(args)
    if args.command == "eval":
        return _run_eval(args)

    # Bare ``python -m repro``: the full evaluation with engine defaults.
    from .eval.report import main as eval_main

    return eval_main()


if __name__ == "__main__":
    sys.exit(main())
