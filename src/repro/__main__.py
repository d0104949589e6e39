"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``experiments``
    Regenerate every table and figure of the paper (``--full`` for the
    benchmark-scale corpora, ``--id tab3_4`` for one experiment).
    ``--jobs N`` fans forest fitting, CV folds, and large
    feature builds out over N worker processes (results are identical
    for any N; see docs/ARCHITECTURE.md "Parallel execution").
    ``--feature-engine`` selects the columnar batch engine (default)
    or the per-record reference path; ``--corpus-engine`` does the
    same for corpus generation (see docs/ARCHITECTURE.md "Corpus
    engine"); ``--feature-cache DIR`` enables
    the on-disk feature-matrix cache (see docs/ARCHITECTURE.md
    "Feature engine").  ``--metrics-out PATH``
    drops a JSON telemetry snapshot (metrics + span trees) next to the
    results; ``--metrics-port N`` additionally serves the live
    Prometheus exposition over HTTP for the duration of the run;
    ``--log-level DEBUG`` turns on structured key=value logging.
``serve-replay``
    Run the sharded online inference service
    (:class:`repro.serving.QoEService`) against a synthetic encrypted
    trace, replayed at ``--speedup`` (0 = as fast as possible).  Loads
    a model from ``--model`` (a ``repro.persistence`` file) or trains
    a fresh one on simulated cleartext corpora.  ``--check-serial``
    re-runs the same trace through the serial ``RealTimeMonitor`` and
    fails unless the diagnosis multisets match exactly — the serving
    determinism gate CI runs.  ``--faults SPEC`` injects a
    deterministic chaos plan (:mod:`repro.faults`) into the replay:
    record corruption/drops/duplicates/reordering, clock skew, shard
    kills and reload failures; with ``--check-serial`` the determinism
    gate then compares only the subscribers the plan never touched.
    ``--slo SPEC`` (repeatable; ``--slo default`` for the built-in set)
    evaluates latency/success objectives over the replay and prints
    their burn rates; ``--postmortem-dir DIR`` arms the flight
    recorder so shard deaths, open circuits and drain timeouts dump
    JSON postmortems there.  ``--metrics-port`` additionally serves
    the live ``/health`` JSON next to ``/metrics``.
    ``--shard-backend socket`` runs the shards over the socket
    transport, placed per ``--placement`` (``local:N``, ``inproc:N``,
    or ``0=host:port,...`` for standalone workers).
``netshard-worker``
    Run one standalone socket shard worker: ``python -m repro
    netshard-worker --listen 0.0.0.0:7000 --auth-key-file shard.key``.
    Every connection must pass an HMAC challenge over the shared key
    before a single frame is read (frames are pickles — an
    unauthenticated reachable port would hand out remote code
    execution), so a non-loopback ``--listen`` requires a key unless
    ``--allow-unauthenticated`` explicitly accepts the risk.  The
    connecting service ships the model and shard config in its
    ``hello``, so the worker needs no local model file; it serves one
    parent at a time, survives reconnects with its shard state
    intact, and exits 0 after a clean drain.
``list``
    List the experiment ids.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager


@contextmanager
def _maybe_metrics_server(port, log, health=None):
    """Serve /metrics (and /health, if given) for the command, if asked to."""
    if port is None:
        yield None
        return
    from repro.obs import start_metrics_server

    server = start_metrics_server(port=port, health=health)
    print(f"serving metrics on {server.url}", file=sys.stderr)
    log.info("metrics_port_open", url=server.url)
    try:
        yield server
    finally:
        server.close()


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import (
        EXPERIMENT_IDS,
        FULL,
        SMALL,
        Workspace,
        run_all,
        run_experiment,
    )
    from repro.obs import (
        configure_logging,
        get_logger,
        get_tracer,
        trace,
        write_snapshot,
    )

    configure_logging(args.log_level)
    log = get_logger("cli")

    config = FULL if args.full else SMALL
    if args.jobs != config.n_jobs:
        config = dataclasses.replace(config, n_jobs=args.jobs)
    if args.feature_cache:
        config = dataclasses.replace(
            config, feature_cache_dir=args.feature_cache
        )
    if args.feature_engine:
        from repro.core.featurex import set_default_engine

        set_default_engine(args.feature_engine)
    if args.corpus_engine:
        config = dataclasses.replace(config, corpus_engine=args.corpus_engine)
    with _maybe_metrics_server(args.metrics_port, log):
        with trace("repro.experiments") as root:
            if args.id:
                workspace = Workspace(config)
                result = run_experiment(args.id, workspace)
                print(result)
                root.add("experiments", 1)
            else:
                print(run_all(config))
                root.add("experiments", len(EXPERIMENT_IDS))

    # The root span's timing tree replaces the old bare wall-clock line.
    print(f"\n{get_tracer().render()}", file=sys.stderr)

    if args.metrics_out:
        snapshot = write_snapshot(args.metrics_out)
        log.info(
            "metrics_written",
            path=args.metrics_out,
            families=len(snapshot["metrics"]),
        )
    return 0


def _train_or_load_framework(args, log):
    """A fitted QoEFramework from --model, or trained on simulated data."""
    if args.model:
        from repro.persistence import load_framework

        framework = load_framework(args.model)
        log.info("model_loaded", path=args.model)
        return framework

    from repro import QoEFramework
    from repro.datasets.generate import (
        generate_adaptive_corpus,
        generate_cleartext_corpus,
    )

    log.info("training_model", sessions=args.train_sessions)
    cleartext = generate_cleartext_corpus(args.train_sessions, seed=args.seed)
    adaptive = generate_adaptive_corpus(
        max(40, args.train_sessions // 2), seed=args.seed + 1
    )
    return QoEFramework(random_state=args.seed, n_estimators=20).fit(
        cleartext.records_with_stall_truth(),
        [r for r in adaptive.records if r.resolutions is not None],
    )


def _diagnosis_multiset(diagnoses, exclude_subscribers=frozenset()):
    """Comparable multiset of diagnoses, optionally minus some subscribers.

    Session ids are ``{subscriber}/online-{n}``, so the subscriber is
    recoverable here — used to restrict the determinism check to
    fault-untouched subscribers under an active chaos plan.
    """
    return sorted(
        (
            d.session_id,
            d.stall_class,
            d.representation_class,
            d.has_quality_switches,
        )
        for d in diagnoses
        if d.session_id.rsplit("/online-", 1)[0] not in exclude_subscribers
    )


def _provisional_multiset(provisional, exclude_subscribers=frozenset()):
    """Comparable multiset of provisional (early) diagnoses."""
    return sorted(
        (
            p.session_id,
            p.n_chunks,
            p.stall_class,
            p.stall_confidence,
            p.representation_class,
            p.representation_confidence,
        )
        for p in provisional
        if p.subscriber_id not in exclude_subscribers
    )


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    from repro.faults import FaultInjector, FaultPlan
    from repro.obs import configure_logging, get_logger, write_snapshot
    from repro.serving import QoEService, TraceReplayer, synthetic_trace

    configure_logging(args.log_level)
    log = get_logger("cli")

    plan = FaultPlan.parse(args.faults)
    injector = None if plan.is_noop else FaultInjector(plan)
    if injector is not None:
        log.info("fault_plan_active", plan=plan.describe())

    framework = _train_or_load_framework(args, log)
    entries = synthetic_trace(
        args.sessions, seed=args.trace_seed, subscribers=args.subscribers
    )
    log.info("trace_ready", sessions=args.sessions, entries=len(entries))

    slo_specs = None
    if args.slo and args.no_telemetry:
        print(
            "error: --slo needs pipeline telemetry; drop --no-telemetry",
            file=sys.stderr,
        )
        return 2
    if args.slo:
        from repro.obs import DEFAULT_SLOS

        slo_specs = []
        for spec in args.slo:
            if spec == "default":
                slo_specs.extend(DEFAULT_SLOS)
            else:
                slo_specs.append(spec)

    service = QoEService(
        framework,
        n_shards=args.shards,
        shard_backend=args.shard_backend,
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        max_batch=args.batch_max,
        max_delay_s=args.batch_delay,
        faults=injector,
        telemetry=not args.no_telemetry,
        slos=slo_specs,
        postmortem_dir=args.postmortem_dir,
        early_after_chunks=args.early_after_chunks,
        early_confidence=args.early_confidence,
        placement=args.placement,
        socket_opts=(
            {"auth_key": _read_auth_key(args.auth_key_file)}
            if args.shard_backend == "socket"
            and (args.auth_key_file or _read_auth_key(None))
            else None
        ),
    )
    with _maybe_metrics_server(args.metrics_port, log, health=service.health):
        service.start()
        stats = TraceReplayer(
            service, speedup=args.speedup, faults=injector
        ).replay(entries)
        diagnoses = service.drain()

    health = service.health()
    print(
        f"replayed {stats.entries} entries ({stats.trace_span_s:.0f}s of "
        f"trace) in {stats.wall_s:.2f}s through {args.shards} "
        f"{args.shard_backend} shard(s): "
        f"{len(diagnoses)} diagnoses, {len(service.alarms)} alarms, "
        f"{stats.shed} shed, model v{health['model_version']}"
    )
    if args.early_after_chunks is not None:
        report = service.early_report()
        print(
            f"early: {len(service.provisional)} provisional diagnoses "
            f"after {args.early_after_chunks} chunk(s) "
            f"(confidence >= {args.early_confidence:g}); "
            + (report.describe() if report is not None else "no report")
        )
    if injector is not None:
        summary = injector.summary()
        print(
            f"chaos: {summary['injected']} injections "
            f"({summary['by_kind']}), {injector.kills_fired} kill(s), "
            f"{health['restarts']} shard restart(s), "
            f"{health['dead_letter']['quarantined']} dead-lettered, "
            f"{health['rejected']} rejected, "
            f"circuits open: {service.supervisor.open_circuits or 'none'}, "
            f"degraded={health['degraded']}"
        )

    if "slo" in health:
        for objective in health["slo"]["objectives"]:
            status = "ok" if objective["ok"] else "BREACHED"
            value = objective["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(
                f"slo {objective['name']} ({objective['spec']}): {status}, "
                f"value={shown}, burn_rate={objective['burn_rate']:.4g}, "
                f"breaches={objective['breaches']}/{objective['windows']}"
            )
    for path in service.recorder.postmortems:
        print(f"postmortem written: {path}")

    if args.metrics_out:
        snapshot = write_snapshot(args.metrics_out)
        log.info(
            "metrics_written",
            path=args.metrics_out,
            families=len(snapshot["metrics"]),
        )

    if args.check_serial:
        from repro import RealTimeMonitor

        # The serial reference always consumes the CLEAN trace.  Under
        # an active chaos plan the comparison is restricted to the
        # subscribers the plan never touched — for those the service
        # guarantees bit-identical diagnoses; fault-affected
        # subscribers legitimately diverge (quarantined records, lost
        # in-flight entries).
        affected = (
            injector.affected_subscribers if injector is not None else frozenset()
        )
        early = None
        if args.early_after_chunks is not None:
            from repro.online import EarlyPredictor

            early = EarlyPredictor(
                framework,
                after_chunks=args.early_after_chunks,
                min_confidence=args.early_confidence,
            )
        monitor = RealTimeMonitor(framework, early=early)
        monitor.feed_many(entries)
        monitor.drain()
        serial = _diagnosis_multiset(monitor.diagnoses, affected)
        sharded = _diagnosis_multiset(diagnoses, affected)
        scope = (
            "all subscribers"
            if not affected
            else f"{args.subscribers - len(affected)}/{args.subscribers} "
            "fault-untouched subscribers"
        )
        if serial != sharded:
            print(
                f"serving determinism check FAILED ({scope}): serial "
                f"produced {len(serial)} diagnoses, service produced "
                f"{len(sharded)} (or contents differ)",
                file=sys.stderr,
            )
            return 1
        print(
            f"serving determinism check ok ({scope}): {len(serial)} "
            "diagnoses, sharded == serial"
        )
        if early is not None:
            serial_prov = _provisional_multiset(monitor.provisional, affected)
            sharded_prov = _provisional_multiset(service.provisional, affected)
            if serial_prov != sharded_prov:
                print(
                    f"early determinism check FAILED ({scope}): serial "
                    f"produced {len(serial_prov)} provisional diagnoses, "
                    f"service produced {len(sharded_prov)} (or contents "
                    "differ)",
                    file=sys.stderr,
                )
                return 1
            print(
                f"early determinism check ok ({scope}): "
                f"{len(serial_prov)} provisional diagnoses, "
                "sharded == serial"
            )
    return 0


def _read_auth_key(key_file) -> bytes:
    """Auth key from ``--auth-key-file`` or ``REPRO_NETSHARD_AUTHKEY``."""
    import os

    if key_file is not None:
        with open(key_file, "rb") as fh:
            return fh.read().strip()
    env = os.environ.get("REPRO_NETSHARD_AUTHKEY", "")
    return env.encode("utf-8")


def _is_loopback_host(host: str) -> bool:
    return host in ("localhost", "::1") or host.startswith("127.")


def _cmd_netshard_worker(args: argparse.Namespace) -> int:
    from repro.obs import configure_logging, get_logger
    from repro.serving import run_worker

    configure_logging(args.log_level)
    log = get_logger("cli")

    host, colon, port = args.listen.rpartition(":")
    if not colon or not host:
        print(
            f"error: --listen wants HOST:PORT, got {args.listen!r}",
            file=sys.stderr,
        )
        return 2
    try:
        port_no = int(port)
    except ValueError:
        print(f"error: bad port in --listen {args.listen!r}", file=sys.stderr)
        return 2

    auth_key = _read_auth_key(args.auth_key_file)
    if not auth_key and not _is_loopback_host(host):
        # Frames are pickles: an unauthenticated reachable worker port
        # is arbitrary code execution for anyone who can connect.
        if not args.allow_unauthenticated:
            print(
                "error: refusing to listen on a non-loopback address "
                "without an auth key (frames are pickles; an open port "
                "means remote code execution). Pass --auth-key-file / "
                "set REPRO_NETSHARD_AUTHKEY, or accept the risk on a "
                "trusted network with --allow-unauthenticated.",
                file=sys.stderr,
            )
            return 2
        log.warning(
            "netshard_worker_unauthenticated",
            host=host,
            detail="no auth key; any peer that can reach this port "
            "gets code execution — trusted networks only",
        )

    log.info(
        "netshard_worker_starting",
        host=host,
        port=port_no,
        authenticated=bool(auth_key),
    )
    kwargs = {}
    if args.max_frame_bytes is not None:
        kwargs["max_frame_bytes"] = args.max_frame_bytes
    return run_worker(
        host,
        port_no,
        config=None,
        on_port=lambda bound: print(
            f"netshard worker listening on {host}:{bound}", file=sys.stderr
        ),
        auth_key=auth_key,
        **kwargs,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENT_IDS

    for experiment_id in EXPERIMENT_IDS:
        print(experiment_id)
    return 0


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="structured-logging threshold (default: INFO)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a JSON telemetry snapshot (metrics + spans) to PATH",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve live Prometheus text exposition on http://127.0.0.1:PORT"
            "/metrics for the duration of the run (0 = ephemeral port)"
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Measuring Video QoE from Encrypted Traffic' "
            "(IMC 2016)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "--full", action="store_true", help="benchmark-scale corpora"
    )
    experiments.add_argument(
        "--id", default=None, help="run a single experiment (see 'list')"
    )
    experiments.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for forest fitting, CV folds, and "
            "feature builds (1 serial, -1 all cores; results identical "
            "for any value)"
        ),
    )
    experiments.add_argument(
        "--feature-engine",
        default=None,
        choices=["columnar", "per-record"],
        help=(
            "feature-matrix build engine (default: columnar; per-record "
            "is the bit-identical reference path)"
        ),
    )
    experiments.add_argument(
        "--corpus-engine",
        default=None,
        choices=["vectorized", "per-session"],
        help=(
            "corpus generation engine (default: vectorized; per-session "
            "is the bit-identical reference path)"
        ),
    )
    experiments.add_argument(
        "--feature-cache",
        default=None,
        metavar="DIR",
        help=(
            "on-disk feature-matrix cache directory; repeated runs on an "
            "unchanged corpus skip the feature builds entirely"
        ),
    )
    _add_telemetry_flags(experiments)
    experiments.set_defaults(func=_cmd_experiments)

    serve = subparsers.add_parser(
        "serve-replay",
        help="replay a synthetic trace through the sharded QoE service",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=100,
        metavar="N",
        help="video sessions in the synthetic trace (default: 100)",
    )
    serve.add_argument(
        "--subscribers",
        type=int,
        default=16,
        metavar="N",
        help="fold the trace onto N subscribers (default: 16)",
    )
    serve.add_argument(
        "--trace-seed", type=int, default=7, help="trace generation seed"
    )
    serve.add_argument(
        "--shards", type=int, default=4, metavar="N", help="shard workers"
    )
    serve.add_argument(
        "--shard-backend",
        choices=("thread", "process", "socket"),
        default="thread",
        help=(
            "run shards as in-process threads, as one process per shard "
            "(true multi-core; the socket transport with --placement "
            "local:N), or over the socket transport placed per "
            "--placement (default: thread)"
        ),
    )
    serve.add_argument(
        "--placement",
        default=None,
        metavar="SPEC",
        help=(
            "shard placement for --shard-backend socket: 'local:N' "
            "(spawned loopback processes, the default), 'inproc:N' "
            "(in-process threads over loopback), or "
            "'0=host:port,1=host:port,...' for standalone "
            "netshard-worker processes"
        ),
    )
    serve.add_argument(
        "--auth-key-file",
        default=None,
        metavar="FILE",
        help=(
            "shared HMAC secret for standalone-worker placements — must "
            "match the workers' --auth-key-file (REPRO_NETSHARD_AUTHKEY "
            "is the env fallback); spawned/in-process placements "
            "generate their own keys automatically"
        ),
    )
    serve.add_argument(
        "--speedup",
        type=float,
        default=0.0,
        metavar="X",
        help=(
            "trace seconds per wall-clock second; 0 replays as fast as "
            "backpressure allows (default: 0)"
        ),
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="per-shard ingest queue bound (default: 1024)",
    )
    serve.add_argument(
        "--policy",
        default="block",
        choices=["block", "drop_oldest", "shed_newest"],
        help="backpressure policy when a shard queue fills (default: block)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=32,
        metavar="N",
        help="micro-batch size for vectorized diagnosis (default: 32)",
    )
    serve.add_argument(
        "--batch-delay",
        type=float,
        default=0.25,
        metavar="S",
        help="max seconds a closed session waits in a partial batch",
    )
    serve.add_argument(
        "--model",
        default=None,
        metavar="PATH",
        help=(
            "load a saved framework (repro.persistence JSON) instead of "
            "training one on simulated corpora"
        ),
    )
    serve.add_argument(
        "--train-sessions",
        type=int,
        default=200,
        metavar="N",
        help="cleartext training sessions when no --model given",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="training seed (no --model)"
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject a deterministic chaos plan: compact form "
            "'corrupt=0.02,kill_shard=1@100,reload_fail=2,seed=7', "
            "inline JSON, or a path to a JSON file (see repro.faults)"
        ),
    )
    serve.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "declare a latency/success objective evaluated over the "
            "replay: 'p99:e2e<=250ms@60s', 'p95:diagnose<=50ms@30s' or "
            "'success>=99.9%%@60s'; repeatable; the literal 'default' "
            "expands to the built-in objective set"
        ),
    )
    serve.add_argument(
        "--postmortem-dir",
        default=None,
        metavar="DIR",
        help=(
            "arm the flight recorder: on a shard death, open circuit or "
            "drain timeout, dump a JSON postmortem (recent events, "
            "per-stage latencies, SLO state) into DIR"
        ),
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help=(
            "disable per-record pipeline telemetry (trace contexts, "
            "stage histograms, exemplars); incompatible with --slo"
        ),
    )
    serve.add_argument(
        "--early-after-chunks",
        type=int,
        default=None,
        metavar="K",
        help=(
            "emit provisional diagnoses on open sessions once they "
            "reach K media chunks (early prediction; see repro.online)"
        ),
    )
    serve.add_argument(
        "--early-confidence",
        type=float,
        default=0.0,
        metavar="T",
        help=(
            "only emit provisional diagnoses whose combined confidence "
            "(tree-vote agreement x session-age ramp) is >= T"
        ),
    )
    serve.add_argument(
        "--check-serial",
        action="store_true",
        help=(
            "also run the serial RealTimeMonitor on the same trace and "
            "fail unless the diagnosis multisets match (with "
            "--early-after-chunks, the provisional multisets too)"
        ),
    )
    _add_telemetry_flags(serve)
    serve.set_defaults(func=_cmd_serve_replay)

    worker = subparsers.add_parser(
        "netshard-worker",
        help="run one standalone socket shard worker (see --placement)",
    )
    worker.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="bind address; port 0 picks an ephemeral port",
    )
    worker.add_argument(
        "--max-frame-bytes",
        type=int,
        default=None,
        metavar="N",
        help="reject frames larger than N bytes (default: 64 MiB)",
    )
    worker.add_argument(
        "--auth-key-file",
        default=None,
        metavar="FILE",
        help=(
            "file holding the shared HMAC secret every connection must "
            "prove before any frame is read (REPRO_NETSHARD_AUTHKEY is "
            "the env fallback); required for non-loopback --listen"
        ),
    )
    worker.add_argument(
        "--allow-unauthenticated",
        action="store_true",
        help=(
            "listen on a non-loopback address without an auth key "
            "(DANGEROUS: frames are pickles, so any peer that can reach "
            "the port gets code execution; trusted networks only)"
        ),
    )
    worker.add_argument(
        "--log-level",
        default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="structured-logging threshold (default: INFO)",
    )
    worker.set_defaults(func=_cmd_netshard_worker)

    listing = subparsers.add_parser("list", help="list experiment ids")
    listing.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
