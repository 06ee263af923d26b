"""Command-line interface: reproduce paper artifacts from a shell.

Usage::

    python -m repro list                 # available experiment ids
    python -m repro run fig10            # reproduce one artifact
    python -m repro run all              # the whole evaluation section
    python -m repro run table3 --seed 7  # different measurement noise
    python -m repro run fig5 --csv out/  # also dump data series as CSV

The CLI is a thin shell over :mod:`repro.experiments`; everything it
prints comes from the same functions the benchmark harness asserts on.
Each subcommand imports what it uses, so ``repro query`` starts without
numpy or the model stack.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Sequence

from repro.errors import ReproError
from repro.rng import DEFAULT_SEED
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Greenness of In-Situ and "
            "Post-Processing Visualization Pipelines' (IPDPSW 2015)"
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiment ids")

    run = sub.add_parser("run", help="reproduce one artifact (or 'all')")
    run.add_argument("experiment",
                     help="experiment id from 'list', or 'all'")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="measurement-noise seed (default: %(default)s)")
    run.add_argument("--csv", metavar="DIR", default=None,
                     help="also write any power-profile data as CSV here")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run experiments over N worker processes "
                          "(default: %(default)s, in-process)")
    run.add_argument("--cache", metavar="DIR", default=None,
                     help="persist results here keyed by seed + testbed "
                          "spec; later runs load instead of recomputing")

    report = sub.add_parser(
        "report", help="write a consolidated Markdown replication report")
    report.add_argument("path", help="output file, e.g. out/REPORT.md")
    report.add_argument("--seed", type=int, default=DEFAULT_SEED)

    verify = sub.add_parser(
        "verify", help="check the reproduction against every paper anchor")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)

    faults = sub.add_parser(
        "faults", help="run one pipeline under injected storage faults")
    faults.add_argument("--pipeline", choices=("post", "insitu"),
                        default="post",
                        help="pipeline to run (default: %(default)s)")
    faults.add_argument("--case", type=int, default=1, metavar="N",
                        help="case study index (default: %(default)s)")
    faults.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="fault-plan and measurement seed "
                             "(default: %(default)s)")
    faults.add_argument("--transient-rate", type=float, default=0.02,
                        help="per-op transient I/O error probability "
                             "(default: %(default)s)")
    faults.add_argument("--sector-rate", type=float, default=0.005,
                        help="per-read latent-sector-error probability "
                             "(default: %(default)s)")
    faults.add_argument("--bitflip-rate", type=float, default=0.0,
                        help="per-read DRAM bit-flip probability "
                             "(default: %(default)s)")
    faults.add_argument("--fail-at-op", type=int, default=None, metavar="N",
                        help="kill the device at absolute op N "
                             "(default: no device failure)")
    faults.add_argument("--checkpoint-interval", type=int, default=0,
                        metavar="N",
                        help="in-situ checkpoint cadence in iterations "
                             "(default: %(default)s, no checkpoints)")

    serve = sub.add_parser(
        "serve", help="serve experiments over JSON/HTTP from warm workers")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="TCP port (default: 8077)")
    serve.add_argument("--jobs", type=int, default=2, metavar="J",
                       help="concurrent compute workers, each holding "
                            "primed Labs (default: %(default)s)")
    serve.add_argument("--cache", metavar="DIR", default=None,
                       help="persistent disk tier shared with 'repro run "
                            "--cache' (default: memory tier only)")
    serve.add_argument("--mem-entries", type=int, default=None, metavar="N",
                       help="memory-tier LRU entry bound (default: 128)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")

    cluster = sub.add_parser(
        "cluster", help="serve experiments from N shard processes behind "
                        "a consistent-hash router")
    cluster.add_argument("--shards", type=int, default=2, metavar="N",
                         help="shard worker processes (default: %(default)s)")
    cluster.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: %(default)s)")
    cluster.add_argument("--port", type=int, default=None, metavar="P",
                         help="router TCP port (default: 8077); shards "
                              "bind ephemeral ports behind it")
    cluster.add_argument("--jobs", type=int, default=2, metavar="J",
                         help="compute workers per shard "
                              "(default: %(default)s)")
    cluster.add_argument("--cache", metavar="DIR", default=None,
                         help="disk tier and Lab snapshots shared by "
                              "every shard; a key that fails over is a "
                              "disk hit instead of a recompute")
    cluster.add_argument("--hot-threshold", type=int, default=None,
                         metavar="N", dest="hot_threshold",
                         help="cached hits before the router holds a "
                              "key's reply and answers it with no shard "
                              "hop (default: 8)")
    cluster.add_argument("--queue-depth", type=int, default=None,
                         metavar="N", dest="queue_depth",
                         help="per-shard admission watermark; above it "
                              "requests are shed with 503 + Retry-After "
                              "(default: 64)")
    cluster.add_argument("--verbose", action="store_true",
                         help="log one line per routed HTTP request")

    query = sub.add_parser(
        "query", help="run one experiment on a running 'repro serve' "
                      "or 'repro cluster'")
    query.add_argument("experiment", help="experiment id from 'list'")
    query.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="measurement-noise seed (default: %(default)s)")
    query.add_argument("--host", default="127.0.0.1",
                       help="server address (default: %(default)s)")
    query.add_argument("--port", type=int, default=None, metavar="N",
                       help="server port (default: 8077)")
    query.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="reply read timeout in seconds (default: 300)")
    query.add_argument("--retries", type=int, default=None, metavar="N",
                       help="transport attempts before giving up "
                            "(default: 3, deterministic backoff)")
    query.add_argument("--json", action="store_true", dest="as_json",
                       help="print the raw JSON reply instead of the text")

    lint = sub.add_parser(
        "lint", help="run greenlint, the unit/determinism invariant checker")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit machine-readable JSON instead of text "
                           "(alias for --format json)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default=None, dest="format",
                      help="output format: text (default), json, or "
                           "SARIF 2.1.0 for code-host annotation")
    lint.add_argument("--select", metavar="CODES", default=None,
                      help="comma-separated rule codes to run, e.g. GL1,GL3")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings as well as errors")
    lint.add_argument("--baseline", metavar="FILE", default=None,
                      help="subtract known findings recorded in FILE; "
                           "stale entries fail the run")
    lint.add_argument("--write-baseline", metavar="FILE", default=None,
                      dest="write_baseline",
                      help="record the run's findings as the new baseline "
                           "FILE and exit 0")
    lint.add_argument("--no-cache", action="store_true", dest="no_cache",
                      help="bypass the incremental per-file cache under "
                           "tools/out/lint-cache/")
    return parser


def _run_lint(args) -> int:
    """Handle ``repro lint``: exit 0 clean, 1 findings, 2 usage error."""
    from repro.lint import (apply_baseline, lint_paths, load_baseline,
                            render_json, render_sarif, render_text,
                            write_baseline)

    fmt = args.format or ("json" if args.as_json else "text")
    if args.as_json and args.format not in (None, "json"):
        print("error: --json conflicts with --format "
              f"{args.format}", file=sys.stderr)
        return 2
    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[fmt]
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    select = args.select.split(",") if args.select else None
    if args.no_cache:
        cache_dir = None
    else:
        from repro.lint.cache import DEFAULT_CACHE_DIR

        cache_dir = DEFAULT_CACHE_DIR
    try:
        result = lint_paths(paths, select=select, cache_dir=cache_dir)
        if args.write_baseline:
            n = write_baseline(args.write_baseline, result)
            print(f"wrote {n} finding{'s' if n != 1 else ''} to "
                  f"{args.write_baseline}")
            return 0
        stale = []
        if args.baseline:
            result, stale = apply_baseline(result,
                                           load_baseline(args.baseline))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(renderer(result))
    for code, path, message in stale:
        print(f"stale baseline entry: {path} {code} {message} "
              f"(fixed? regenerate with --write-baseline)",
              file=sys.stderr)
    failing = (result.errors() or stale
               or (args.strict and result.findings))
    return 1 if failing else 0


def _run_faults(args) -> int:
    """Handle ``repro faults``: fault-free vs faulted run of one pipeline."""
    from repro.experiments.faults import run_faulted
    from repro.faults.plan import FaultSpec

    try:
        base, device = run_faulted(
            args.pipeline, FaultSpec(seed=args.seed), seed=args.seed,
            case_index=args.case,
            checkpoint_interval=args.checkpoint_interval,
        )
        spec = FaultSpec(
            seed=args.seed,
            transient_rate=args.transient_rate,
            sector_rate=args.sector_rate,
            bitflip_rate=args.bitflip_rate,
            fail_at_op=args.fail_at_op,
        )
        result, _ = run_faulted(
            args.pipeline, spec, seed=args.seed, case_index=args.case,
            checkpoint_interval=args.checkpoint_interval,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overhead = (result.energy_j / base.energy_j - 1.0) * 100.0
    print(f"pipeline {args.pipeline}, case {args.case}, seed {args.seed}")
    print(f"  fault-free: {base.energy_j / 1000:10.2f} kJ "
          f"{base.execution_time_s:8.1f} s")
    print(f"  faulted:    {result.energy_j / 1000:10.2f} kJ "
          f"{result.execution_time_s:8.1f} s  ({overhead:+.1f}% energy)")
    print(f"  faults={result.extra.get('io_faults', 0)} "
          f"retries={result.extra.get('io_retries', 0)} "
          f"restarts={result.extra.get('restarts', 0)} "
          f"baseline_ops={device.ops_serviced}")
    return 0


def _interruptible() -> None:
    """Make SIGINT and SIGTERM both raise KeyboardInterrupt here.

    Both then run the same teardown.  A non-interactive shell starts
    ``&`` jobs with SIGINT ignored, and Python keeps an ignored SIGINT;
    SIGTERM's default action would skip the teardown altogether.
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)


def _run_serve(args) -> int:
    """Handle ``repro serve``: block until interrupted."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.service import DEFAULT_PORT, ExperimentService, ServiceConfig
    from repro.service.http import make_server

    _interruptible()

    port = DEFAULT_PORT if args.port is None else args.port
    config_kwargs = {"jobs": args.jobs, "cache_dir": args.cache}
    if args.mem_entries is not None:
        config_kwargs["mem_entries"] = args.mem_entries
    try:
        service = ExperimentService(ServiceConfig(**config_kwargs))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = make_server(args.host, port, service, verbose=args.verbose)
    except (ReproError, OSError) as exc:
        service.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # Inside the try: a signal that lands as soon as the startup
        # line is out still runs the teardown.  No server.shutdown():
        # the loop ran on this thread and has returned (or never began,
        # and shutdown() would then wait for it forever).
        print(f"serving {len(EXPERIMENTS)} experiments on "
              f"http://{args.host}:{port} (jobs={args.jobs}, "
              f"cache={args.cache or 'memory only'})")
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def _run_cluster(args) -> int:
    """Handle ``repro cluster``: shard processes + router, until ^C.

    Nothing is primed here: the shards fork from a process that holds
    no Lab, and each seed's Lab is primed on its first request, once per
    cache directory (:func:`repro.experiments.engine.primed_lab`).
    """
    from repro.cluster import ClusterConfig, SpawnedCluster
    from repro.experiments.registry import EXPERIMENTS
    from repro.service.wire import DEFAULT_PORT

    _interruptible()

    port = DEFAULT_PORT if args.port is None else args.port
    config_kwargs = {"shards": args.shards, "jobs": args.jobs,
                     "cache_dir": args.cache, "host": args.host}
    if args.hot_threshold is not None:
        config_kwargs["hot_threshold"] = args.hot_threshold
    if args.queue_depth is not None:
        config_kwargs["max_queue_depth"] = args.queue_depth
    try:
        config = ClusterConfig(**config_kwargs)
        cluster = SpawnedCluster(config, router_port=port,
                                 verbose=args.verbose)
        cluster.start()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # Inside the try: a signal that lands as soon as the startup
        # line is out still stops the shards.
        shard_list = ", ".join(f"{info.name}:{info.port}"
                               for info in cluster.shard_infos)
        port = cluster.router_address[1]
        print(f"routing {len(EXPERIMENTS)} experiments on "
              f"http://{args.host}:{port} -> {args.shards} shard(s) "
              f"[{shard_list}] (jobs={args.jobs}, "
              f"cache={args.cache or 'per-shard memory only'})")
        cluster.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down cluster")
    finally:
        cluster.stop()
    return 0


def _run_query(args) -> int:
    """Handle ``repro query``: one request against a running server."""
    import json as _json

    from repro.faults.retry import RetryPolicy
    from repro.service.client import (
        DEFAULT_READ_TIMEOUT_S,
        DEFAULT_RETRY,
        query,
    )
    from repro.service.wire import DEFAULT_PORT

    port = DEFAULT_PORT if args.port is None else args.port
    timeout_s = (DEFAULT_READ_TIMEOUT_S if args.timeout is None
                 else args.timeout)
    retry = DEFAULT_RETRY
    if args.retries is not None:
        retry = RetryPolicy(max_attempts=args.retries,
                            backoff_base_s=retry.backoff_base_s,
                            backoff_factor=retry.backoff_factor,
                            jitter_fraction=0.0)
    try:
        reply = query(args.experiment, seed=args.seed,
                      host=args.host, port=port,
                      timeout_s=timeout_s, retry=retry)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(_json.dumps(reply, indent=2, sort_keys=True))
    else:
        print(reply.get("text", ""))
        routed = ""
        if "shard" in reply:  # served by a cluster router
            routed = (f" via {reply['shard']}"
                      f"{' (hot)' if reply.get('hot') else ''}")
        print(f"[{reply.get('source')}{routed} in "
              f"{reply.get('elapsed_ms')} ms, "
              f"digest {str(reply.get('digest'))[:12]}]", file=sys.stderr)
    return 0


def _dump_csv(result, directory: str) -> list[str]:
    """Write any PowerProfile payloads of a result as CSV files."""
    from repro.analysis.plots import save_csv
    from repro.power.profile import PowerProfile

    written: list[str] = []
    data = result.data
    profiles: dict[str, PowerProfile] = {}
    if isinstance(data, PowerProfile):
        profiles[result.id] = data
    elif isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, PowerProfile):
                label = "_".join(str(k) for k in key) if isinstance(key, tuple) else str(key)
                profiles[f"{result.id}_{label}"] = value
    for name, profile in profiles.items():
        path = os.path.join(directory, f"{name}.csv")
        save_csv(path, profile.to_columns())
        written.append(path)
    return written


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        from repro.experiments import EXPERIMENTS

        for eid in EXPERIMENTS:
            doc = (EXPERIMENTS[eid].__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{eid:14s} {summary}")
        return 0

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "cluster":
        return _run_cluster(args)

    if args.command == "query":
        return _run_query(args)

    if args.command == "verify":
        from repro.experiments import Lab
        from repro.experiments.verification import (
            render_verification,
            run_verification,
        )

        checks = run_verification(Lab(seed=args.seed))
        print(render_verification(checks))
        return 0 if all(c.passed for c in checks) else 1

    if args.command == "report":
        from repro.experiments import Lab
        from repro.experiments.report import write_report

        try:
            path = write_report(args.path, Lab(seed=args.seed))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
        return 0

    # command == "run"
    from repro.experiments import EXPERIMENTS, Lab, run_experiment

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        if args.jobs > 1 or args.cache:
            from repro.experiments.engine import run_experiments

            report = run_experiments(ids, seed=args.seed, jobs=args.jobs,
                                     cache_dir=args.cache)
            results = list(report.results.values())
            if args.cache:
                print(f"cache: {len(report.cache_hits)} hit(s), "
                      f"{len(report.cache_misses)} miss(es)")
                print()
        else:
            lab = Lab(seed=args.seed)
            results = (run_experiment(eid, lab) for eid in ids)
        for result in results:
            print(result.text)
            print()
            if args.csv:
                for path in _dump_csv(result, args.csv):
                    print(f"wrote {path}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
