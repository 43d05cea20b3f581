"""Command-line interface.

Examples
--------
Generate a benchmark analogue and write it in FIMI format::

    python -m repro generate --dataset bms1 --output bms1.dat --seed 0

Find the Poisson threshold and the significant itemsets of a FIMI file::

    python -m repro mine --input bms1.dat --k 2 --alpha 0.05 --beta 0.05

Same, but against the margin-preserving swap-randomization null::

    python -m repro mine --input bms1.dat --k 2 --null-model swap

Mine a named registry dataset on the sparse (scipy CSC) backend::

    python -m repro mine --dataset retail --backend sparse --k 2

Emit the full machine-readable result and render it again later::

    python -m repro mine --input bms1.dat --k 2 --output json > result.json
    python -m repro report --input result.json

Reproduce one of the paper's tables on the synthetic analogues::

    python -m repro experiment --table table3 --preset quick
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro._version import __version__
from repro.data.benchmarks import BENCHMARK_NAMES, generate_benchmark
from repro.data.io import read_fimi, write_fimi
from repro.data.stats import summarize
from repro.engine import Engine, RunResult, RunSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import TABLE_RUNNERS, run_selected

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-itemsets",
        description=(
            "Statistically significant frequent itemset mining "
            "(PODS 2009 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a benchmark-analogue dataset in FIMI format"
    )
    generate.add_argument(
        "--dataset", required=True, choices=sorted(BENCHMARK_NAMES)
    )
    generate.add_argument("--output", required=True, help="output .dat path")
    generate.add_argument("--scale", type=float, default=None)
    generate.add_argument("--seed", type=int, default=0)

    summary = subparsers.add_parser(
        "summary", help="print Table 1 style statistics of a FIMI file"
    )
    summary.add_argument("--input", required=True, help="input .dat path")
    summary.add_argument(
        "--keep-empty",
        action="store_true",
        help="keep genuinely empty transactions (blank lines) when reading",
    )

    mine = subparsers.add_parser(
        "mine", help="find the significant k-itemsets of a FIMI file"
    )
    mine.add_argument(
        "--input", default=None, help="input .dat path (or use --dataset)"
    )
    mine.add_argument(
        "--dataset",
        default=None,
        help=(
            "named dataset from the registry (repro.data.registry) instead "
            "of --input: one of the synthetic analogues "
            f"({', '.join(sorted(BENCHMARK_NAMES))}) or a name added via "
            "repro.data.add_fimi"
        ),
    )
    mine.add_argument(
        "--keep-empty",
        action="store_true",
        help=(
            "keep genuinely empty transactions when reading --input "
            "(by default blank lines are skipped as formatting noise)"
        ),
    )
    mine.add_argument("--k", type=int, default=2)
    mine.add_argument("--alpha", type=float, default=0.05)
    mine.add_argument("--beta", type=float, default=0.05)
    mine.add_argument("--epsilon", type=float, default=0.01)
    mine.add_argument("--delta", type=int, default=100, help="Monte-Carlo budget")
    mine.add_argument("--seed", type=int, default=0)
    mine.add_argument(
        "--procedure",
        choices=["1", "2", "both"],
        default="2",
        help="which procedure to run",
    )
    mine.add_argument(
        "--null-model",
        choices=["bernoulli", "swap"],
        default="bernoulli",
        help=(
            "null model for the significance tests: the paper's "
            "independent-items null (bernoulli) or the margin-preserving "
            "swap-randomization null (swap)"
        ),
    )
    mine.add_argument(
        "--backend",
        choices=["numpy", "python", "sparse"],
        default=None,
        help=(
            "counting backend (default: REPRO_BACKEND env var, then numpy); "
            "sparse requires scipy"
        ),
    )
    mine.add_argument(
        "--swap-walk",
        choices=["packed", "python"],
        default=None,
        help=(
            "swap-walk implementation used when --null-model swap: packed "
            "(vectorized uint64 walk, the default) or python (int bitsets); "
            "default: REPRO_SWAP_WALK env var, then packed.  The walks draw "
            "different random streams, so artifacts are cached per walk"
        ),
    )
    mine.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="workers for the Monte-Carlo passes (results identical)",
    )
    mine.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default=None,
        help=(
            "execution backend for the Monte-Carlo passes: serial, thread "
            "(shared address space, no serialization), or process "
            "(zero-copy shared-memory workers); default: serial for "
            "--n-jobs 1, process otherwise — results are identical for "
            "every choice"
        ),
    )
    mine.add_argument(
        "--delta-max",
        type=int,
        default=None,
        help=(
            "cap for the adaptive Monte-Carlo budget: --delta becomes the "
            "seed budget and grows geometrically up to this value, stopping "
            "early once the decision is clear of its boundary (default: "
            "fixed budget --delta, exactly the paper's behaviour)"
        ),
    )
    mine.add_argument(
        "--store",
        default=None,
        help=(
            "directory for the on-disk artifact store: Monte-Carlo null "
            "simulations are cached there (crash-safe, shareable between "
            "concurrent runs) and later runs with the same parameters "
            "resume instead of re-simulating"
        ),
    )
    mine.add_argument(
        "--output",
        choices=["text", "json"],
        default="text",
        help=(
            "output format: human-readable text (default) or the full "
            "serialized RunResult as JSON (re-render it with the report "
            "subcommand)"
        ),
    )
    mine.add_argument(
        "--max-print", type=int, default=20, help="cap on itemsets printed"
    )

    report = subparsers.add_parser(
        "report",
        help="render a stored JSON RunResult (from mine --output json)",
    )
    report.add_argument(
        "--input", required=True, help="path to a RunResult JSON file"
    )
    report.add_argument(
        "--max-print", type=int, default=20, help="cap on itemsets printed"
    )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the multi-tenant significance-as-a-service HTTP server "
            "over the Engine (see docs/server.md)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="0 picks a free port"
    )
    serve.add_argument(
        "--store",
        default=None,
        help="directory for the durable artifact tier (shared across restarts)",
    )
    serve.add_argument(
        "--backend", choices=["numpy", "python", "sparse"], default=None
    )
    serve.add_argument("--n-jobs", type=int, default=1)
    serve.add_argument(
        "--executor", choices=["serial", "thread", "process"], default=None
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="query worker threads draining the admission queue",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=8,
        help=(
            "admission-queue bound; saturated queries are answered "
            "immediately from a strict-prefix budget with degraded=True"
        ),
    )
    serve.add_argument(
        "--shed-delta",
        type=int,
        default=16,
        help="Monte-Carlo budget of the saturated (degraded) fast path",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="byte budget of the in-memory artifact cache (LRU eviction)",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="seconds an artifact stays in the in-memory cache",
    )
    serve.add_argument(
        "--journal",
        default=None,
        help=(
            "path to the write-ahead query journal; on startup the journal "
            "is replayed (tenant datasets re-registered, unfinished queries "
            "re-enqueued), so a restart resumes the conversation a crash "
            "interrupted (see docs/server.md)"
        ),
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help=(
            "seconds SIGTERM lets in-flight queries finish before forcing "
            "them to strict-prefix degraded results"
        ),
    )

    experiment = subparsers.add_parser(
        "experiment", help="reproduce one of the paper's tables on the analogues"
    )
    experiment.add_argument(
        "--table", required=True, choices=sorted(TABLE_RUNNERS)
    )
    experiment.add_argument(
        "--preset", choices=["quick", "default", "paper"], default="quick"
    )
    experiment.add_argument("--seed", type=int, default=0)

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    dataset = generate_benchmark(args.dataset, scale=args.scale, rng=args.seed)
    write_fimi(dataset, args.output)
    print(summarize(dataset))
    print(f"written to {args.output}")
    return 0


def _command_summary(args: argparse.Namespace) -> int:
    dataset = read_fimi(args.input, keep_empty=args.keep_empty)
    print(summarize(dataset))
    return 0


def _command_mine(args: argparse.Namespace) -> int:
    if args.swap_walk is not None:
        # The walk selection travels through the same env-var channel the
        # library resolves (explicit argument > REPRO_SWAP_WALK > default),
        # so RunSpec stays a serializable name-based spec.  Scoped to this
        # command: in-process callers (tests, library embedding) must not
        # inherit the flag as ambient state.
        from repro.data.swap import WALK_ENV_VAR, resolve_walk

        previous = os.environ.get(WALK_ENV_VAR)
        os.environ[WALK_ENV_VAR] = resolve_walk(args.swap_walk)
        try:
            return _run_mine(args)
        finally:
            if previous is None:
                os.environ.pop(WALK_ENV_VAR, None)
            else:
                os.environ[WALK_ENV_VAR] = previous
    return _run_mine(args)


def _run_mine(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.dataset is None):
        raise ValueError("pass exactly one of --input or --dataset")
    if args.dataset is not None:
        from repro.data.registry import load_dataset

        try:
            dataset = load_dataset(args.dataset)
        except KeyError as error:
            # Unknown names get the CLI's one-line operational-error exit.
            raise ValueError(error.args[0]) from None
    else:
        dataset = read_fimi(args.input, keep_empty=args.keep_empty)
    store = None
    if args.store is not None:
        from repro.engine import DirectoryArtifactStore

        store = DirectoryArtifactStore(args.store)
    spec = RunSpec(
        ks=args.k,
        alphas=args.alpha,
        betas=args.beta,
        epsilon=args.epsilon,
        num_datasets=args.delta,
        delta_max=args.delta_max,
        null_model=args.null_model,
        seed=args.seed,
        procedures=args.procedure,
    )
    with Engine(
        store, backend=args.backend, n_jobs=args.n_jobs, executor=args.executor
    ) as engine:
        result = engine.run(spec, dataset=dataset)
    if args.output == "json":
        print(result.to_json(indent=2))
        return 0
    print(f"dataset: {summarize(dataset)}")
    _render_run_result(result, args.max_print)
    return 0


def _command_report(args: argparse.Namespace) -> int:
    result = RunResult.from_json(Path(args.input).read_text(encoding="utf-8"))
    name = result.dataset_name or "<unnamed>"
    print(f"dataset: {name} (fingerprint {result.fingerprint[:16]}…)")
    _render_run_result(result, args.max_print)
    return 0


def _render_run_result(result: RunResult, max_print: int) -> None:
    """Render a :class:`RunResult` in the classic mine output format."""
    print(f"null model: {result.spec.null_model}")
    if result.degraded:
        print(
            "WARNING: degraded run — execution faults cut the Monte-Carlo "
            "budget short; statistics rest on fewer null datasets than "
            "requested"
        )
    multi = len(result.queries) > 1
    for query in result.queries:
        if multi:
            print(f"--- k={query.k} alpha={query.alpha} beta={query.beta} ---")
        print(f"s_min (Algorithm 1): {query.report.s_min}")
        procedure2 = query.report.procedure2
        if procedure2 is not None:
            print(f"Procedure 2: s* = {procedure2.s_star}")
            print(
                f"  Q_k,s* = {procedure2.num_significant}, "
                f"lambda(s*) = {procedure2.lambda_at_s_star:.4f}"
            )
            _print_itemsets(procedure2.significant, max_print)
        procedure1 = query.report.procedure1
        if procedure1 is not None:
            print(
                f"Procedure 1 (Benjamini-Yekutieli): "
                f"|R| = {procedure1.num_significant} "
                f"of {procedure1.num_candidates} candidates"
            )
            _print_itemsets(procedure1.significant, max_print)


def _print_itemsets(itemsets: dict, limit: int) -> None:
    for index, (itemset, support) in enumerate(
        sorted(itemsets.items(), key=lambda pair: -pair[1])
    ):
        if index >= limit:
            print(f"  ... ({len(itemsets) - limit} more)")
            break
        rendered = " ".join(str(item) for item in itemset)
        print(f"  {{{rendered}}}  support={support}")


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.server import ReproServer, ServerState

    store = None
    if args.store is not None:
        from repro.engine import DirectoryArtifactStore

        store = DirectoryArtifactStore(args.store)
        # A restarting server is the natural owner of bounded lock cleanup:
        # reclaim sidecar locks left behind by finished or crashed runs.
        store.cleanup_stale_locks()
    state = ServerState(
        store,
        backend=args.backend,
        n_jobs=args.n_jobs,
        executor=args.executor,
        cache_bytes=args.cache_bytes,
        cache_ttl=args.cache_ttl,
    )
    server = ReproServer(
        state,
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        max_pending=args.max_pending,
        shed_num_datasets=args.shed_delta,
        journal=args.journal,
    )

    # Signal handlers only record intent and wake the main loop; the actual
    # drain/interrupt runs on the main thread.  Handlers must never touch
    # broker locks: Python delivers signals on the main thread between
    # bytecodes, so a handler that grabbed a lock the main thread already
    # holds would self-deadlock.
    shutdown = {"mode": None, "count": 0}
    wake = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        shutdown["count"] += 1
        if shutdown["count"] > 1:
            shutdown["mode"] = "force"
        elif signum == signal.SIGTERM:
            shutdown["mode"] = "drain"
        else:
            shutdown["mode"] = "interrupt"
        wake.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)
    server.start()
    try:
        print(f"serving on {server.url} (ctrl-c to stop)")
        print(
            f"  workers={args.workers} max_pending={args.max_pending} "
            f"shed_delta={args.shed_delta} store={args.store or '<memory>'} "
            f"journal={args.journal or '<none>'}"
        )
        if server.recovery is not None:
            report = server.recovery.to_dict()
            print(
                "  recovered from journal: "
                f"datasets={report['datasets_restored']} "
                f"reenqueued={report['jobs_reenqueued']} "
                f"interrupted={report['jobs_recovered']} "
                f"terminal={report['jobs_terminal']} "
                f"lost={report['jobs_lost']}"
            )
        sys.stdout.flush()
        while not wake.is_set():
            wake.wait(timeout=0.5)
            if not server._thread.is_alive():  # pragma: no cover - loop died
                return 1

        if shutdown["mode"] == "interrupt":
            print("interrupted", file=sys.stderr)
            server.interrupt()
            return 130

        # SIGTERM: graceful drain.  Run the (blocking) drain on a helper
        # thread so a second signal can still reach the main thread and
        # force a fast shutdown.
        print(
            f"draining (up to {args.drain_timeout:g}s; signal again to force)",
            file=sys.stderr,
        )
        drain_report: dict = {}

        def _drain() -> None:
            drain_report.update(server.drain(args.drain_timeout))

        drainer = threading.Thread(target=_drain, name="serve-drain")
        drainer.start()
        while drainer.is_alive():
            drainer.join(timeout=0.2)
            if shutdown["mode"] == "force":
                server.interrupt()
                drainer.join(timeout=5.0)
                print("forced shutdown", file=sys.stderr)
                return 130
        print(
            "drained: "
            f"clean={drain_report.get('drained', False)} "
            f"forced={drain_report.get('forced', 0)} "
            f"refinements_journaled={drain_report.get('refinements_dropped', 0)}",
            file=sys.stderr,
        )
        return 0
    finally:
        server.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _command_experiment(args: argparse.Namespace) -> int:
    if args.preset == "quick":
        config = ExperimentConfig.quick(seed=args.seed)
    elif args.preset == "paper":
        config = ExperimentConfig.paper(seed=args.seed)
    else:
        config = ExperimentConfig(seed=args.seed)
    results = run_selected([args.table], config)
    for table in results.values():
        print(table.to_text())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "summary": _command_summary,
        "mine": _command_mine,
        "report": _command_report,
        "serve": _command_serve,
        "experiment": _command_experiment,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # The Engine context manager already tore down its executor on the
        # way out; exit with the conventional SIGINT code, no traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except (OSError, ValueError) as error:
        # Expected operational failures — missing/unreadable inputs, corrupt
        # result JSON, a store path that is not a directory — get one line
        # on stderr and a nonzero exit, never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
