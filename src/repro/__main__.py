"""Command-line interface: ``python -m repro <command>``.

Commands:
    models               List the workload zoo with layer/MAC statistics.
    methods              List every registered search method.
    evaluate             Run the cost model on a uniform design point.
    search               Run any registered search method on one task.
    compare              Run several methods on the same task and grid
                         the results.
    serve                Run the search service (job scheduler + result
                         cache) behind a local TCP port.
    worker               Run a distributed-execution node agent that
                         joins a coordinator's fleet.
    submit               Submit one search to a running service.
    jobs                 List (or cancel) a running service's jobs.
    cache                Inspect or clear the content-addressed result
                         cache (via a server, or directly on disk).

Examples::

    python -m repro models
    python -m repro methods
    python -m repro evaluate --model resnet50 --pes 64 --buffer 99
    python -m repro search --model mobilenet_v2 --method confuciux \
        --platform iot --objective latency --budget 300
    python -m repro search --model mnasnet --method sa --budget 500
    python -m repro search --model mobilenet_v2 --pareto --budget 2000
    python -m repro search --method ga \
        --objective weighted:latency=0.5,energy=0.5
    python -m repro compare --model mobilenet_v2 \
        --methods random,ga,ppo2,reinforce --budget 150
    python -m repro serve --port 7661 --executor process --workers 4
    python -m repro worker --connect 127.0.0.1:7662
    python -m repro submit --model mnasnet --method sa --budget 200
    python -m repro jobs
    python -m repro cache --stats
"""

from __future__ import annotations

import argparse
import sys

from repro.core.reporting import format_table
from repro.costmodel import CostModel
from repro.models import get_model, list_models
from repro.models.layers import summarize
from repro.parallel.backend import EXECUTORS
from repro.search import (
    ProgressReporter,
    SearchSession,
    SearchSpec,
    list_methods,
    method_names,
)


def cmd_models(_args: argparse.Namespace) -> int:
    rows = []
    for name in list_models():
        layers = get_model(name)
        summary = summarize(name, layers)
        rows.append([
            name,
            summary.num_layers,
            f"{summary.total_macs:.2E}",
            f"{summary.total_weights:.2E}",
            ", ".join(f"{k}:{v}"
                      for k, v in summary.layer_type_counts.items()),
        ])
    print(format_table(
        ["model", "layers", "MACs", "weights", "layer types"], rows,
        title="Workload zoo"))
    return 0


def cmd_methods(_args: argparse.Namespace) -> int:
    rows = []
    for info in list_methods():
        capabilities = []
        if info.batchable:
            capabilities.append("batchable")
        if info.supports_finetune:
            capabilities.append("fine-tunes")
        if info.variant_of:
            capabilities.append(f"variant of {info.variant_of}")
        rows.append([info.name, info.kind, ", ".join(capabilities) or "-",
                     info.description])
    print(format_table(
        ["method", "kind", "capabilities", "description"], rows,
        title="Registered search methods"))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    layers = get_model(args.model)
    cost_model = CostModel()
    report = cost_model.evaluate_model(
        layers, [(args.pes, args.buffer)] * len(layers),
        dataflow=args.dataflow)
    print(format_table(
        ["metric", "value"],
        [
            ["layers", len(layers)],
            ["latency (cycles)", f"{report.latency_cycles:.3E}"],
            ["energy (nJ)", f"{report.energy_nj:.3E}"],
            ["area (um2)", f"{report.area_um2:.3E}"],
            ["power (mW)", f"{report.power_mw:.3E}"],
        ],
        title=f"{args.model} @ uniform (PE={args.pes}, "
              f"Buf={args.buffer}B), {args.dataflow}-style, LP"))
    return 0


def _objective_from_args(args: argparse.Namespace) -> str:
    """The effective objective spec string.

    ``--pareto`` turns a bare comma list (``latency,energy``) into a
    ``multi:`` spec and defaults to the latency/energy trade-off when no
    objective was given; otherwise the string is passed through to the
    objectives registry (names, ``weighted:...``, ``multi:...``).
    """
    objective = args.objective
    if getattr(args, "pareto", False):
        objective = objective or "latency,energy"
        if "," in objective and ":" not in objective:
            objective = "multi:" + objective
    return objective or "latency"


def _spec_from_args(args: argparse.Namespace, method: str) -> SearchSpec:
    try:
        return SearchSpec(
            model=args.model,
            method=method,
            objective=_objective_from_args(args),
            dataflow=args.dataflow,
            constraint_kind=args.constraint,
            platform=args.platform,
            budget=args.budget,
            seed=args.seed,
            mix=args.mix,
            layer_slice=args.layers or None,
            finetune=args.finetune,
            executor=args.executor,
            workers=args.workers,
            nodes=args.nodes,
            dispatch_min_batch=args.dispatch_min_batch,
            envs=args.envs,
            task_timeout_s=args.task_timeout_s,
        )
    except ValueError as error:
        # Free-form spec fields (--objective most of all) are validated
        # by SearchSpec, not argparse; keep the CLI's clean-exit
        # contract rather than surfacing a traceback.
        raise SystemExit(f"repro: error: {error}") from None


def _print_pareto_front(result) -> None:
    """The non-dominated front of a multi-objective search."""
    front = result.pareto_front
    names = result.result.extra.get(
        "objective_names",
        sorted(front[0]["objectives"]) if front else [])
    rows = []
    for index, point in enumerate(front, start=1):
        rows.append([index] + [f"{point['objectives'][name]:.3E}"
                               for name in names])
    print()
    print(format_table(
        ["#"] + names, rows,
        title=f"Pareto front ({len(front)} non-dominated points)"))


def _print_two_stage(result, args) -> None:
    """The classic ConfuciuX stage table (from the session detail)."""
    from repro.objectives import objective_cost_label

    detail = result.detail
    impr1, impr2 = detail.improvement_fractions()
    print(format_table(
        ["stage", objective_cost_label(_objective_from_args(args)),
         "improvement"],
        [
            ["first valid", f"{detail.initial_valid_cost:.3E}", "-"],
            ["global search", f"{detail.global_cost:.3E}",
             f"{100 * impr1:.1f}%" if impr1 is not None else "-"],
            ["fine-tuned", f"{detail.best_cost:.3E}",
             f"{100 * impr2:.1f}%" if impr2 is not None else "-"],
        ],
        title=f"ConfuciuX on {args.model}, "
              f"{args.constraint}:{args.platform}"))
    print()
    print(detail.utilization())


def cmd_search(args: argparse.Namespace) -> int:
    # --pareto selects the NSGA-II searcher only when no explicit
    # --method was given (the --method default is None, so an explicit
    # "--method confuciux" is distinguishable and wins).
    method = args.method or ("pareto-ga" if args.pareto else "confuciux")
    spec = _spec_from_args(args, method)
    session = SearchSession(spec)
    callbacks = [ProgressReporter(every=args.progress)] \
        if args.progress else []
    result = session.run(callbacks=callbacks)
    if not result.feasible:
        print("No feasible assignment found; increase --budget.")
        return 1
    if result.detail is not None:
        _print_two_stage(result, args)
    else:
        from repro.objectives import objective_cost_label

        print(format_table(
            ["metric", "value"],
            [
                ["method", spec.method],
                [f"best {objective_cost_label(spec.objective)}",
                 f"{result.best_cost:.3E}"],
                ["evaluations", result.result.evaluations],
                ["wall time", f"{result.result.wall_time_s:.2f}s"],
            ],
            title=result.summary()))
    if result.pareto_front is not None:
        _print_pareto_front(result)
    layers = spec.task().layers()
    rows = []
    for i, (layer, assignment) in enumerate(zip(layers,
                                                result.best_assignments)):
        style = assignment[2] if len(assignment) == 3 else args.dataflow
        rows.append([i + 1, layer.name, style, assignment[0],
                     assignment[1]])
    print()
    print(format_table(["#", "layer", "dataflow", "PEs", "L1 bytes"], rows))
    if args.save:
        result.save(args.save)
        print(f"\nSaved result (spec included) to {args.save}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.parallel import ParallelCoordinator

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    cost_model = CostModel()
    rows = []
    callbacks = []
    first = _spec_from_args(args, methods[0]) if methods else None
    if first is not None and first.resolved_executor() != "serial":
        # One keep-alive coordinator: the worker pool spawns once and
        # serves every method of the grid, with the spec-resolved
        # adaptive-dispatch threshold (--dispatch-min-batch /
        # $REPRO_DISPATCH_MIN / the measured default).
        callbacks = [ParallelCoordinator(
            first.resolved_executor(), first.resolved_workers(),
            nodes=first.resolved_nodes(),
            keep_alive=True,
            min_batch_per_worker=first.resolved_dispatch_min_batch(),
            task_timeout_s=first.resolved_task_timeout_s())]
    try:
        for method in methods:
            spec = _spec_from_args(args, method)
            result = SearchSession(spec, cost_model=cost_model).run(
                callbacks=callbacks)
            rows.append([
                method,
                result.result.format_cost(),
                result.result.evaluations,
                f"{result.result.wall_time_s:.2f}s",
            ])
    finally:
        for callback in callbacks:
            callback.close()
    from repro.objectives import objective_cost_label, objective_label

    spec_string = _objective_from_args(args)
    print(format_table(
        ["method", f"best {objective_cost_label(spec_string)}",
         "evaluations", "wall time"],
        rows,
        title=f"{args.model} {objective_label(spec_string)} "
              f"{args.constraint}:{args.platform}, budget {args.budget}"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ResultStore, SearchServer, start_transport

    store = None if args.no_cache else ResultStore(root=args.cache_dir)
    server = SearchServer(
        store=store,
        max_concurrent=args.max_concurrent,
        executor=args.executor,
        workers=args.workers,
        nodes=args.nodes,
        progress_every=args.progress_every,
    )
    transport = start_transport(server, host=args.host, port=args.port,
                                in_thread=False)
    host, port = transport.server_address[:2]
    print(f"repro service on {host}:{port} "
          f"(executor={server.executor}, "
          f"max_concurrent={args.max_concurrent}, "
          f"cache={'off' if store is None else store.root})",
          flush=True)
    try:
        transport.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        transport.server_close()
        server.close()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel import run_worker_agent

    print(f"repro worker connecting to {args.connect} "
          f"(supervised; Ctrl-C to stop)", flush=True)
    return run_worker_agent(args.connect, name=args.name)


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    method = args.method or "confuciux"
    spec = _spec_from_args(args, method)
    with ServiceClient(host=args.host, port=args.port,
                       connect_timeout=args.connect_timeout) as client:
        if args.watch:
            final = None
            for message in client.watch(spec, force=args.force):
                if "ok" in message:
                    final = message
                else:
                    event = message["event"]
                    detail = {k: v for k, v in event.items()
                              if k not in ("seq", "type", "job")}
                    print(f"[{event['job']}] {event['type']} {detail}",
                          flush=True)
            job = final["job"]
        elif args.no_wait:
            job = client.submit(spec, force=args.force, wait=False)
            print(f"submitted {job['id']} ({job['state']})")
            return 0
        else:
            job = client.submit(spec, force=args.force, wait=False)
            client.result(job["id"])
            job = client.status(job["id"])
        print(format_table(
            ["field", "value"],
            [
                ["job", job["id"]],
                ["state", job["state"]],
                ["cached", job["cached"]],
                ["method", job["method"]],
                ["model", job["model"]],
                ["best cost", job["best_cost"]],
                ["key", job["key"][:16]],
            ],
            title=f"{method} on {args.model} via {args.host}:{args.port}"))
        if args.save and job["state"] == "DONE":
            result = client.result(job["id"])
            result.save(args.save)
            print(f"Saved result (spec included) to {args.save}")
        return 0 if job["state"] == "DONE" else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    with ServiceClient(host=args.host, port=args.port,
                       connect_timeout=args.connect_timeout) as client:
        if args.cancel:
            cancelled = client.cancel(args.cancel)
            print(f"cancel {args.cancel}: "
                  f"{'requested' if cancelled else 'no effect'}")
            return 0
        rows = []
        for job in client.jobs():
            rows.append([
                job["id"], job["state"],
                "hit" if job["cached"] else "-",
                job["method"], job["model"],
                ("-" if job["best_cost"] is None
                 else f"{job['best_cost']:.3E}"),
                job["key"][:12],
            ])
        stats = client.stats()
    print(format_table(
        ["job", "state", "cache", "method", "model", "best cost", "key"],
        rows,
        title=f"{stats['jobs']} jobs, {stats['executions']} executed "
              f"({args.host}:{args.port}, executor {stats['executor']})"))
    return 0


def _print_cache_stats(stats: dict) -> None:
    print(format_table(
        ["metric", "value"],
        [[key, stats[key]] for key in
         ("root", "entries", "bytes", "hits", "memory_hits", "misses",
          "puts", "evictions", "bypasses", "corrupt_dropped")
         if key in stats],
        title="Result cache"))


def cmd_cache(args: argparse.Namespace) -> int:
    if args.port is not None:
        from repro.service import ServiceClient

        with ServiceClient(host=args.host, port=args.port,
                           connect_timeout=args.connect_timeout) as client:
            if args.clear:
                print(f"cleared {client.cache_clear()} entries")
                return 0
            _print_cache_stats(client.cache_stats())
        return 0
    from repro.service import ResultStore

    store = ResultStore(root=args.cache_dir)
    if args.clear:
        print(f"cleared {store.clear()} entries")
        return 0
    _print_cache_stats(store.stats())
    return 0


def _add_client_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.service.transport import DEFAULT_PORT

    parser.add_argument("--host", default="127.0.0.1",
                        help="service host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"service port (default: {DEFAULT_PORT})")
    parser.add_argument("--connect-timeout", type=float, default=10.0,
                        dest="connect_timeout",
                        help="seconds to retry the initial connection "
                             "(covers the serve-then-submit startup race)")


def _add_task_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="mobilenet_v2",
                        choices=list_models())
    parser.add_argument("--dataflow", default="dla",
                        choices=["dla", "eye", "shi"])
    parser.add_argument("--mix", action="store_true",
                        help="co-search the dataflow per layer")
    parser.add_argument("--objective", default=None,
                        help="objective spec: a registered name (latency, "
                             "energy, edp, area, power, ...), "
                             "weighted:latency=0.5,energy=0.5, or "
                             "multi:latency,energy (default: latency)")
    parser.add_argument("--constraint", default="area",
                        choices=["area", "power"])
    parser.add_argument("--platform", default="iot",
                        choices=["unlimited", "cloud", "iot", "iotx"])
    parser.add_argument("--budget", "--epochs", dest="budget", type=int,
                        default=300,
                        help="search budget (episodes / evaluations)")
    parser.add_argument("--finetune", type=int, default=None,
                        help="stage-2 budget for two-stage methods "
                             "(default: budget // 4)")
    parser.add_argument("--layers", type=int, default=0,
                        help="restrict to the first N layers (0 = all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--executor", default=None,
                        choices=EXECUTORS,
                        help="population-evaluation backend (default: "
                             "$REPRO_EXECUTOR or serial; results are "
                             "bit-identical across backends, even under "
                             "$REPRO_FAULTS fault injection; distributed "
                             "shards over repro worker node agents)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for parallel executors "
                             "(default: $REPRO_WORKERS, else available "
                             "cores capped at 8)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="node-fleet size for --executor distributed "
                             "(default: $REPRO_NODES or 2; self-spawns "
                             "localhost agents unless $REPRO_BIND names "
                             "a listen address for external repro "
                             "worker agents)")
    parser.add_argument("--dispatch-min-batch", type=int, default=None,
                        dest="dispatch_min_batch",
                        help="adaptive dispatch: batches below this many "
                             "elements per worker run in-process "
                             "(default: $REPRO_DISPATCH_MIN or the "
                             "measured break-even; 0 always shards)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        dest="task_timeout_s",
                        help="per-batch deadline in seconds for the "
                             "process backend: hung workers are "
                             "terminated and their shards re-dispatched "
                             "(default: $REPRO_TASK_TIMEOUT or disabled; "
                             "0 disables; recovery never changes results)")
    parser.add_argument("--envs", type=int, default=None,
                        help="lockstep episodes per wave for episodic-RL "
                             "methods (default: $REPRO_ENVS or 1; 1 steps "
                             "one episode at a time, >1 is a "
                             "faster, reproducible scenario -- see "
                             "BENCH_rl.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the workload zoo")
    sub.add_parser("methods", help="list registered search methods")

    evaluate = sub.add_parser("evaluate",
                              help="cost-model a uniform design point")
    evaluate.add_argument("--model", default="mobilenet_v2",
                          choices=list_models())
    evaluate.add_argument("--dataflow", default="dla",
                          choices=["dla", "eye", "shi"])
    evaluate.add_argument("--pes", type=int, default=16)
    evaluate.add_argument("--buffer", type=int, default=39)

    search = sub.add_parser("search",
                            help="run any registered search method")
    search.add_argument("--method", default=None,
                        choices=method_names(),
                        help="registered search method (default: "
                             "confuciux, or pareto-ga under --pareto)")
    search.add_argument("--progress", type=int, default=0,
                        help="print progress every N steps (0 = off)")
    search.add_argument("--save", default=None,
                        help="write the SessionResult JSON here")
    search.add_argument("--pareto", action="store_true",
                        help="multi-objective search: runs pareto-ga "
                             "(unless --method overrides) on "
                             "multi:latency,energy by default; a bare "
                             "comma list in --objective becomes a "
                             "multi: spec; prints the Pareto front")
    _add_task_arguments(search)

    compare = sub.add_parser("compare",
                             help="run several methods on one task")
    compare.add_argument("--methods",
                         default="random,ga,ppo2,reinforce",
                         help="comma-separated registered method names")
    _add_task_arguments(compare)

    from repro.service.transport import DEFAULT_PORT

    serve = sub.add_parser("serve",
                           help="run the search service in the foreground")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default: {DEFAULT_PORT}; 0 binds "
                            "an ephemeral port and prints it)")
    serve.add_argument("--max-concurrent", type=int, default=2,
                       dest="max_concurrent",
                       help="sessions in flight at once (default: 2)")
    serve.add_argument("--executor", default=None,
                       choices=EXECUTORS,
                       help="shared pool backend for every job (default: "
                            "$REPRO_EXECUTOR or serial); non-serial pools "
                            "stay warm across jobs")
    serve.add_argument("--workers", type=int, default=None,
                       help="pool worker count (default: $REPRO_WORKERS "
                            "or auto)")
    serve.add_argument("--nodes", type=int, default=None,
                       help="node-fleet size for --executor distributed "
                            "(default: $REPRO_NODES or 2)")
    serve.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="result-cache root (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro/results)")
    serve.add_argument("--no-cache", action="store_true", dest="no_cache",
                       help="disable the result cache entirely")
    serve.add_argument("--progress-every", type=int, default=10,
                       dest="progress_every",
                       help="emit a job step event every N steps")

    worker = sub.add_parser(
        "worker",
        help="run a distributed-execution node agent")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address to join (a session or "
                             "service running with --executor "
                             "distributed and $REPRO_BIND set)")
    worker.add_argument("--name", default=None,
                        help="agent name used in logs and crash "
                             "diagnostics (default: repro-node-ext-<pid>)")

    submit = sub.add_parser("submit",
                            help="submit one search to a running service")
    submit.add_argument("--method", default=None, choices=method_names(),
                        help="registered search method "
                             "(default: confuciux)")
    submit.add_argument("--force", action="store_true",
                        help="bypass the cache and overwrite its entry")
    submit.add_argument("--watch", action="store_true",
                        help="stream the job's progress events")
    submit.add_argument("--no-wait", action="store_true", dest="no_wait",
                        help="return the job id immediately")
    submit.add_argument("--save", default=None,
                        help="write the SessionResult JSON here")
    _add_client_arguments(submit)
    _add_task_arguments(submit)

    jobs = sub.add_parser("jobs",
                          help="list (or cancel) a service's jobs")
    jobs.add_argument("--cancel", default=None, metavar="JOB_ID",
                      help="cancel this job instead of listing")
    _add_client_arguments(jobs)

    cache = sub.add_parser("cache",
                           help="inspect or clear the result cache")
    cache.add_argument("--stats", action="store_true",
                       help="print cache statistics (the default action)")
    cache.add_argument("--clear", action="store_true",
                       help="evict every cached result")
    cache.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="operate on this on-disk cache root "
                            "(default: $REPRO_CACHE_DIR)")
    cache.add_argument("--port", type=int, default=None,
                       help="query a running service instead of the "
                            "local directory")
    cache.add_argument("--host", default="127.0.0.1")
    cache.add_argument("--connect-timeout", type=float, default=10.0,
                       dest="connect_timeout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": cmd_models,
        "methods": cmd_methods,
        "evaluate": cmd_evaluate,
        "search": cmd_search,
        "compare": cmd_compare,
        "serve": cmd_serve,
        "worker": cmd_worker,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "cache": cmd_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
