"""Command-line interface: list registries, run experiments, sweep scenarios.

Usage::

    repro list
    repro list --adversaries
    repro list --format json
    repro run E4 --scale full --seed 1
    repro run all --scale smoke
    repro run E10 --format json
    repro run E20 --adversary budgeted_jammer --adversary-param per_round=2
    repro sweep --algorithms decay,fastbc --topology path --n 64 \\
        --fault-model receiver --p 0.3 --seeds 0:5 --processes 4
    repro sweep --algorithms decay --adversary gilbert_elliott \\
        --adversary-param p_bad=0.9 --seeds 0:3
    repro sweep --algorithms decay,rlnc_decay --seeds 0:100 \\
        --store results.db --resume
    repro store results.db
    repro store results.db --export decay.json --algorithm decay
    repro analyze aggregate results.db --by algorithm,n
    repro analyze fit results.db --by algorithm --metric rounds
    repro analyze compare results.db --arm-a algorithm=decay \\
        --arm-b algorithm=rlnc_decay --metric rounds_per_message
    repro analyze adaptive results.db --algorithms decay,fastbc \\
        --n 32,64 --fault-model receiver --p 0.3 \\
        --target-halfwidth 10 --max-seeds 32
    repro serve --store results.db --port 8765 --workers 2
    repro serve --store farm.db --workers 0 --shards 4 \\
        --lease-scenarios 8 --lease-timeout 30
    repro serve --store farm.db --workers 2 --recover
    repro worker --connect http://127.0.0.1:8765 --processes 4
    repro store farm.db --stats
    repro store farm.db --stats --format json
    repro top --connect http://127.0.0.1:8765
    repro trace show spans.jsonl --limit 20
    repro trace summarize spans.jsonl
    repro timeline show results.db --key CACHE_KEY
    repro timeline curve timeline.json --format markdown
    repro timeline diff results.db --key-a KEY_A --key-b KEY_B
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro.adversary import all_adversaries
from repro.core.faults import AdversaryConfig, FaultConfig, FaultModel
from repro.experiments import all_experiments, get_experiment
from repro.introspect import registry_dump
from repro.runner import Scenario, all_algorithms, expand_grid, run_batch
from repro.topologies.registry import TOPOLOGY_FAMILIES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Broadcasting in Noisy Radio Networks' "
            "(PODC 2017): run any registered experiment ('repro list' "
            "shows each one's claim), or sweep declarative scenarios over "
            "any registered algorithm."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser(
        "list",
        help=(
            "list registered experiments, algorithms, topologies, and "
            "adversaries"
        ),
    )
    lst.add_argument(
        "--adversaries",
        action="store_true",
        help="list only the registered adversary models",
    )
    lst.add_argument(
        "--channels",
        action="store_true",
        help="list only the registered channel kinds",
    )
    lst.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json: machine-readable registry dump)",
    )

    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("id", help="experiment id (e.g. E4, A1) or 'all'")
    run.add_argument(
        "--scale",
        choices=("smoke", "full"),
        default="smoke",
        help=(
            "sweep size: smoke (seconds) or full (the reproduced tables; "
            "up to a few minutes per experiment)"
        ),
    )
    run.add_argument("--seed", type=int, default=0, help="top-level RNG seed")
    run.add_argument(
        "--format",
        choices=("text", "csv", "markdown", "json"),
        default="text",
        help="output format",
    )
    _add_adversary_arguments(run)
    _add_channel_arguments(run)

    swp = sub.add_parser(
        "sweep",
        help="run a scenario grid (algorithms x seeds) and emit JSON reports",
    )
    swp.add_argument(
        "--algorithms",
        default="decay",
        help="comma-separated registered algorithm names (see 'repro list')",
    )
    swp.add_argument(
        "--topology", default="path", help="topology family (see 'repro list')"
    )
    swp.add_argument("--n", type=int, default=64, help="topology size")
    swp.add_argument(
        "--fault-model",
        choices=("none", "sender", "receiver"),
        default="none",
        help="fault mechanism",
    )
    swp.add_argument(
        "--p", type=float, default=0.0, help="fault probability in [0, 1)"
    )
    swp.add_argument(
        "--seeds",
        default="0",
        help="seed grid: comma list and/or start:stop ranges (e.g. 0,7 or 0:5)",
    )
    swp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="algorithm parameter (repeatable); VALUE parses as JSON when it can",
    )
    _add_adversary_arguments(swp)
    _add_channel_arguments(swp)
    swp.add_argument(
        "--max-rounds", type=int, default=None, help="round budget override"
    )
    swp.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes for the batch (1: serial)",
    )
    swp.add_argument(
        "--format",
        choices=("json", "table"),
        default="json",
        help="output format",
    )
    swp.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )
    swp.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="record canonical reports in this content-addressed SQLite store",
    )
    swp.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse stored results: scenarios already in --store skip "
            "execution (byte-identical reports, served from SQLite)"
        ),
    )

    srv = sub.add_parser(
        "serve",
        help="serve sweeps over HTTP: submit jobs, poll progress, fetch reports",
    )
    srv.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="the content-addressed result store backing the service",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=8765, help="bind port (0: ephemeral)"
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=2,
        help=(
            "in-process worker threads leasing from the job queue; remote "
            "'repro worker' processes lease from the same queue (0: run "
            "nothing here, only coordinate remote workers)"
        ),
    )
    srv.add_argument(
        "--processes",
        type=int,
        default=None,
        help=(
            "per-lease process fan-out of each in-process worker "
            "(default: in-thread)"
        ),
    )
    srv.add_argument(
        "--lease-scenarios",
        type=int,
        default=None,
        help="scenarios per lease chunk",
    )
    srv.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        help=(
            "seconds a lease survives without a heartbeat before its "
            "scenarios requeue"
        ),
    )
    srv.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "open/create the store sharded over this many SQLite files "
            "(PATH becomes a directory of shard-NN.db)"
        ),
    )
    srv.add_argument(
        "--recover",
        action="store_true",
        help=(
            "rebuild the job queue from the store's farm journal: jobs "
            "and in-flight leases a crashed service left behind resume "
            "under their original ids"
        ),
    )

    wrk = sub.add_parser(
        "worker",
        help=(
            "join a farm: pull scenario leases from a 'repro serve' "
            "job queue, execute, push reports back"
        ),
    )
    wrk.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="the coordinator's base URL (e.g. http://127.0.0.1:8765)",
    )
    wrk.add_argument(
        "--name",
        default="",
        help="worker name reported to the coordinator (default: host:pid)",
    )
    wrk.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="N",
        help="cap scenarios per lease (default: the coordinator's size)",
    )
    wrk.add_argument(
        "--processes",
        type=int,
        default=None,
        help="per-lease process fan-out for run_batch (default: in-thread)",
    )
    wrk.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between lease polls when the queue is idle",
    )
    wrk.add_argument(
        "--until-idle",
        action="store_true",
        help="exit once the queue drains instead of polling forever",
    )
    wrk.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help=(
            "total per-call deadline in seconds (attempts + retries); "
            "bounds how long a black-holed coordinator can stall a call"
        ),
    )
    wrk.add_argument(
        "--chaos-kill-after",
        type=int,
        default=None,
        metavar="N",
        help="fault injection: hard-kill this worker after N completed leases",
    )
    wrk.add_argument(
        "--chaos-heartbeat-factor",
        type=float,
        default=1.0,
        metavar="F",
        help=(
            "fault injection: multiply the heartbeat interval by F "
            "(values > 3 let leases expire mid-run)"
        ),
    )

    top = sub.add_parser(
        "top",
        help=(
            "live dashboard for a running service: workers, queue depth, "
            "throughput, and selected metrics, refreshed in place"
        ),
    )
    top.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="the service's base URL (e.g. http://127.0.0.1:8765)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes",
    )
    top.add_argument(
        "--count",
        type=int,
        default=0,
        metavar="N",
        help="render N frames then exit (0: refresh until interrupted)",
    )

    trc = sub.add_parser(
        "trace",
        help="inspect JSONL span files written by the telemetry TraceSink",
    )
    trc_sub = trc.add_subparsers(dest="action", required=True)
    shw = trc_sub.add_parser("show", help="print spans, one line each")
    shw.add_argument("path", help="a TraceSink JSONL file")
    shw.add_argument(
        "--limit", type=int, default=50, help="spans printed (default 50)"
    )
    shw.add_argument(
        "--trace",
        default=None,
        metavar="PREFIX",
        help="only spans whose trace id starts with PREFIX",
    )
    smz = trc_sub.add_parser(
        "summarize", help="per-span-name counts and durations"
    )
    smz.add_argument("path", help="a TraceSink JSONL file")

    tml = sub.add_parser(
        "timeline",
        help=(
            "inspect flight-recorder timelines: scalar summary, informed "
            "wavefront, and run-divergence diffing"
        ),
    )
    tml_sub = tml.add_subparsers(dest="action", required=True)
    format_kwargs = {
        "choices": ("text", "markdown", "json"),
        "default": "text",
        "help": "output format (default text)",
    }
    tshw = tml_sub.add_parser(
        "show", help="scalar progress summary + loss attribution"
    )
    tcrv = tml_sub.add_parser(
        "curve", help="the informed wavefront, one row per bucket"
    )
    for parser_ in (tshw, tcrv):
        parser_.add_argument(
            "source",
            help="a timeline JSON file, or a result store path with --key",
        )
        parser_.add_argument(
            "--key",
            default=None,
            metavar="CACHE_KEY",
            help=(
                "treat SOURCE as a result store and load the timeline "
                "sidecar stored under this report cache key"
            ),
        )
        parser_.add_argument("--format", **format_kwargs)
    tcrv.add_argument(
        "--limit", type=int, default=None, help="buckets printed (default all)"
    )
    tdif = tml_sub.add_parser(
        "diff",
        help="align two timelines and bisect the first diverging round",
    )
    tdif.add_argument(
        "a", help="first timeline: a JSON file, or a store path with --key-a"
    )
    tdif.add_argument(
        "b",
        nargs="?",
        default=None,
        help=(
            "second timeline; omit to load both sidecars from the first "
            "source's store (requires --key-a and --key-b)"
        ),
    )
    tdif.add_argument(
        "--key-a", default=None, metavar="CACHE_KEY",
        help="treat A as a result store; load this report's sidecar",
    )
    tdif.add_argument(
        "--key-b", default=None, metavar="CACHE_KEY",
        help="treat B (or A when B is omitted) as a result store",
    )
    tdif.add_argument("--format", **format_kwargs)

    sto = sub.add_parser(
        "store",
        help="inspect a result store, or export matching reports to JSON",
    )
    sto.add_argument("path", help="store database file (or shard directory)")
    sto.add_argument(
        "--stats",
        action="store_true",
        help=(
            "human-readable store summary: per-shard row counts and the "
            "dedup ratio (duplicate put offers absorbed by content "
            "addressing)"
        ),
    )
    sto.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help=(
            "with --stats: text (table) or json (machine-readable "
            "shard/dedup/quarantine stats for scraping)"
        ),
    )
    sto.add_argument(
        "--export",
        default=None,
        metavar="OUT",
        help="write matching reports to OUT as a JSON array",
    )
    sto.add_argument("--algorithm", default=None, help="filter by algorithm")
    sto.add_argument("--topology", default=None, help="filter by topology family")
    sto.add_argument(
        "--adversary",
        default=None,
        help="filter by adversary kind ('none': fault-coin runs)",
    )
    sto.add_argument(
        "--seed-min", type=int, default=None, help="minimum seed (inclusive)"
    )
    sto.add_argument(
        "--seed-max", type=int, default=None, help="maximum seed (inclusive)"
    )

    ana = sub.add_parser(
        "analyze",
        help=(
            "statistical analysis over a result store: aggregation with "
            "CIs, scaling-law fits, paired comparisons, adaptive sweeps"
        ),
    )
    ana_sub = ana.add_subparsers(dest="action", required=True)

    agg = ana_sub.add_parser(
        "aggregate", help="group-by statistics with Wilson/bootstrap CIs"
    )
    agg.add_argument(
        "--by",
        default="algorithm",
        help="comma-separated group dimensions (algorithm, topology, n, "
        "adversary, fault_model, fault_p, seed, success)",
    )
    agg.add_argument(
        "--percentiles",
        default="5,50,95",
        help="comma-separated metric percentiles per group",
    )
    _add_analysis_arguments(agg)

    fit = ana_sub.add_parser(
        "fit", help="fit rounds-vs-n scaling laws (power law + D+c*log^k n, AIC)"
    )
    fit.add_argument(
        "--by", default="algorithm", help="comma-separated group dimensions"
    )
    fit.add_argument(
        "--x", default="n", help="the scaling dimension (default: n)"
    )
    fit.add_argument(
        "--max-k", type=int, default=3, help="largest log power in the model family"
    )
    _add_analysis_arguments(fit)

    cmp = ana_sub.add_parser(
        "compare",
        help="paired two-arm comparison on matched seeds (sign test + "
        "bootstrap ratio CI)",
    )
    cmp.add_argument(
        "--arm-a",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        required=True,
        help="arm A row filter (repeatable), e.g. algorithm=decay",
    )
    cmp.add_argument(
        "--arm-b",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        required=True,
        help="arm B row filter (repeatable), e.g. algorithm=rlnc_decay",
    )
    cmp.add_argument(
        "--match-on",
        default="topology,n,seed",
        help="comma-separated dimensions pairs must agree on",
    )
    _add_analysis_arguments(cmp)

    ada = ana_sub.add_parser(
        "adaptive",
        help="adaptive sequential sweep: spend seeds where CIs are widest "
        "(resumable through the store)",
    )
    ada.add_argument(
        "--algorithms",
        default="decay",
        help="comma-separated registered algorithm names (a grid axis)",
    )
    ada.add_argument("--topology", default="path", help="topology family")
    ada.add_argument(
        "--n", default="64", help="comma-separated topology sizes (a grid axis)"
    )
    ada.add_argument(
        "--fault-model",
        choices=("none", "sender", "receiver"),
        default="none",
        help="fault mechanism",
    )
    ada.add_argument(
        "--p", type=float, default=0.0, help="fault probability in [0, 1)"
    )
    ada.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="algorithm parameter (repeatable)",
    )
    _add_adversary_arguments(ada)
    ada.add_argument(
        "--max-rounds", type=int, default=None, help="round budget override"
    )
    ada.add_argument(
        "--target-halfwidth",
        type=float,
        default=1.0,
        help="stop refining a cell once its CI is within ±this",
    )
    ada.add_argument(
        "--max-seeds", type=int, default=64, help="per-cell seed budget"
    )
    ada.add_argument(
        "--batch", type=int, default=4, help="seeds per refinement step"
    )
    ada.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes per batch (1: serial)",
    )
    _add_analysis_arguments(ada, filters=False)
    return parser


def _add_analysis_arguments(
    parser: argparse.ArgumentParser, filters: bool = True
) -> None:
    """Flags shared by every ``repro analyze`` action.

    ``filters=False`` (the adaptive action) skips the store row filters:
    adaptive sweeps *generate* runs from their scenario grid rather than
    reading filtered rows, so the flags would be dead weight there.
    """
    parser.add_argument("store", help="result store database file")
    parser.add_argument(
        "--metric",
        choices=("rounds", "rounds_per_message", "informed_fraction"),
        default="rounds",
        help="the per-run quantity analyzed",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for every interval",
    )
    parser.add_argument(
        "--resamples", type=int, default=1000, help="bootstrap resamples"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="bootstrap RNG seed"
    )
    if filters:
        parser.add_argument(
            "--algorithm", default=None, help="filter by algorithm"
        )
        parser.add_argument(
            "--topology-filter",
            default=None,
            metavar="NAME",
            help="filter by topology family",
        )
        parser.add_argument(
            "--adversary-filter",
            default=None,
            metavar="NAME",
            help="filter by adversary kind ('none': fault-coin runs)",
        )
        parser.add_argument(
            "--seed-min", type=int, default=None, help="minimum scenario seed"
        )
        parser.add_argument(
            "--seed-max", type=int, default=None, help="maximum scenario seed"
        )
    parser.add_argument(
        "--format",
        choices=("text", "markdown", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--canonical",
        action="store_true",
        help="with --format json: emit the canonical bytes (no meta), the "
        "form whose SHA-256 is the report's cache key",
    )
    parser.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )


def _analysis_filters(args: argparse.Namespace) -> dict[str, Any]:
    filters = {
        "algorithm": args.algorithm,
        "topology": args.topology_filter,
        "adversary": args.adversary_filter,
        "seed_min": args.seed_min,
        "seed_max": args.seed_max,
    }
    return {key: value for key, value in filters.items() if value is not None}


def _render_analysis(report, args: argparse.Namespace) -> int:
    if args.format == "json":
        text = report.to_json(indent=2, canonical=args.canonical)
    elif args.format == "markdown":
        text = report.to_table().to_markdown()
    else:
        table = report.to_table()
        summary = {
            key: value
            for key, value in report.summary.items()
            if key != "title"
        }
        text = table.to_text() + "\n" + json.dumps(summary, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {report.kind} analysis to {args.output}")
    else:
        print(text)
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    import os

    from repro import analysis

    new_store = args.action == "adaptive" and not os.path.exists(args.store)
    if not new_store and not os.path.exists(args.store):
        print(f"no store at {args.store!r}", file=sys.stderr)
        return 2
    store = _open_store(args.store)
    if store is None:
        return 2
    try:
        with store:
            if args.action == "aggregate":
                report = analysis.aggregate(
                    store,
                    by=_parse_names(args.by),
                    metric=args.metric,
                    percentiles=[float(q) for q in _parse_names(args.percentiles)],
                    confidence=args.confidence,
                    resamples=args.resamples,
                    seed=args.seed,
                    filters=_analysis_filters(args),
                )
            elif args.action == "fit":
                report = analysis.fit(
                    store,
                    by=_parse_names(args.by),
                    x=args.x,
                    metric=args.metric,
                    max_k=args.max_k,
                    seed=args.seed,
                    filters=_analysis_filters(args),
                )
            elif args.action == "compare":
                report = analysis.compare(
                    store,
                    arm_a=_parse_params(args.arm_a),
                    arm_b=_parse_params(args.arm_b),
                    metric=args.metric,
                    match_on=_parse_names(args.match_on),
                    confidence=args.confidence,
                    resamples=args.resamples,
                    seed=args.seed,
                    filters=_analysis_filters(args),
                )
            else:  # adaptive
                report = _run_adaptive(args, store)
    except (KeyError, ValueError, TypeError) as error:
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2
    return _render_analysis(report, args)


def _run_adaptive(args: argparse.Namespace, store):
    from repro.analysis import adaptive_sweep

    algorithms = _parse_names(args.algorithms)
    sizes = [int(n) for n in _parse_names(args.n)]
    if not algorithms or not sizes:
        raise ValueError("need at least one algorithm and one n")
    adversary = _parse_adversary(args)
    if args.fault_model == "none":
        faults = FaultConfig.faultless()
    else:
        faults = FaultConfig(FaultModel(args.fault_model), args.p)
    if adversary is not None and not faults.is_faultless:
        raise ValueError(
            "--adversary replaces the fault coins; drop --fault-model/--p"
        )
    base = Scenario(
        algorithm=algorithms[0],
        topology=args.topology,
        topology_params={"n": sizes[0]},
        params=_parse_params(args.param),
        faults=faults,
        adversary=adversary,
        seed=0,
        max_rounds=args.max_rounds,
    )
    report = adaptive_sweep(
        base,
        grid={"algorithm": algorithms, "n": sizes},
        target_halfwidth=args.target_halfwidth,
        max_seeds=args.max_seeds,
        batch=args.batch,
        metric=args.metric,
        confidence=args.confidence,
        resamples=args.resamples,
        seed=args.seed,
        store=store,
        processes=args.processes,
    )
    meta = report.meta
    print(
        f"adaptive: {report.summary['total_runs']} runs over "
        f"{report.summary['cells']} cells — {meta['executed']} executed, "
        f"{meta['served_from_store']} served from {args.store}",
        file=sys.stderr,
    )
    return report


def _parse_names(spec: str) -> list[str]:
    """A comma-separated name list -> stripped, non-empty entries."""
    return [part.strip() for part in spec.split(",") if part.strip()]


def _add_adversary_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--adversary",
        default=None,
        metavar="NAME",
        help=(
            "adversary model replacing the i.i.d. fault coins "
            "(see 'repro list --adversaries')"
        ),
    )
    parser.add_argument(
        "--adversary-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "adversary parameter (repeatable); VALUE parses as JSON when "
            "it can"
        ),
    )


def _parse_adversary(args: argparse.Namespace) -> Optional[AdversaryConfig]:
    """``--adversary``/``--adversary-param`` -> an AdversaryConfig (or None)."""
    if args.adversary is None:
        if args.adversary_param:
            raise ValueError("--adversary-param requires --adversary NAME")
        return None
    config = AdversaryConfig(args.adversary, _parse_params(args.adversary_param))
    # fail fast with a usage error, not deep inside an experiment driver
    from repro.adversary import get_adversary_type

    get_adversary_type(config.kind).validate_params(config.params)
    return config


def _add_channel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--channel",
        default="default",
        metavar="KIND",
        help=(
            "channel kind: 'default' (the paper's collision channel) or "
            "'contention' (CSMA/CA MAC; see 'repro list --channels')"
        ),
    )
    parser.add_argument(
        "--channel-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "channel parameter (repeatable); VALUE parses as JSON when "
            "it can"
        ),
    )


def _parse_channel(args: argparse.Namespace) -> tuple[str, dict]:
    """``--channel``/``--channel-param`` -> a validated (kind, params) pair."""
    params = _parse_params(args.channel_param)
    # fail fast on unknown kinds or parameter keys/values
    from repro.mac.config import make_channel_config

    make_channel_config(args.channel, params)
    return args.channel, params


def _render(table, fmt: str) -> str:
    if fmt == "csv":
        return table.to_csv()
    if fmt == "markdown":
        return table.to_markdown()
    if fmt == "json":
        return table.to_json(indent=2)
    return table.to_text()


def _parse_seeds(spec: str) -> list[int]:
    """``"0,7"`` and/or ``"0:5"`` range segments -> a seed list."""
    seeds: list[int] = []
    for segment in spec.split(","):
        segment = segment.strip()
        if not segment:
            continue
        if ":" in segment:
            start_text, stop_text = segment.split(":", 1)
            start, stop = int(start_text), int(stop_text)
            if stop <= start:
                raise ValueError(f"empty seed range {segment!r}")
            seeds.extend(range(start, stop))
        else:
            seeds.append(int(segment))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def _parse_params(pairs: Sequence[str]) -> dict[str, Any]:
    """``KEY=VALUE`` pairs with JSON-typed values (fallback: string)."""
    params: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        key, text = pair.split("=", 1)
        try:
            params[key.strip()] = json.loads(text)
        except json.JSONDecodeError:
            params[key.strip()] = text
    return params


def _print_adversary_section() -> None:
    print("adversaries (repro sweep --adversary NAME):")
    for kind in all_adversaries():
        print(f"  {kind.name:<24} {kind.summary}")
        if kind.params:
            declared = ", ".join(
                f"{p.name}={p.default!r}" for p in kind.params
            )
            print(f"  {'':<24} params: {declared}")


def _print_channel_section() -> None:
    from repro.mac.config import CHANNEL_KINDS

    print("channels (repro sweep --channel KIND):")
    for name in sorted(CHANNEL_KINDS):
        kind = CHANNEL_KINDS[name]
        print(f"  {name:<24} {kind['summary']}")
        if kind["params"]:
            declared = ", ".join(
                f"{key}={value!r}" for key, value in kind["params"].items()
            )
            print(f"  {'':<24} params: {declared}")


def _command_list(args: argparse.Namespace) -> int:
    if args.format == "json":
        print(json.dumps(registry_dump(args.adversaries), indent=2))
        return 0
    if args.adversaries:
        _print_adversary_section()
        return 0
    if args.channels:
        _print_channel_section()
        return 0
    print("experiments:")
    for experiment in all_experiments():
        print(f"{experiment.id:>4}  {experiment.title}")
        print(f"      {experiment.claim}")
    print()
    print("algorithms (repro sweep --algorithms NAME):")
    for algorithm in all_algorithms():
        print(f"  {algorithm.name:<24} [{algorithm.kind:<6}] {algorithm.summary}")
        if algorithm.params:
            declared = ", ".join(
                f"{p.name}={p.default!r}" for p in algorithm.params
            )
            print(f"  {'':<24} params: {declared}")
    print()
    families = ", ".join(sorted(TOPOLOGY_FAMILIES))
    print(f"topologies (repro sweep --topology NAME): {families}")
    print()
    _print_adversary_section()
    print()
    _print_channel_section()
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    if not algorithms:
        print("no algorithms given", file=sys.stderr)
        return 2
    # usage errors (bad names, specs, parameter values) fail fast with a
    # one-line message; genuine runtime errors inside the batch propagate
    # with their traceback
    try:
        seeds = _parse_seeds(args.seeds)
        params = _parse_params(args.param)
        adversary = _parse_adversary(args)
        channel, channel_params = _parse_channel(args)
        if args.fault_model == "none":
            faults = FaultConfig.faultless()
        else:
            faults = FaultConfig(FaultModel(args.fault_model), args.p)
        if adversary is not None and not faults.is_faultless:
            raise ValueError(
                "--adversary replaces the fault coins; drop --fault-model/--p"
            )
        base = Scenario(
            algorithm=algorithms[0],
            topology=args.topology,
            topology_params={"n": args.n},
            params=params,
            faults=faults,
            adversary=adversary,
            seed=seeds[0],
            max_rounds=args.max_rounds,
            channel=channel,
            channel_params=channel_params,
        )
        scenarios = expand_grid(
            base, seeds=seeds, grid={"algorithm": algorithms}
        )
        if args.resume and args.store is None:
            raise ValueError("--resume requires --store PATH")
    except (KeyError, ValueError, TypeError) as error:
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2

    if args.store is not None:
        store = _open_store(args.store)
        if store is None:
            return 2
        with store:
            before = len(store)
            reports = run_batch(
                scenarios,
                processes=args.processes,
                store=store,
                reuse=args.resume,
            )
            if args.resume:
                # misses are exactly the newly stored rows, so the hit
                # count costs two COUNT(*)s instead of a per-scenario probe
                cached = len(scenarios) - (len(store) - before)
                print(
                    f"resume: {cached}/{len(scenarios)} scenarios served "
                    f"from {args.store}",
                    file=sys.stderr,
                )
    else:
        reports = run_batch(scenarios, processes=args.processes)

    if args.format == "json":
        text = json.dumps(
            [report.to_dict() for report in reports], indent=2, sort_keys=True
        )
    else:
        from repro.experiments.common import report_table

        text = report_table(reports, title="scenario sweep").to_text()

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(reports)} reports to {args.output}")
    else:
        print(text)
    return 0


def _open_store(path: str, shards: Optional[int] = None):
    """Open a ResultStore, or print a one-line error and return None."""
    import sqlite3

    from repro.store import ResultStore

    try:
        return ResultStore(path, shards=shards)
    except (sqlite3.DatabaseError, ValueError) as error:
        print(f"cannot open store {path!r}: {error}", file=sys.stderr)
        return None


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    if args.workers < 0:
        print("--workers must be >= 0", file=sys.stderr)
        return 2
    # fail fast with a usage error if the store is unusable, before
    # binding the socket
    store = _open_store(args.store, shards=args.shards)
    if store is None:
        return 2
    store.close()
    return serve(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        processes=args.processes,
        lease_scenarios=args.lease_scenarios,
        lease_timeout=args.lease_timeout,
        shards=args.shards,
        recover=args.recover,
    )


def _command_worker(args: argparse.Namespace) -> int:
    from repro.farm import run_worker

    return run_worker(
        args.connect,
        name=args.name,
        max_scenarios=args.chunk,
        processes=args.processes,
        poll=args.poll,
        until_idle=args.until_idle,
        deadline=args.deadline,
        chaos_kill_after=args.chaos_kill_after,
        chaos_heartbeat_factor=args.chaos_heartbeat_factor,
    )


def _command_store(args: argparse.Namespace) -> int:
    import os

    if not os.path.exists(args.path):
        print(f"no store at {args.path!r}", file=sys.stderr)
        return 2
    filters = {
        "algorithm": args.algorithm,
        "topology": args.topology,
        "adversary": args.adversary,
        "seed_min": args.seed_min,
        "seed_max": args.seed_max,
    }
    filters = {key: value for key, value in filters.items() if value is not None}
    store = _open_store(args.path)
    if store is None:
        return 2
    with store:
        if args.export is not None:
            written = store.export_json(args.export, **filters)
            print(f"exported {written} reports to {args.export}")
            return 0
        if args.stats:
            if args.format == "json":
                print(json.dumps(_store_stats_json(store), indent=2, sort_keys=True))
            else:
                print(_store_stats_text(store))
            return 0
        stats = store.stats()
        if filters:
            stats["matching"] = store.count(**filters)
        print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _store_stats_text(store) -> str:
    """Human-readable store summary: per-shard rows + dedup (``--stats``)."""
    from repro.util.tables import Table

    stats = store.stats()
    shards = store.shard_stats()
    table = Table(
        ("shard", "path", "reports", "attempted", "dedup_ratio"),
        title=(
            f"{stats['path']} — {stats['backend']} backend, "
            f"{stats['shards']} shard(s)"
        ),
    )
    for entry in shards:
        attempted = entry["attempted"]
        ratio = (
            round(1.0 - entry["reports"] / attempted, 4) if attempted else 0.0
        )
        table.add_row(
            entry["shard"], entry["path"], entry["reports"], attempted, ratio
        )
    summary = (
        f"total: {stats['reports']} reports from {stats['puts_attempted']} "
        f"put offers (dedup ratio {stats['dedup_ratio']}); "
        f"{stats['stored_wall_time_s']:.1f}s of stored compute"
    )
    lines = [table.to_text(), summary]
    if stats.get("journal_records"):
        lines.append(
            f"farm journal: {stats['journal_records']} record(s) "
            "(coordinator state; 'repro serve --recover' replays it)"
        )
    from repro.farm.coordinator import read_quarantined

    quarantined = read_quarantined(store)
    if quarantined:
        lines.append(f"quarantined scenarios: {len(quarantined)}")
        for entry in quarantined:
            lines.append(
                f"  {entry['key']} (job {entry['job']}): {entry['error']}"
            )
    return "\n".join(lines)


def _store_stats_json(store) -> dict[str, Any]:
    """The machine-readable twin of ``--stats`` (``--format json``)."""
    from repro.farm.coordinator import read_quarantined

    return {
        **store.stats(),
        "shard_stats": store.shard_stats(),
        "quarantined": read_quarantined(store),
    }


def _top_frame(client) -> str:
    """One rendered frame of the ``repro top`` dashboard."""
    from repro.util.tables import Table

    health = client.health()
    lines = [
        f"repro top — {client.base_url}  "
        f"store: {health['reports']} reports  (v{health['version']})"
    ]
    snapshot = client.workers()
    queue = snapshot["queue"]
    rates = snapshot.get("rates", {})
    lines.append(
        f"queue: {queue['pending_scenarios']} pending, "
        f"{queue['outstanding_leases']} leased, "
        f"{queue['scenarios_completed']} completed "
        f"({queue['duplicates']} duplicate(s), "
        f"{queue['quarantined_scenarios']} quarantined); "
        f"throughput {rates.get('scenarios_per_s', 0.0)}/s over "
        f"{rates.get('window_s', 0)}s"
    )
    if snapshot["workers"]:
        table = Table(
            ("worker", "name", "idle_s", "leases", "lost",
             "executed", "cached"),
        )
        for worker in snapshot["workers"]:
            table.add_row(
                worker["id"],
                worker["name"],
                worker["idle_s"],
                worker["leases_completed"],
                worker["leases_lost"],
                worker["executed"],
                worker["cached"],
            )
        lines.append(table.to_text())
    else:
        lines.append("no workers registered")
    try:
        metrics = client.metrics_json().get("metrics", {})
    except Exception:  # noqa: BLE001 - older service without /metrics.json
        metrics = {}
    parts = []
    for name in (
        "repro_store_put_rows_total",
        "repro_farm_leases_granted_total",
        "repro_farm_leases_expired_total",
        "repro_client_retries_total",
    ):
        metric = metrics.get(name)
        if metric and metric.get("value"):
            parts.append(f"{name[len('repro_'):]}={metric['value']}")
    http = metrics.get("repro_http_requests_total") or {}
    total_http = sum(entry["value"] for entry in http.get("labeled", []))
    if total_http:
        parts.append(f"http_requests={total_http}")
    # contention-MAC health: collisions per MAC transmission, Bianchi's
    # collision probability (only shown once the service has run
    # contention-channel scenarios; default-channel runs count neither)
    mac_collisions = (metrics.get("repro_mac_collisions_total") or {}).get(
        "value", 0
    )
    transmissions = (metrics.get("repro_mac_transmissions_total") or {}).get(
        "value", 0
    )
    if mac_collisions and transmissions:
        parts.append(
            f"mac_collisions/transmissions={mac_collisions / transmissions:.3f}"
        )
    if parts:
        lines.append("metrics: " + "  ".join(parts))
    return "\n".join(lines)


def _command_top(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import ServiceClient

    client = ServiceClient(args.connect, timeout=10.0, retries=1)
    frames = 0
    try:
        while True:
            try:
                frame = _top_frame(client)
            except Exception as error:  # noqa: BLE001 - keep refreshing
                frame = f"cannot reach {args.connect}: {error}"
            if sys.stdout.isatty() and args.count != 1:
                # clear + home between frames, only when interactive
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            frames += 1
            if args.count and frames >= args.count:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _command_trace(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry import read_trace_file

    if not os.path.exists(args.path):
        print(f"no trace file at {args.path!r}", file=sys.stderr)
        return 2
    try:
        records = read_trace_file(args.path)
    except (ValueError, KeyError, TypeError) as error:
        print(
            f"cannot parse trace file {args.path!r}: {error}", file=sys.stderr
        )
        return 2
    if args.action == "show":
        if args.trace:
            records = [
                record for record in records
                if record["trace"].startswith(args.trace)
            ]
        for record in records[: args.limit]:
            attrs = record.get("attrs", {})
            extra = " ".join(
                f"{key}={value}" for key, value in sorted(attrs.items())
            )
            print(
                f"{record['trace'][:12]} {record['span']} "
                f"{record['name']:<16} "
                f"{record['duration_s'] * 1000.0:10.3f}ms  {extra}"
            )
        if len(records) > args.limit:
            print(f"... {len(records) - args.limit} more (raise --limit)")
        return 0
    # summarize
    from repro.util.tables import Table

    by_name: dict[str, list[float]] = {}
    traces = set()
    for record in records:
        traces.add(record["trace"])
        entry = by_name.setdefault(record["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record["duration_s"]
        entry[2] = max(entry[2], record["duration_s"])
    table = Table(
        ("span", "count", "total_s", "mean_ms", "max_ms"),
        title=f"{args.path}: {len(records)} span(s), {len(traces)} trace(s)",
    )
    for name in sorted(by_name):
        count, total, peak = by_name[name]
        table.add_row(
            name,
            int(count),
            round(total, 3),
            round(total / count * 1000.0, 3),
            round(peak * 1000.0, 3),
        )
    print(table.to_text())
    return 0


def _load_timeline(path: str, key: Optional[str]):
    """Load a Timeline from a JSON file (or a store sidecar with ``key``).

    Prints a one-line error and returns None on any failure, so callers
    can turn it straight into exit code 2.
    """
    import os

    from repro.timeline import Timeline

    if key is not None:
        if not os.path.exists(path):
            print(f"no store at {path!r}", file=sys.stderr)
            return None
        store = _open_store(path)
        if store is None:
            return None
        with store:
            timeline = store.get_timeline(key)
        if timeline is None:
            print(
                f"no timeline stored under {key!r} in {path!r}",
                file=sys.stderr,
            )
            return None
        return timeline
    if not os.path.exists(path):
        print(f"no timeline file at {path!r}", file=sys.stderr)
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return Timeline.from_json(handle.read())
    except (ValueError, KeyError, TypeError) as error:
        print(f"cannot parse timeline {path!r}: {error}", file=sys.stderr)
        return None


def _command_timeline(args: argparse.Namespace) -> int:
    from repro.timeline.analyze import progress_curve, summarize
    from repro.timeline.diff import diff_timelines
    from repro.util.tables import Table

    if args.action == "diff":
        if args.b is None and (args.key_a is None or args.key_b is None):
            print(
                "timeline diff needs two sources: two files, two "
                "store/--key pairs, or one store with --key-a and --key-b",
                file=sys.stderr,
            )
            return 2
        a = _load_timeline(args.a, args.key_a)
        if a is None:
            return 2
        b = _load_timeline(args.b if args.b is not None else args.a, args.key_b)
        if b is None:
            return 2
        try:
            diff = diff_timelines(a, b)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        if args.format == "json":
            print(diff.to_json(indent=2))
        else:
            print(_render(diff.to_table(), args.format))
        return 0

    timeline = _load_timeline(args.source, args.key)
    if timeline is None:
        return 2

    if args.action == "curve":
        points = progress_curve(timeline)
        if args.limit is not None:
            points = points[: args.limit]
        if args.format == "json":
            print(json.dumps(points, indent=2, sort_keys=True))
            return 0
        table = Table(
            ("round", "informed", "fraction", "new_informed", "deliveries"),
            title=(
                f"informed wavefront: n={timeline.n} every={timeline.every}"
            ),
        )
        for point in points:
            table.add_row(
                point["round"],
                point["informed"],
                round(point["fraction"], 4),
                point["new_informed"],
                point["deliveries"],
            )
        print(_render(table, args.format))
        return 0

    # show
    summary = summarize(timeline)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    table = Table(
        ("metric", "value"),
        title=(
            f"timeline: n={timeline.n} rounds={timeline.rounds} "
            f"every={timeline.every}"
        ),
    )
    for name in sorted(summary):
        value = summary[name]
        if isinstance(value, float):
            value = round(value, 4)
        table.add_row(name, value)
    print(_render(table, args.format))
    return 0


def _experiments_accepting(adversary, channel) -> list:
    """The experiments ``run all`` runs: those accepting the overrides.

    Each one left out gets a stderr line naming a flag it refuses.
    """
    selected = []
    for experiment in all_experiments():
        if adversary is not None and not experiment.accepts_adversary:
            flag = "--adversary"
        elif channel is not None and not experiment.accepts_channel:
            flag = "--channel"
        else:
            selected.append(experiment)
            continue
        print(
            f"skipping {experiment.id}: it does not accept {flag}",
            file=sys.stderr,
        )
    return selected


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        return _command_list(args)

    if args.command == "sweep":
        return _command_sweep(args)

    if args.command == "serve":
        return _command_serve(args)

    if args.command == "worker":
        return _command_worker(args)

    if args.command == "store":
        return _command_store(args)

    if args.command == "top":
        return _command_top(args)

    if args.command == "trace":
        return _command_trace(args)

    if args.command == "timeline":
        return _command_timeline(args)

    if args.command == "analyze":
        return _command_analyze(args)

    try:
        adversary = _parse_adversary(args)
        channel_kind, channel_params = _parse_channel(args)
    except (KeyError, ValueError, TypeError) as error:
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2
    # only a non-default channel is an override an experiment must opt into
    channel = (
        None
        if channel_kind == "default" and not channel_params
        else (channel_kind, channel_params)
    )

    if args.id.lower() == "all":
        experiments = _experiments_accepting(adversary, channel)
        if not experiments:
            print("no experiment accepts the given overrides", file=sys.stderr)
            return 2
    else:
        try:
            experiments = [get_experiment(args.id)]
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2

    for experiment in experiments:
        try:
            table = experiment(
                scale=args.scale,
                seed=args.seed,
                adversary=adversary,
                channel=channel,
            )
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        print(_render(table, args.format))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
