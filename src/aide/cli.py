"""Command-line entry points.

    aide gen-corpus       synthesize an instruction draft corpus (aide-corpus/2)
    aide build-space      cluster drafts into a persisted relationship space
    aide eval             batch closed-loop evaluation with the metric suite
    aide ablate-retrieval retrieval runtime/accuracy comparison table
    aide error-analysis   injected-failure detection and recovery rates
    aide run-episode      single episode, optionally interactive
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ConfigParams, load_config
from .harness import (
    ablate_retrieval,
    console_answerer,
    events_path,
    gen_corpus,
    hint_answerer,
    render_ablation,
    render_report,
    resolve_worlds,
    run_episode,
    run_error_analysis,
    run_eval,
)
from .mock import DEFAULT_SIGMA
from .planner import MAX_STEPS, write_trace
from .simulator import WorldError
from .space import SpaceError, build_space, load_space, read_corpus, save_space


_CORPUS_HELP = "corpus file as gen-corpus writes it (aide-corpus/2)"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="aide-config/1 document")
    parser.add_argument("--seed", type=int, default=0)


def _add_episode_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that run episodes on a saved space."""
    parser.add_argument("--space", type=Path, help="space file as build-space writes it (aide-space/3)")
    parser.add_argument("--scenarios", type=Path, help="directory of aide-world/1 files")
    parser.add_argument("--report", type=Path, help="output report path")
    parser.add_argument(
        "--noise", type=float, default=DEFAULT_SIGMA, help="mock noise sigma (default: %(default)s)"
    )
    parser.add_argument(
        "--max-steps", type=int, default=MAX_STEPS, help="ticks before a timeout (default: %(default)s)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aide",
        description="Closed-loop task planning: corpus and space construction, "
        "batch evaluation, retrieval ablation, error analysis, single episodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate synthetic instruction drafts")
    _add_common(p)
    p.add_argument("--out", type=Path, required=True, help="output corpus path (aide-corpus/2)")
    p.add_argument("--count", type=int, default=432, help="draft count")

    p = sub.add_parser("build-space", help="build and persist the relationship space")
    _add_common(p)
    p.add_argument("--corpus", type=Path, required=True, help=_CORPUS_HELP)
    p.add_argument("--out", type=Path, required=True, help="output space path")

    p = sub.add_parser("eval", help="run the batch evaluation suite")
    _add_common(p)
    _add_episode_flags(p)
    p.add_argument("--episodes", type=int, default=None, help="episode count (default: one per world)")

    p = sub.add_parser("ablate-retrieval", help="retrieval method and threshold ablation")
    _add_common(p)
    p.add_argument("--corpus", type=Path, required=True, help=_CORPUS_HELP)
    p.add_argument("--report", type=Path, help="output report path")
    p.add_argument(
        "--method",
        choices=("both", "affordance", "textsim"),
        default="both",
    )
    p.add_argument("--queries", type=int, default=100)

    p = sub.add_parser("error-analysis", help="injected failure detection/recovery")
    _add_common(p)
    _add_episode_flags(p)
    p.add_argument("--no-hints", action="store_true", help="disable human-recovery hints")

    p = sub.add_parser("run-episode", help="run one scenario end to end")
    _add_common(p)
    _add_episode_flags(p)
    p.add_argument("--interactive", action="store_true", help="answer prompts from stdin")
    p.add_argument("--world", required=True, help="world id (built-in or from --scenarios)")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a rejected input is a one-line error and exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, SpaceError, WorldError, ValueError, OSError) as exc:
        print(f"aide {args.command}: error: {exc}", file=sys.stderr)
        return 2


def _printed(text: str, report: Path | None) -> int:
    """Print a rendered report, and write the same text to ``report`` when one is given."""
    print(text, end="")
    if report:
        report.write_text(text, encoding="utf-8")
    return 0


def _run(args) -> int:
    params = load_config(args.config) if args.config else ConfigParams()

    if args.command == "gen-corpus":
        drafts = gen_corpus(args.count, params.X, params.a, params.b, args.seed, path=args.out)
        print(f"wrote {len(drafts)} drafts to {args.out}")
        return 0

    if args.command == "build-space":
        drafts = read_corpus(args.corpus)
        space = build_space(drafts, params, args.seed)
        save_space(space, args.out)
        print(f"built space with {space.record_count} records into {args.out}")
        return 0

    if args.command == "ablate-retrieval":
        drafts = read_corpus(args.corpus)
        methods = ("affordance", "textsim") if args.method == "both" else (args.method,)
        rows = ablate_retrieval(
            drafts, params, methods=methods, seed=args.seed, query_count=args.queries
        )
        return _printed(render_ablation(rows, {"seed": args.seed, "queries": args.queries}), args.report)

    if args.space is None:
        print(f"{args.command} needs --space", file=sys.stderr)
        return 2
    space = load_space(args.space)
    worlds = resolve_worlds(args.scenarios)

    if args.command == "eval":
        write_events = None
        if args.report:
            # Each episode's events are appended as it ends; no trace is kept.
            events = events_path(args.report)
            events.unlink(missing_ok=True)

            def write_events(episode_id, trace):
                write_trace(trace, events, episode_id)

        report = run_eval(
            space,
            worlds,
            params,
            seed=args.seed,
            noise=args.noise,
            max_steps=args.max_steps,
            episodes=args.episodes,
            trace_sink=write_events,
        )
        return _printed(render_report(report), args.report)

    if args.command == "error-analysis":
        report = run_error_analysis(
            space,
            worlds,
            params,
            seed=args.seed,
            noise=args.noise,
            max_steps=args.max_steps,
            with_hints=not args.no_hints,
        )
        return _printed(render_report(report, title="error analysis"), args.report)

    if args.command == "run-episode":
        if args.world not in worlds:
            print(f"unknown world {args.world!r}; have: {sorted(worlds)}", file=sys.stderr)
            return 2
        world = worlds[args.world]
        answer = console_answerer(input) if args.interactive else hint_answerer(world)
        _, trace = run_episode(
            args.world, world, space, params, args.seed, args.noise, args.max_steps, answer
        )
        print(
            f"{world.world_id}: {trace.status}"
            + (f" ({trace.fail_reason})" if trace.fail_reason else "")
            + f" in {trace.steps} steps, {trace.wall_seconds:.3f}s"
        )
        if args.report:
            args.report.unlink(missing_ok=True)
            write_trace(trace, args.report, f"ep-{args.world}")
            print(f"trace written to {args.report}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
