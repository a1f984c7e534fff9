"""Closed-loop benchmark for aide: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ref-eval --seed 100 --seconds 10 --trace 0

Run it from the repository root; it imports the package from ``src/``.

Load model: one process, one thread, one episode and one tick at a time. The
planner waits for each frame and each perception reply before the next
request (a closed loop with one client). Every workload evaluates the same
episode set, ``run_eval(space, seed=<--seed>, noise=0.5, episodes=200)`` over
the 24 scripted scenarios; they differ in the space and the backend:

  ref-eval     space from gen_corpus(432), MockPerception
  index-50k    space from gen_corpus(50000), MockPerception
  remote-eval  space from gen_corpus(432), RemotePerception whose transport
               is the JSON stand-in in ``standin.py``

Set-up generates the corpus (``--corpus-seed``, also the build seed), builds
the space, saves it as an ``aide-space/1`` file and loads it again, as
``aide eval --space`` does. It runs at least ``SETUP_REPEATS`` times and
until ``SETUP_SECONDS`` have passed (once with ``--trace 1``); ``setup_s``
is the median and the last loaded space is the one measured.

``--trace 0`` repeats the episode batch until ``--seconds`` have passed (at
least once) with only two names patched: a timer around ``aide.planner.step``
and a call-counting subclass in place of ``aide.harness.MockPerception``. It
prints the end-to-end metrics. ``--trace 1`` runs the same untraced batches,
then one batch with spans at every layer boundary (see ``layers.py``), and
prints the per-layer metrics; the spans are written to ``.bench_out/``.

End-to-end timings (``ticks_per_s``, ``tick_p50_ms``, ``setup_s``) are
reported at a nominal machine speed sampled all through the run (see
``speed.py``); the per-layer ``harness.unscaled_ticks_per_s`` is the
throughput as measured. The p99 step latency is the per-layer
``planner.tick_p99_ms``: across seeds it repeats within a tenth on ref-eval
and index-50k but not on remote-eval.

Every batch is checked: episodes end ``completed`` or ``failed`` with a known
reason, and repeated batches give the same events digest. Where
``expected.json`` holds a reference for the seed, ticks, WSR, ESR and the
digest of ``events.jsonl`` (``latency_ms``/``wall_seconds`` removed) must
equal it; for another seed with the default settings, ticks, WSR and ESR
must lie in the range recorded over all reference seeds, widened by its width
(at least 1% of its top) on either side. ``remote-eval`` also runs the batch
once with ``MockPerception`` and requires the same per-episode outcomes and
digest. The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (episodes) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from aide import harness, planner  # noqa: E402
from aide.config import ConfigParams  # noqa: E402
from aide.mock import MockPerception  # noqa: E402
from aide.remote import RemotePerception  # noqa: E402
from aide.space import build_space, load_space, save_space  # noqa: E402

from layers import CAPABILITIES, CallCounter, Patches, Tracer, install_layer_spans  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from standin import STANDIN_URL, JsonStandIn  # noqa: E402

PARAMS = ConfigParams()
NOISE = 0.5
EPISODES = 200
DEFAULT_SEED = 100
CORPUS_SEED = 7
SETUP_REPEATS = 2  # index-50k sets up in about 20 s; each run must end within 180 s
SETUP_SECONDS = 4.0  # the small spaces set up in a tenth of a second
EXPECTED_PATH = BENCH_DIR / "expected.json"
TMP_DIR = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

KNOWN_FAIL_REASONS = frozenset(
    {
        planner.REASON_TIMEOUT,
        planner.REASON_PLANNING_ERROR,
        planner.REASON_REFORMULATION_LOOP,
        planner.REASON_HUMAN_ABORT,
        planner.REASON_EXPLORATION_IMPOSSIBLE,
    }
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_size: int
    remote: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref-eval", 432, remote=False),
        Workload("index-50k", 50_000, remote=False),
        Workload("remote-eval", 432, remote=True),
    )
}

# (name, unit) in the order printed; BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("ticks_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("perception_calls_per_tick", "1/tick"),
    ("wsr_pct", "%"),
    ("esr_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("harness.gen_corpus_s", "s"),
    ("harness.episode_overhead_ms", "ms"),
    ("harness.check_success_us", "us"),
    ("harness.reference_loop_us", "us"),
    ("harness.unscaled_ticks_per_s", "1/s"),
    ("space.build_s", "s"),
    ("space.save_s", "s"),
    ("space.load_s", "s"),
    ("space.clone_ms", "ms"),
    ("space.dfs_retrieve_us", "us"),
    ("space.dfs_visited_per_query", "records/query"),
    ("space.candidate_set_us", "us"),
    ("space.candidates_per_pool", "records/pool"),
    ("space.insert_us", "us"),
    ("space.inserts_per_episode", "1/episode"),
    ("ers.retrieve_candidates_us", "us"),
    ("ers.match_tool_self_us", "us"),
    ("ers.pool_derive_us", "us"),
    ("ers.pool_derive_calls_per_tick", "1/tick"),
    ("ers.ground_regions_us", "us"),
    ("ers.grounded_share", "ratio"),
    ("planner.step_self_us", "us"),
    ("planner.validity_check_us", "us"),
    ("planner.run_msi_us", "us"),
    ("planner.msi_share", "ratio"),
    ("planner.tick_p99_ms", "ms"),
    ("exploration.visible_us", "us"),
    ("exploration.invisible_us", "us"),
    ("exploration.calls_per_tick", "1/tick"),
    *((f"perception.{cap}_per_tick", "1/tick") for cap in CAPABILITIES),
    ("perception.similarity_repeat_share", "ratio"),
    ("perception.backend_us_per_tick", "us/tick"),
    ("perception.errors_per_tick", "1/tick"),
    ("remote.client_us_per_call", "us"),
    ("remote.transport_us_per_call", "us"),
    ("remote.round_trips_per_tick", "1/tick"),
    ("remote.breaker_opens", "count"),
    ("simulator.observe_us", "us"),
    ("simulator.apply_us", "us"),
    ("trace.overhead_pct", "%"),
)


# --- set-up -------------------------------------------------------------------


def set_up(
    workload: Workload,
    corpus_seed: int,
    repeats: int,
    seconds: float,
    tmp: Path,
    sampler: SpeedSampler,
):
    """Generate, build, save and load the space at least ``repeats`` times
    and until ``seconds`` have passed.

    Returns the last loaded space and, per repeat, the sampler's marks at the
    start and after each phase (gen, build, save, load).
    """
    marks: list[list[tuple[float, float]]] = []
    path = tmp / "space.json"
    space = None
    begin = perf_counter()
    while len(marks) < repeats or perf_counter() - begin < seconds:
        space = None  # each repeat starts from the same heap: the previous one's freed
        gc.collect()
        repeat = [sampler.mark()]
        corpus = harness.gen_corpus(
            workload.corpus_size, PARAMS.X, PARAMS.a, PARAMS.b, corpus_seed
        )
        repeat.append(sampler.mark())
        built = build_space(corpus, PARAMS, corpus_seed)
        repeat.append(sampler.mark())
        del corpus
        save_space(built, path)
        repeat.append(sampler.mark())
        del built
        space = load_space(path)
        repeat.append(sampler.mark())
        marks.append(repeat)
    path.unlink()
    return space, marks


def setup_phases(marks, sampler: SpeedSampler) -> dict[str, list[float]]:
    """Each phase's seconds per repeat, and their total, at nominal speed."""
    phases: dict[str, list[float]] = {"gen": [], "build": [], "save": [], "load": [], "total": []}
    for repeat in marks:
        for key, start, end in zip(phases, repeat, repeat[1:]):
            phases[key].append(sampler.nominal(start, end))
        phases["total"].append(sampler.nominal(repeat[0], repeat[-1]))
    return phases


# --- batches --------------------------------------------------------------------


@dataclass
class Batch:
    start: tuple[float, float]  # the sampler's marks around run_eval
    end: tuple[float, float]
    ticks: int
    wsr: float
    esr: float | None
    outcomes: list[tuple]
    digest: str
    # Untraced batches only: each step's start (perf_counter) and seconds.
    step_s: list[tuple[float, float]] = field(default_factory=list)

    @property
    def unscaled_ticks_per_s(self) -> float:
        """Ticks over the batch's wall time, the reference runs excluded."""
        return self.ticks / (self.end[1] - self.start[1])


@dataclass
class Run:
    batches: list[Batch] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    sampler: SpeedSampler = field(default_factory=SpeedSampler)


def events_digest(traces: list, tmp: Path) -> str:
    """sha256 of ``events.jsonl`` as ``aide eval`` writes it, timings removed."""
    path = tmp / "events.jsonl"
    path.unlink(missing_ok=True)
    for episode_id, trace in traces:
        planner.write_trace(trace, path, episode_id)
    digest = hashlib.sha256()
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            doc.pop("latency_ms", None)
            doc.pop("wall_seconds", None)
            digest.update(json.dumps(doc).encode("utf-8") + b"\n")
    path.unlink()
    return digest.hexdigest()


def run_batch(space, seed: int, episodes: int, tmp: Path, run: Run) -> Batch | None:
    """One ``run_eval`` over the episode set; None when it raised."""
    traces: list = []
    run.attempted += episodes
    start = run.sampler.mark()
    try:
        report = harness.run_eval(
            space,
            seed=seed,
            noise=NOISE,
            episodes=episodes,
            trace_sink=lambda episode_id, trace: traces.append((episode_id, trace)),
        )
    except Exception:  # the benchmark reports a crashing batch and stops
        run.failed += episodes
        run.problems.append("run_eval raised:\n" + traceback.format_exc())
        return None
    end = run.sampler.mark()
    outcomes = [
        (
            r.episode_id,
            r.world_id,
            r.status,
            r.fail_reason,
            r.steps,
            r.tool,
            r.operational,
            r.functional,
            r.whole,
            r.exploration,
            r.valid_frames,
            r.correct_frames,
        )
        for r in report.rows
    ]
    batch = Batch(
        start=start,
        end=end,
        ticks=sum(r.steps for r in report.rows),
        wsr=report.wsr,
        esr=report.esr,
        outcomes=outcomes,
        digest=events_digest(traces, tmp),
    )
    for r in report.rows:
        if r.status == planner.FAILED:
            run.failed += 1
            if r.fail_reason not in KNOWN_FAIL_REASONS:
                run.problems.append(f"{r.episode_id}: unknown fail reason {r.fail_reason!r}")
        elif r.status != planner.COMPLETED:
            run.failed += 1
            run.problems.append(f"{r.episode_id}: ended with status {r.status!r}")
    if run.batches and batch.digest != run.batches[0].digest:
        run.problems.append("output change: a repeated batch gave another events digest")
    run.batches.append(batch)
    return batch


def backend_factory(workload: Workload, counter: CallCounter, tracer: Tracer | None):
    """What replaces ``aide.harness.MockPerception`` for this workload."""
    mock = counter.subclass(MockPerception)
    if not workload.remote:
        return mock

    def remote_backend(world, params, seed=0, sigma=None):
        transport = JsonStandIn(mock(world, params, seed=seed, sigma=sigma))
        if tracer is not None:
            transport = tracer.wrap("remote.transport", transport)
        return RemotePerception(STANDIN_URL, transport=transport)

    return remote_backend


def step_timer(step, sampler: SpeedSampler, samples: list[tuple[float, float]]):
    def timed(*args, **kwargs):
        start, clock = sampler.mark()
        result = step(*args, **kwargs)
        samples.append((start, sampler.clock() - clock))
        return result

    return timed


def untraced_batches(workload, space, seed, episodes, seconds, tmp, run) -> int:
    """Batches until ``seconds`` have passed; returns the backend calls made."""
    samples: list[tuple[float, float]] = []
    counter = CallCounter()
    patches = Patches()
    patches.install(planner, "step", step_timer(vars(planner)["step"], run.sampler, samples))
    patches.install(harness, "MockPerception", backend_factory(workload, counter, None))
    try:
        begin = perf_counter()
        while True:
            batch = run_batch(space, seed, episodes, tmp, run)
            if batch is None:
                break
            batch.step_s = samples[:]
            samples.clear()
            if perf_counter() - begin >= seconds:
                break
    finally:
        left = patches.restore()
    if left:
        run.problems.append(f"names not restored: {left}")
    return counter.total


# --- checks ---------------------------------------------------------------------


def check_reference(run: Run, corpus_seed: int, seed: int, episodes: int) -> str:
    """Compare the first batch with ``expected.json``; returns a status line."""
    expected_doc = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    if (corpus_seed, episodes, NOISE) != (
        expected_doc["corpus_seed"],
        expected_doc["episodes"],
        expected_doc["noise"],
    ):
        return "no reference for these settings; invariants and repeat checks only"
    if not run.batches:
        return "no batch finished"
    first = run.batches[0]
    got = {
        "ticks": first.ticks,
        "wsr_pct": first.wsr,
        "esr_pct": first.esr,
        "events_sha256": first.digest,
    }
    expected = expected_doc["seeds"].get(str(seed))
    if expected is not None:
        changed = [
            f"{k}: expected {expected[k]!r}, got {got[k]!r}" for k in got if got[k] != expected[k]
        ]
        status = f"matches expected.json for seed {seed}"
    else:
        changed = []
        for key in ("ticks", "wsr_pct", "esr_pct"):
            recorded = [doc[key] for doc in expected_doc["seeds"].values()]
            lo, hi = min(recorded), max(recorded)
            margin = max(hi - lo, 0.01 * hi)
            if not lo - margin <= got[key] <= hi + margin:
                changed.append(f"{key}: {got[key]!r} outside [{lo - margin:g}, {hi + margin:g}]")
        status = f"no reference for seed {seed}; ticks, WSR and ESR within the recorded range"
    if changed:
        run.problems.append("output change against expected.json: " + "; ".join(changed))
        return "output change"
    return status


def check_remote_against_mock(run: Run, space, seed: int, episodes: int, tmp: Path) -> None:
    """remote-eval must reproduce ref-eval's outcomes and traces exactly."""
    reference = Run(sampler=run.sampler)
    mock_batch = run_batch(space, seed, episodes, tmp, reference)
    run.problems.extend(f"MockPerception reference run: {p}" for p in reference.problems)
    if mock_batch is None or not run.batches:
        return
    remote_batch = run.batches[0]
    for ours, theirs in zip(remote_batch.outcomes, mock_batch.outcomes):
        if ours != theirs:
            run.problems.append(
                f"remote-eval diverges from ref-eval at {ours[0]}: {ours} != {theirs}"
            )
            break
    if remote_batch.digest != mock_batch.digest:
        run.problems.append("remote-eval events digest differs from ref-eval's")


# --- metrics ----------------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(math.ceil(q * len(sorted_values)) - 1, 0)
    return sorted_values[index]


def nominal_ticks_per_s(batches: list[Batch], sampler: SpeedSampler) -> float:
    """Ticks over the batches' time (per-episode set-up included) at nominal speed."""
    return sum(b.ticks for b in batches) / sum(sampler.nominal(b.start, b.end) for b in batches)


def nominal_steps(batches: list[Batch], sampler: SpeedSampler) -> list[float]:
    """Each step's seconds at the machine speed around it, ascending."""
    return sorted(
        seconds * sampler.speed(start, start)
        for batch in batches
        for start, seconds in batch.step_s
    )


def end_to_end_metrics(run: Run, calls: int, phases) -> dict:
    ticks = sum(b.ticks for b in run.batches)
    ordered = nominal_steps(run.batches, run.sampler)
    first = run.batches[0]
    return {
        "ticks_per_s": nominal_ticks_per_s(run.batches, run.sampler),
        "tick_p50_ms": percentile(ordered, 0.50) * 1e3,
        "perception_calls_per_tick": calls / ticks,
        "wsr_pct": first.wsr,
        "esr_pct": first.esr,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(phases["total"]),
    }


def per_layer_metrics(tracer, counter, ticks, episodes, phases, harness_figures) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name: str, own: bool = False) -> float:
        entry = totals.get(name, (0, 0.0, 0.0))
        return entry[2] if own else entry[1]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def mean_us(name: str, own: bool = False) -> float:
        return ratio(seconds(name, own), calls(name)) * 1e6

    derive = ("ers.tool_labels", "ers.distinct_images")
    derive_calls = sum(calls(n) for n in derive)
    explore_calls = calls("exploration.visible_explore") + calls("exploration.invisible_explore")
    backend_s = sum(v[1] for n, v in totals.items() if n.startswith("perception."))
    client = [n for n in totals if n.startswith("remote.") and n != "remote.transport"]
    client_calls = sum(calls(n) for n in client)
    metrics = {
        "harness.gen_corpus_s": statistics.median(phases["gen"]),
        "harness.episode_overhead_ms": ratio(
            seconds("harness.run_eval") - seconds("harness.run_closed_loop"), episodes
        )
        * 1e3,
        "harness.check_success_us": mean_us("harness.check_success"),
        "harness.reference_loop_us": harness_figures["reference_loop_us"],
        "harness.unscaled_ticks_per_s": harness_figures["unscaled_ticks_per_s"],
        "space.build_s": statistics.median(phases["build"]),
        "space.save_s": statistics.median(phases["save"]),
        "space.load_s": statistics.median(phases["load"]),
        "space.clone_ms": mean_us("space.clone") / 1e3,
        "space.dfs_retrieve_us": mean_us("space.dfs_retrieve"),
        "space.dfs_visited_per_query": ratio(counts["space.dfs_visited"], calls("space.dfs_retrieve")),
        "space.candidate_set_us": mean_us("space.candidate_set"),
        "space.candidates_per_pool": ratio(counts["space.candidates"], calls("space.candidate_set")),
        "space.insert_us": mean_us("space.insert"),
        "space.inserts_per_episode": ratio(calls("space.insert"), episodes),
        "ers.retrieve_candidates_us": mean_us("ers.retrieve_candidates"),
        "ers.match_tool_self_us": mean_us("ers.match_tool", own=True),
        "ers.pool_derive_us": ratio(sum(seconds(n) for n in derive), derive_calls) * 1e6,
        "ers.pool_derive_calls_per_tick": ratio(derive_calls, ticks),
        "ers.ground_regions_us": mean_us("ers.ground_regions"),
        "ers.grounded_share": ratio(counts["ers.grounded"], calls("ers.match_tool")),
        "planner.step_self_us": mean_us("planner.step", own=True),
        "planner.validity_check_us": mean_us("planner.validity_check"),
        "planner.run_msi_us": mean_us("planner.run_msi"),
        "planner.msi_share": ratio(calls("planner.run_msi"), ticks),
        "planner.tick_p99_ms": harness_figures["tick_p99_ms"],
        "exploration.visible_us": mean_us("exploration.visible_explore"),
        "exploration.invisible_us": mean_us("exploration.invisible_explore"),
        "exploration.calls_per_tick": ratio(explore_calls, ticks),
        **{
            f"perception.{cap}_per_tick": ratio(counter.calls[cap], ticks)
            for cap in CAPABILITIES
        },
        "perception.similarity_repeat_share": ratio(
            counter.similarity_repeats, counter.calls["similarity"]
        ),
        "perception.backend_us_per_tick": ratio(backend_s, ticks) * 1e6,
        "perception.errors_per_tick": ratio(counter.errors, ticks),
        "remote.client_us_per_call": ratio(sum(seconds(n, own=True) for n in client), client_calls)
        * 1e6,
        "remote.transport_us_per_call": mean_us("remote.transport", own=True),
        "remote.round_trips_per_tick": ratio(calls("remote.transport"), ticks),
        "remote.breaker_opens": counts["remote.breaker_opens"],
        "simulator.observe_us": mean_us("simulator.observe"),
        "simulator.apply_us": mean_us("simulator.apply"),
        "trace.overhead_pct": harness_figures["overhead_pct"],
    }
    return metrics


def traced_batch(workload, space, seed, episodes, tmp, run):
    """One batch with spans at every layer boundary; returns (tracer, counter, batch)."""
    tracer = Tracer(run.sampler.clock)
    counter = CallCounter(tracer)
    patches = Patches()
    install_layer_spans(patches, tracer, workload.remote)
    patches.install(harness, "MockPerception", backend_factory(workload, counter, tracer))
    try:
        index = tracer.open("harness.run_eval")
        batch = run_batch(space, seed, episodes, tmp, run)
        tracer.close(index)
    finally:
        left = patches.restore()
    if left:
        run.problems.append(f"names not restored after the traced run: {left}")
    return tracer, counter, batch


# --- entry point ------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="episode seed")
    parser.add_argument("--corpus-seed", type=int, default=CORPUS_SEED, help="corpus and build seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episodes", type=int, default=EPISODES, help="episodes per batch")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    TMP_DIR.mkdir(exist_ok=True)
    run = Run()
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp_name, run.sampler:
        tmp = Path(tmp_name)
        # The traced run sets up once to stay within its time limit.
        space, setup_marks = set_up(
            workload,
            args.corpus_seed,
            1 if args.trace else SETUP_REPEATS,
            0.0 if args.trace else SETUP_SECONDS,
            tmp,
            run.sampler,
        )
        calls = untraced_batches(
            workload, space, args.seed, args.episodes, args.seconds, tmp, run
        )
        untraced = list(run.batches)
        if args.trace and untraced:
            tracer, counter, batch = traced_batch(
                workload, space, args.seed, args.episodes, tmp, run
            )
        reference_status = check_reference(run, args.corpus_seed, args.seed, args.episodes)
        if workload.remote:
            check_remote_against_mock(run, space, args.seed, args.episodes, tmp)
    try:
        TMP_DIR.rmdir()
    except OSError:
        pass  # another run is still using it

    sampler = run.sampler
    phases = setup_phases(setup_marks, sampler)
    if not run.batches or (args.trace and batch is None):
        metrics = {}
    elif args.trace:
        # Both throughputs at nominal speed, so machine drift between the two
        # phases does not show as tracing cost.
        untraced_tps = nominal_ticks_per_s(untraced, sampler)
        traced_tps = nominal_ticks_per_s([batch], sampler)
        harness_figures = {
            "reference_loop_us": sampler.reference_us(),
            "unscaled_ticks_per_s": statistics.median(b.unscaled_ticks_per_s for b in untraced),
            "tick_p99_ms": percentile(nominal_steps(untraced, sampler), 0.99) * 1e3,
            "overhead_pct": (untraced_tps / traced_tps - 1.0) * 100.0,
        }
        metrics = per_layer_metrics(
            tracer, counter, batch.ticks, args.episodes, phases, harness_figures
        )
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        metrics = end_to_end_metrics(run, calls, phases)
        print(
            f"tick latency samples: {sum(b.ticks for b in run.batches)} steps"
            f" over {len(run.batches)} batches; speed samples: {len(sampler.seconds)}"
        )

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"workload {workload.name}, seed {args.seed}, corpus seed {args.corpus_seed}")
    print(f"reference: {reference_status}")
    for problem in run.problems:
        print(f"PROBLEM: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = not run.problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
