"""Batch entry points: corpus generation, evaluation, ablations, error analysis.

Success rates are scored automatically against simulator ground truth with an
IoU >= 0.5 criterion (noted in every report header, since it substitutes for
human evaluation of the original protocol). Reports are emitted as a
tab-delimited table document plus per-episode event logs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .affordance import (
    CLASS_TOOL_LABELS,
    CLASS_WORDS,
    CONTAINER_FOR_CLASS,
    AffordanceVector,
    class_centroid,
    class_names,
    distance,
    euclidean,
)
from .config import ConfigParams
from .geometry import Region, vertical_halves
from .mock import MockPerception, token_cosine
from .planner import EpisodeTrace, run_closed_loop, write_trace
from .simulator import (
    ABSENT,
    World,
    check_success,
    fresh_world,
    load_scenario_dir,
    scripted_scenarios,
)
from .space import (
    GroundingResult,
    InstructionRecord,
    RelationshipSpace,
    build_space,
    write_corpus,
)

_CATALOG_IMAGE_SIZE = 200

_TEXT_TEMPLATES = (
    "i really need to {w0} right now",
    "could someone help me {w0} this {w1}",
    "all this {w1} makes me want to {w0}",
    "time to {w0} before the {w1} gets worse",
)


# --- corpus generation -------------------------------------------------------


def _catalog_result(cls: str, label: str) -> GroundingResult:
    tool_region = Region(0, 0, _CATALOG_IMAGE_SIZE, _CATALOG_IMAGE_SIZE)
    operational, functional = vertical_halves(tool_region)
    container = CONTAINER_FOR_CLASS.get(cls, "cabinet")
    return GroundingResult(
        tool_label=label,
        tool_image=f"tool:{cls}:{label}",
        tool_region=tool_region,
        operational_region=operational,
        functional_region=functional,
        unseen_region_label=container,
        unseen_region_image=f"container:{container}",
    )


def gen_corpus(
    A: int,
    X: int,
    a: int,
    b: int,
    seed: int,
    path: str | Path | None = None,
    noise: float = 0.5,
) -> list[InstructionRecord]:
    """Synthesize ``A`` instruction drafts over ``a`` affordance classes.

    Classes are assigned round-robin (counts balanced within one); vectors are
    the class centroid plus seeded Gaussian noise; instruction text is built
    from class-specific word pools so text-based retrieval has real signal.
    """
    del b  # subcluster count shapes the build, not the drafts
    names = class_names(a)
    rng = np.random.Generator(np.random.PCG64(seed))
    drafts: list[InstructionRecord] = []
    for i in range(A):
        cls = names[i % a]
        centroid = np.array(class_centroid(cls, X, known=names).scores)
        instruction_vec = np.clip(centroid + rng.normal(0.0, noise, size=X), 0.0, 10.0)
        tool_vec = np.clip(centroid + rng.normal(0.0, noise, size=X), 0.0, 10.0)
        words = CLASS_WORDS.get(cls, (cls, "task", "chore", "thing", "stuff"))
        w0 = words[i % len(words)]
        w1 = words[(i // len(words) + 1) % len(words)]
        text = _TEXT_TEMPLATES[i % len(_TEXT_TEMPLATES)].format(w0=w0, w1=w1)
        labels = CLASS_TOOL_LABELS.get(cls, (f"{cls}-tool",))
        # Cycle labels by the per-class round counter (i // a) so every label
        # appears even when the label count divides the class count.
        results = tuple(
            _catalog_result(cls, labels[(i // a + j) % len(labels)]) for j in range(3)
        )
        drafts.append(
            InstructionRecord(
                id=f"ins-{i:05d}",
                text=text,
                instruction_affordance=AffordanceVector(tuple(float(v) for v in instruction_vec)),
                tool_affordance=AffordanceVector(tuple(float(v) for v in tool_vec)),
                results=results,
            )
        )
    if path is not None:
        write_corpus(drafts, path)
    return drafts


# --- evaluation -----------------------------------------------------------


@dataclass
class EpisodeRow:
    episode_id: str
    world_id: str
    category: str
    instruction: str
    status: str
    fail_reason: str | None
    steps: int
    tool: bool
    operational: bool
    functional: bool
    whole: bool
    asr_applicable: bool
    exploration: bool
    valid_frames: int
    correct_frames: int
    wall_seconds: float


@dataclass
class EvalReport:
    tsr: float = 0.0
    osr: float = 0.0
    fsr: float = 0.0
    wsr: float = 0.0
    asr: float | None = None
    fps: float = 0.0
    esr: float | None = None
    edr: float | None = None
    err: float | None = None
    rows: list[EpisodeRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _pct(hits: int, total: int) -> float:
    return 100.0 * hits / total if total else 0.0


def _aggregate(rows: list[EpisodeRow], meta: dict) -> EvalReport:
    total = len(rows)
    asr_rows = [r for r in rows if r.asr_applicable]
    valid_frames = sum(r.valid_frames for r in rows)
    correct_frames = sum(r.correct_frames for r in rows)
    wall = sum(r.wall_seconds for r in rows)
    ticks = sum(r.steps for r in rows)
    return EvalReport(
        tsr=_pct(sum(r.tool for r in rows), total),
        osr=_pct(sum(r.operational for r in rows), total),
        fsr=_pct(sum(r.functional for r in rows), total),
        wsr=_pct(sum(r.whole for r in rows), total),
        asr=_pct(sum(r.exploration for r in asr_rows), len(asr_rows)) if asr_rows else None,
        fps=(ticks / wall) if wall > 0 else 0.0,
        esr=_pct(correct_frames, valid_frames) if valid_frames else None,
        rows=rows,
        meta=meta,
    )


def hint_answerer(world: World) -> Callable[[str], str | None]:
    """Batch-mode human stand-in: answer prompts from the world's hint table."""

    def answer(prompt: str) -> str | None:
        del prompt
        for _, label in world.hint_table.items():
            return label
        return None

    return answer


def _run_one_episode(
    episode_id: str,
    world_template: World,
    space: RelationshipSpace,
    params: ConfigParams,
    seed: int,
    noise: float | None,
    max_steps: int,
    interventions: dict | None = None,
    use_hints: bool = True,
) -> tuple[EpisodeRow, EpisodeTrace]:
    world = fresh_world(world_template)
    episode_space = space.clone()
    perception = MockPerception(world, params, seed=seed, sigma=noise)
    trace = run_closed_loop(
        world.instruction,
        world,
        episode_space,
        params,
        perception,
        max_steps=max_steps,
        answer_human=hint_answerer(world) if use_hints else None,
        interventions=interventions,
    )
    flags = check_success(trace, world, params)
    valid = trace.valid_rows()
    row = EpisodeRow(
        episode_id=episode_id,
        world_id=world.world_id,
        category=world.category,
        instruction=world.instruction,
        status=trace.status,
        fail_reason=trace.fail_reason,
        steps=trace.steps,
        tool=flags.tool,
        operational=flags.operational,
        functional=flags.functional,
        whole=flags.whole,
        asr_applicable=flags.asr_applicable,
        exploration=flags.exploration,
        valid_frames=len(valid),
        correct_frames=sum(r.correct for r in valid),
        wall_seconds=trace.wall_seconds,
    )
    return row, trace


def run_eval(
    space: RelationshipSpace,
    worlds: dict[str, World] | None = None,
    params: ConfigParams | None = None,
    seed: int = 0,
    noise: float | None = None,
    max_steps: int = 400,
    episodes: int | None = None,
    world_ids: Sequence[str] | None = None,
    trace_sink: Callable[[str, EpisodeTrace], None] | None = None,
) -> EvalReport:
    """Run the closed loop over (instruction, world) pairs and score them.

    ``episodes`` repeats the scenario cycle with distinct seeds until that
    many episodes have run (defaults to one per world). Each episode gets its
    own world and space copies, so episodes do not depend on one another.
    """
    params = params or ConfigParams()
    worlds = worlds if worlds is not None else scripted_scenarios()
    ids = sorted(world_ids if world_ids is not None else worlds)
    missing = [w for w in ids if w not in worlds]
    ids = [w for w in ids if w in worlds]
    rows = []
    total = episodes if episodes is not None else len(ids)
    for index in range(total):
        world_id = ids[index % len(ids)]
        episode_id = f"ep-{index:04d}-{world_id}"
        row, trace = _run_one_episode(
            episode_id, worlds[world_id], space, params, seed + index, noise, max_steps
        )
        rows.append(row)
        if trace_sink is not None:
            trace_sink(episode_id, trace)
    rows.sort(key=lambda r: r.episode_id)
    meta = {
        "seed": seed,
        "noise": params.sigma if noise is None else noise,
        "episodes": len(rows),
        "scenarios": len(ids),
        "skipped": missing,
        "scoring": "automatic IoU >= 0.5 vs simulator ground truth",
    }
    return _aggregate(rows, meta)


# --- retrieval ablation ---------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    method: str
    threshold: float | None  # None marks the exhaustive-search row
    mean_time_s: float
    accuracy_pct: float

    @property
    def threshold_label(self) -> str:
        return "ES" if self.threshold is None else f"{self.threshold:g}"


@dataclass(frozen=True)
class _AblationQuery:
    vector: AffordanceVector
    text: str
    acceptable_exists: bool


def _ablation_queries(
    space: RelationshipSpace,
    params: ConfigParams,
    seed: int,
    count: int,
    reference_radius: float,
    out_of_distribution_share: float = 0.1,
) -> list[_AblationQuery]:
    rng = np.random.Generator(np.random.PCG64(seed))
    matrix = np.vstack([sub.instruction_rows for cluster in space.clusters for sub in cluster.subclusters])
    names = class_names(params.a)
    queries: list[_AblationQuery] = []
    ood_target = int(round(count * out_of_distribution_share))
    for i in range(count):
        if i < count - ood_target:
            cls = names[i % len(names)]
            centroid = np.array(class_centroid(cls, params.X, known=names).scores)
            vec = np.clip(centroid + rng.normal(0.0, 0.5, size=params.X), 0.0, 10.0)
            words = CLASS_WORDS.get(cls, (cls,))
            text = f"please help me {words[i % len(words)]} the {words[(i + 1) % len(words)]}"
        else:
            # Far-out query: resample until nothing lies within the radius.
            while True:
                vec = rng.uniform(0.0, 10.0, size=params.X)
                if euclidean(matrix, vec).min() > reference_radius:
                    break
            text = f"unrelated request number {i} about nothing in particular"
        vector = AffordanceVector(tuple(float(v) for v in vec))
        nearest = float(euclidean(matrix, vector.scores).min())
        queries.append(
            _AblationQuery(
                vector=vector, text=text, acceptable_exists=nearest <= reference_radius
            )
        )
    return queries


def _exhaustive_scan(space: RelationshipSpace, query: AffordanceVector) -> InstructionRecord | None:
    """Plain full scan, one record at a time, with the distance the DFS uses."""
    best, best_dist = None, float("inf")
    for record in space.iter_records():
        dist = distance(query, record.instruction_affordance)
        if dist < best_dist:
            best, best_dist = record, dist
    return best


def _textsim_dfs(space: RelationshipSpace, text: str, threshold: float):
    """Stored-order DFS terminating on the first text similarity above threshold."""
    for cluster in space.clusters:
        for sub in cluster.subclusters:
            for record in sub.records:
                if token_cosine(text, record.text) > threshold:
                    return record
    return None


def _textsim_exhaustive(space: RelationshipSpace, text: str):
    best, best_sim = None, -1.0
    for record in space.iter_records():
        sim = token_cosine(text, record.text)
        if sim > best_sim:
            best, best_sim = record, sim
    return best


def ablate_retrieval(
    corpus: Sequence[InstructionRecord],
    params: ConfigParams | None = None,
    methods: Sequence[str] = ("affordance", "textsim"),
    affordance_thresholds: Sequence[float] = (40.0, 20.0, 10.0, 0.0),
    textsim_thresholds: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 1.0),
    seed: int = 0,
    query_count: int = 100,
    reference_radius: float | None = None,
) -> list[AblationRow]:
    """Compare retrieval variants on runtime and accuracy over seeded queries.

    A retrieval is counted accurate when it lands within the reference radius
    of the query whenever some stored record does, and reports not-found
    whenever none does (the synthetic stand-in for a validated target; noted
    in report metadata). Every method also gets an exhaustive-search row.
    """
    params = params or ConfigParams()
    reference_radius = params.c if reference_radius is None else reference_radius
    space = build_space(list(corpus), params, seed)
    queries = _ablation_queries(space, params, seed + 1, query_count, reference_radius)
    rows: list[AblationRow] = []

    def accuracy_and_time(run) -> tuple[float, float]:
        hits = 0
        start = time.perf_counter()
        outcomes = [run(q) for q in queries]
        elapsed = time.perf_counter() - start
        for q, record in zip(queries, outcomes):
            if record is None:
                hits += not q.acceptable_exists
            else:
                hits += q.acceptable_exists and (
                    distance(q.vector, record.instruction_affordance) <= reference_radius
                )
        return _pct(hits, len(queries)), elapsed / len(queries)

    if "affordance" in methods:
        for c in affordance_thresholds:
            acc, mean_t = accuracy_and_time(
                lambda q, radius=c: space.dfs_retrieve(q.vector, radius)[0]
            )
            rows.append(AblationRow("affordance", c, mean_t, acc))
        acc, mean_t = accuracy_and_time(lambda q: _exhaustive_scan(space, q.vector))
        rows.append(AblationRow("affordance", None, mean_t, acc))

    if "textsim" in methods:
        for sim in textsim_thresholds:
            acc, mean_t = accuracy_and_time(
                lambda q, s=sim: _textsim_dfs(space, q.text, s)
            )
            rows.append(AblationRow("textsim", sim, mean_t, acc))
        acc, mean_t = accuracy_and_time(lambda q: _textsim_exhaustive(space, q.text))
        rows.append(AblationRow("textsim", None, mean_t, acc))

    return rows


# --- error analysis ---------------------------------------------------------


def run_error_analysis(
    space: RelationshipSpace,
    worlds: dict[str, World] | None = None,
    params: ConfigParams | None = None,
    seed: int = 0,
    noise: float | None = None,
    removal_tick: int = 6,
    max_steps: int = 400,
    with_hints: bool = True,
) -> EvalReport:
    """Injected-failure suites measuring detection and recovery.

    Detection: remove the required tool mid-episode and count the cases where
    the validity check fails on the very next tick. Recovery: blank the
    reasoner's instruction mapping so the slow stream fails, and count the
    cases that still complete after the human-recovery prompt is answered from
    the scenario hint table.
    """
    params = params or ConfigParams()
    worlds = worlds if worlds is not None else scripted_scenarios()
    clear_ids = sorted(w for w, world in worlds.items() if world.category == "clear")

    detected = 0
    removal_rows: list[EpisodeRow] = []
    for index, world_id in enumerate(clear_ids):
        template = worlds[world_id]
        gt_id = template.gt[template.instruction]

        def remove_tool(w: World, oid=gt_id) -> None:
            w.objects[oid].visibility = ABSENT

        row, trace = _run_one_episode(
            f"edr-{index:02d}-{world_id}",
            template,
            space,
            params,
            seed + index,
            noise,
            max_steps,
            interventions={removal_tick: remove_tool},
            use_hints=False,
        )
        post = [r for r in trace.rows if r.step == removal_tick]
        if post and post[0].validity < params.validity_threshold:
            detected += 1
        removal_rows.append(row)

    recovered = 0
    recovery_rows: list[EpisodeRow] = []
    for index, world_id in enumerate(clear_ids):
        template = fresh_world(worlds[world_id])
        template.tool_table.pop(template.instruction, None)
        row, _ = _run_one_episode(
            f"err-{index:02d}-{world_id}",
            template,
            space,
            params,
            seed + 100 + index,
            noise,
            max_steps,
            use_hints=with_hints,
        )
        if row.status == "completed":
            recovered += 1
        recovery_rows.append(row)

    report = _aggregate(
        removal_rows + recovery_rows,
        {
            "seed": seed,
            "noise": params.sigma if noise is None else noise,
            "removal_tick": removal_tick,
            "cases": len(clear_ids),
            "hints": with_hints,
        },
    )
    report.edr = _pct(detected, len(clear_ids))
    report.err = _pct(recovered, len(clear_ids))
    return report


# --- interactive episode -----------------------------------------------------


def interactive_episode(
    world: World,
    space: RelationshipSpace,
    params: ConfigParams | None = None,
    seed: int = 0,
    noise: float | None = None,
    input_fn: Callable[[str], str] | None = None,
    max_steps: int = 400,
) -> EpisodeTrace:
    """Closed loop where recovery prompts block on console input.

    The answer re-seeds the reasoning pipeline: a bare label overrides the tool
    proposal, ``x0,y0,x1,y1`` coordinates override the tool region, and an
    empty line aborts the episode.
    """
    params = params or ConfigParams()
    world = fresh_world(world)
    perception = MockPerception(world, params, seed=seed, sigma=noise)
    reader = input_fn if input_fn is not None else input

    def answer(prompt: str) -> str | None:
        return reader(f"{prompt}\n> ")

    return run_closed_loop(
        world.instruction,
        world,
        space.clone(),
        params,
        perception,
        max_steps=max_steps,
        answer_human=answer,
    )


# --- report rendering ----------------------------------------------------------


def _fmt(value: float | None, digits: int = 1) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def render_report(report: EvalReport, title: str = "evaluation") -> str:
    """Tab-delimited table document with a commented header block."""
    lines = [
        f"# aide {title} report",
        "# scoring: automatic IoU >= 0.5 against simulator ground truth"
        " (stands in for human majority-vote evaluation)",
    ]
    for key, value in sorted(report.meta.items(), key=lambda kv: kv[0]):
        lines.append(f"# {key}: {value}")
    lines.append("")
    lines.append("[summary]")
    lines.append("metric\tvalue")
    lines.append(f"TSR\t{_fmt(report.tsr)}")
    lines.append(f"OSR\t{_fmt(report.osr)}")
    lines.append(f"FSR\t{_fmt(report.fsr)}")
    lines.append(f"WSR\t{_fmt(report.wsr)}")
    lines.append(f"ASR\t{_fmt(report.asr)}")
    lines.append(f"FPS\t{_fmt(report.fps, 2)}")
    lines.append(f"ESR\t{_fmt(report.esr)}")
    lines.append(f"EDR\t{_fmt(report.edr)}")
    lines.append(f"ERR\t{_fmt(report.err)}")
    lines.append("")
    lines.append("[episodes]")
    lines.append(
        "episode\tworld\tcategory\tstatus\tsteps\ttool\toperational\tfunctional"
        "\twhole\tasr_applicable\texploration\tvalid_frames\tcorrect_frames\twall_s"
    )
    for r in report.rows:
        lines.append(
            f"{r.episode_id}\t{r.world_id}\t{r.category}\t{r.status}\t{r.steps}"
            f"\t{int(r.tool)}\t{int(r.operational)}\t{int(r.functional)}\t{int(r.whole)}"
            f"\t{int(r.asr_applicable)}\t{int(r.exploration)}"
            f"\t{r.valid_frames}\t{r.correct_frames}\t{r.wall_seconds:.4f}"
        )
    return "\n".join(lines) + "\n"


def render_ablation(rows: list[AblationRow], meta: dict | None = None) -> str:
    lines = [
        "# aide retrieval ablation",
        "# accuracy target: nearest stored record within the reference radius"
        " when one exists, not-found otherwise (synthetic-corpus stand-in for a"
        " validated retrieval target)",
    ]
    for key, value in sorted((meta or {}).items(), key=lambda kv: kv[0]):
        lines.append(f"# {key}: {value}")
    lines.append("")
    lines.append("method\tthreshold\tmean_time_s\taccuracy_pct")
    for row in rows:
        lines.append(
            f"{row.method}\t{row.threshold_label}\t{row.mean_time_s:.6f}\t{row.accuracy_pct:.1f}"
        )
    return "\n".join(lines) + "\n"


def write_report(
    report: EvalReport,
    path: str | Path,
    traces: list[tuple[str, EpisodeTrace]] | None = None,
    title: str = "evaluation",
) -> None:
    path = Path(path)
    path.write_text(render_report(report, title), encoding="utf-8")
    if traces:
        events_path = path.with_suffix(path.suffix + ".events.jsonl")
        events_path.unlink(missing_ok=True)
        for episode_id, trace in traces:
            write_trace(trace, events_path, episode_id)


def resolve_worlds(scenarios_dir: str | Path | None) -> dict[str, World]:
    if scenarios_dir is None:
        return scripted_scenarios()
    return load_scenario_dir(scenarios_dir)
