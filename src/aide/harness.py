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
from typing import Callable, Iterator, Sequence

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
from .mock import DEFAULT_SIGMA, MockPerception, token_cosine
from .planner import MAX_STEPS, EpisodeTrace, run_closed_loop
from .simulator import (
    ABSENT,
    World,
    check_success,
    fresh_world,
    load_scenario_dir,
    scripted_scenarios,
)
from .space import (
    Drafts,
    GroundingResult,
    Position,
    RelationshipSpace,
    build_space,
    write_corpus,
)

_CATALOG_IMAGE_SIZE = 200
# Standard deviation of the Gaussian noise ``gen_corpus`` adds to each score.
_CORPUS_NOISE = 0.5
# Drafts whose noise ``gen_corpus`` draws at a time (about 1.2 MB at X = 19).
_CORPUS_BLOCK = 4096
# Share of ablation queries drawn far from every stored record.
_OUT_OF_DISTRIBUTION_SHARE = 0.1
# Uniform draws a far-out ablation query may take to clear the reference
# radius. In the default 432-record corpus about 1.5 in 10,000 draws clear
# c = 20 and none clears 21, so the cap keeps every result at c <= 20 and
# turns an endless redraw into a ValueError within seconds.
_MAX_FAR_QUERY_DRAWS = 100_000
# Candidate-to-row distances measured at a time when drawing far-out queries.
_FAR_QUERY_BLOCK_FLOATS = 1 << 18
_AFFORDANCE_RADII = (40.0, 20.0, 10.0, 0.0)
_TEXTSIM_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 1.0)
# The error-analysis tick at which the required tool is removed.
_REMOVAL_TICK = 6

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
) -> Drafts:
    """Synthesize ``A`` instruction drafts over ``a`` affordance classes, as
    columns, and write them to ``path`` as an ``aide-corpus/2`` file
    (``write_corpus``) if given.

    Classes are assigned round-robin (counts balanced within one); vectors are
    the class centroid plus seeded Gaussian noise, drawn a block of drafts at
    a time into the preallocated columns; instruction text is built from
    class-specific word pools so text-based retrieval has real signal. Each
    draft carries three catalog results of its class, rows of a table with
    one result per (class, label). ``b`` is unused: the subcluster count
    shapes the build, not the drafts.
    """
    del b
    if A < 1:
        raise ValueError(f"corpus size must be positive, got {A}")
    names = class_names(a)
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = np.array([class_centroid(cls, X, known=names).scores for cls in names])
    draft = np.arange(A)
    class_of = draft % a
    # Each draft's instruction and tool noise, in the order per-draft draws
    # would take them, drawn a block of drafts at a time: the generator gives
    # the same stream however the draw is split.
    instruction = np.empty((A, X))
    tool = np.empty((A, X))
    for lo in range(0, A, _CORPUS_BLOCK):
        hi = min(lo + _CORPUS_BLOCK, A)
        block = rng.normal(0.0, _CORPUS_NOISE, size=(hi - lo, 2, X))
        block += centroids[class_of[lo:hi], None, :]
        np.clip(block, 0.0, 10.0, out=block)
        instruction[lo:hi] = block[:, 0]
        tool[lo:hi] = block[:, 1]
    words = [CLASS_WORDS.get(name, (name, "task", "chore", "thing", "stuff")) for name in names]
    labels = [CLASS_TOOL_LABELS.get(name, (f"{name}-tool",)) for name in names]
    # A draft's text is fixed by its class, template and two word indices;
    # each distinct combination is formatted once. The combination's integer
    # key ((c*T + t)*R + w0)*R + w1, with R the largest word pool, sorts as
    # the combinations do.
    pool_sizes = np.array([len(pool) for pool in words])
    size = pool_sizes[class_of]  # of the draft's word pool
    radix = int(pool_sizes.max())
    key = ((class_of * len(_TEXT_TEMPLATES) + draft % len(_TEXT_TEMPLATES)) * radix + draft % size) * radix
    key += (draft // size + 1) % size
    distinct, text_of = np.unique(key, return_inverse=True)
    rest, w1 = np.divmod(distinct, radix)
    rest, w0 = np.divmod(rest, radix)
    cls, template = np.divmod(rest, len(_TEXT_TEMPLATES))
    texts = [
        _TEXT_TEMPLATES[t].format(w0=words[c][i], w1=words[c][j])
        for c, t, i, j in zip(cls.tolist(), template.tolist(), w0.tolist(), w1.tolist())
    ]
    # Cycle labels by the per-class round counter (draft // a) so every label
    # appears even when the label count divides the class count.
    count = np.array([len(row) for row in labels])
    result_rows = (draft // a).astype(np.int32)[:, None] + np.arange(3, dtype=np.int32)
    result_rows %= count[class_of, None]
    result_rows += (np.cumsum(count) - count)[class_of, None]  # each class's first row
    drafts = Drafts(
        ids=list(map("ins-%05d".__mod__, range(A))),
        texts=np.array(texts, dtype=object)[text_of].tolist(),
        instruction=instruction,
        tool=tool,
        results=[_catalog_result(name, label) for name, row in zip(names, labels) for label in row],
        result_rows=result_rows,
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
        return next(iter(world.hint_table.values()), None)

    return answer


def console_answerer(input_fn: Callable[[str], str]) -> Callable[[str], str | None]:
    """Interactive human: each recovery prompt blocks on ``input_fn``.

    The answer re-seeds the reasoning pipeline: a bare label overrides the tool
    proposal, ``x0,y0,x1,y1`` coordinates override the tool region, and an
    empty line aborts the episode.
    """

    def answer(prompt: str) -> str | None:
        return input_fn(f"{prompt}\n> ")

    return answer


def run_episode(
    episode_id: str,
    world_template: World,
    space: RelationshipSpace,
    params: ConfigParams,
    seed: int = 0,
    noise: float = DEFAULT_SIGMA,
    max_steps: int = MAX_STEPS,
    answer_human: Callable[[str], str | None] | None = None,
    interventions: dict | None = None,
) -> tuple[EpisodeRow, EpisodeTrace]:
    """One scored episode on copies of the world and space; ``answer_human``
    resolves recovery prompts, and None leaves each failure in place."""
    world = fresh_world(world_template)
    episode_space = space.clone()
    perception = MockPerception(world, params, seed=seed, sigma=noise)
    trace = run_closed_loop(
        world,
        episode_space,
        params,
        perception,
        max_steps=max_steps,
        answer_human=answer_human,
        interventions=interventions,
    )
    flags = check_success(trace, world_template)  # scored against the world at the start
    valid = trace.valid_rows()
    row = EpisodeRow(
        episode_id=episode_id,
        world_id=world.world_id,
        category=world.category,
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
    params: ConfigParams = ConfigParams(),
    seed: int = 0,
    noise: float = DEFAULT_SIGMA,
    max_steps: int = MAX_STEPS,
    episodes: int | None = None,
    trace_sink: Callable[[str, EpisodeTrace], None] | None = None,
) -> EvalReport:
    """Run the closed loop over (instruction, world) pairs and score them.

    ``episodes`` repeats the scenario cycle with distinct seeds until that
    many episodes have run (defaults to one per world), cycling through
    ``worlds`` in id order. Each episode gets its own world and space copies,
    so episodes do not depend on one another. An empty ``worlds`` or an
    ``episodes`` below 1 raises ``ValueError``.
    """
    worlds = worlds if worlds is not None else scripted_scenarios()
    if not worlds:
        raise ValueError("no worlds to evaluate")
    ids = sorted(worlds)
    rows = []
    total = episodes if episodes is not None else len(ids)
    if total < 1:
        raise ValueError(f"episode count must be positive, got {total}")
    for index in range(total):
        world_id = ids[index % len(ids)]
        episode_id = f"ep-{index:04d}-{world_id}"
        world = worlds[world_id]
        row, trace = run_episode(
            episode_id, world, space, params, seed + index, noise, max_steps, hint_answerer(world)
        )
        rows.append(row)
        if trace_sink is not None:
            trace_sink(episode_id, trace)
    rows.sort(key=lambda r: r.episode_id)
    meta = {
        "seed": seed,
        "noise": noise,
        "episodes": len(rows),
        "scenarios": len(ids),
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


def _far_out_draw(rng: np.random.Generator, matrix: np.ndarray, radius: float) -> np.ndarray:
    """The first uniform draw farther than ``radius`` from every row of
    ``matrix``, redrawing up to ``_MAX_FAR_QUERY_DRAWS`` times, with ``rng``
    left just past it: the draw and state that drawing one vector at a time
    gives. Candidates are drawn a block at a time; the generator, one 64-bit
    step per score, is then rewound to the block's start and advanced past
    the accepted row.

    A block's squared distances come from one matrix product, off by far
    less than ``margin``. A candidate with a row plainly inside the radius
    is out; the rest are measured with ``euclidean`` in draw order, as one
    draw at a time measures them."""
    n, dims = matrix.shape
    row_norms = (matrix**2).sum(axis=1)
    margin = 1e-9 * (row_norms.max() + 100.0 * dims)  # draws lie in [0, 10]
    block = max(1, _FAR_QUERY_BLOCK_FLOATS // n)
    for start in range(0, _MAX_FAR_QUERY_DRAWS, block):
        state = rng.bit_generator.state
        candidates = rng.uniform(0.0, 10.0, size=(min(block, _MAX_FAR_QUERY_DRAWS - start), dims))
        squared = (candidates**2).sum(axis=1)[:, None] + row_norms - 2.0 * candidates @ matrix.T
        for i in np.flatnonzero(squared.min(axis=1) >= radius**2 - margin).tolist():
            if euclidean(matrix, candidates[i]).min() > radius:
                rng.bit_generator.state = state
                rng.bit_generator.advance((i + 1) * dims)
                return candidates[i]
    raise ValueError(f"no far-out query clears radius c={radius:g} in {_MAX_FAR_QUERY_DRAWS:,} draws")


def _ablation_queries(
    space: RelationshipSpace,
    params: ConfigParams,
    seed: int,
    count: int,
    reference_radius: float,
) -> list[_AblationQuery]:
    rng = np.random.Generator(np.random.PCG64(seed))
    matrix = np.vstack(
        [sub.instruction_at(slice(None)) for cluster in space.clusters for sub in cluster.subclusters]
    )
    names = class_names(params.a)
    queries: list[_AblationQuery] = []
    ood_target = int(round(count * _OUT_OF_DISTRIBUTION_SHARE))
    for i in range(count):
        if i < count - ood_target:
            cls = names[i % len(names)]
            centroid = np.array(class_centroid(cls, params.X, known=names).scores)
            vec = np.clip(centroid + rng.normal(0.0, 0.5, size=params.X), 0.0, 10.0)
            words = CLASS_WORDS.get(cls, (cls,))
            text = f"please help me {words[i % len(words)]} the {words[(i + 1) % len(words)]}"
        else:
            vec = _far_out_draw(rng, matrix, reference_radius)
            text = f"unrelated request number {i} about nothing in particular"
        vector = AffordanceVector(tuple(float(v) for v in vec))
        nearest = float(euclidean(matrix, vector.scores).min())
        queries.append(
            _AblationQuery(
                vector=vector, text=text, acceptable_exists=nearest <= reference_radius
            )
        )
    return queries


def _stored_rows(space: RelationshipSpace) -> Iterator[tuple[Position, str, np.ndarray]]:
    """Position, text and instruction row of every stored record, one row at a
    time in stored order."""
    for ci, cluster in enumerate(space.clusters):
        for sj, sub in enumerate(cluster.subclusters):
            for k, text in enumerate(sub.texts):
                yield (ci, sj, k), text, sub.instruction_at(k)


def _exhaustive_scan(space: RelationshipSpace, query: AffordanceVector) -> Position | None:
    """Plain full scan, one row at a time, with the distance the DFS uses;
    ties go to the first row."""
    point = np.asarray(query.scores)
    best = min(_stored_rows(space), key=lambda row: float(euclidean(point, row[2])), default=None)
    return None if best is None else best[0]


def _textsim_dfs(space: RelationshipSpace, text: str, threshold: float) -> Position | None:
    """Stored-order DFS terminating on the first text similarity above threshold."""
    for at, stored, _ in _stored_rows(space):
        if token_cosine(text, stored) > threshold:
            return at
    return None


def _textsim_exhaustive(space: RelationshipSpace, text: str) -> Position | None:
    best = max(_stored_rows(space), key=lambda row: token_cosine(text, row[1]), default=None)
    return None if best is None else best[0]


def ablate_retrieval(
    corpus: Drafts,
    params: ConfigParams = ConfigParams(),
    methods: Sequence[str] = ("affordance", "textsim"),
    seed: int = 0,
    query_count: int = 100,
) -> list[AblationRow]:
    """Compare retrieval variants on runtime and accuracy over seeded queries.

    A retrieval is counted accurate when it lands within the reference radius
    ``c`` of the query whenever some stored record does, and reports not-found
    whenever none does (the synthetic stand-in for a validated target; noted
    in report metadata). Every method also gets an exhaustive-search row.
    """
    reference_radius = params.c
    space = build_space(corpus, params, seed)
    queries = _ablation_queries(space, params, seed + 1, query_count, reference_radius)
    rows: list[AblationRow] = []

    def accuracy_and_time(run) -> tuple[float, float]:
        hits = 0
        start = time.perf_counter()
        outcomes = [run(q) for q in queries]
        elapsed = time.perf_counter() - start
        for q, at in zip(queries, outcomes):
            if at is None:
                hits += not q.acceptable_exists
            else:
                hits += q.acceptable_exists and (
                    distance(q.vector, space.record(*at).instruction_affordance) <= reference_radius
                )
        return _pct(hits, len(queries)), elapsed / len(queries)

    if "affordance" in methods:
        for c in _AFFORDANCE_RADII:
            acc, mean_t = accuracy_and_time(
                lambda q, radius=c: space.dfs_retrieve(q.vector, radius)[0]
            )
            rows.append(AblationRow("affordance", c, mean_t, acc))
        acc, mean_t = accuracy_and_time(lambda q: _exhaustive_scan(space, q.vector))
        rows.append(AblationRow("affordance", None, mean_t, acc))

    if "textsim" in methods:
        for sim in _TEXTSIM_THRESHOLDS:
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
    params: ConfigParams = ConfigParams(),
    seed: int = 0,
    noise: float = DEFAULT_SIGMA,
    max_steps: int = MAX_STEPS,
    with_hints: bool = True,
) -> EvalReport:
    """Injected-failure suites measuring detection and recovery.

    Detection: remove the required tool mid-episode and count the cases where
    the validity check fails on the very next tick. Recovery: blank the
    reasoner's instruction mapping so the slow stream fails, and count the
    cases that still complete after the human-recovery prompt is answered from
    the scenario hint table.
    """
    worlds = worlds if worlds is not None else scripted_scenarios()
    clear_ids = sorted(w for w, world in worlds.items() if world.category == "clear")

    detected = 0
    removal_rows: list[EpisodeRow] = []
    for index, world_id in enumerate(clear_ids):
        template = worlds[world_id]
        gt_id = template.gt[template.instruction]

        def remove_tool(w: World, oid=gt_id) -> None:
            w.objects[oid].visibility = ABSENT

        row, trace = run_episode(
            f"edr-{index:02d}-{world_id}",
            template,
            space,
            params,
            seed + index,
            noise,
            max_steps,
            interventions={_REMOVAL_TICK: remove_tool},
        )
        post = [r for r in trace.rows if r.step == _REMOVAL_TICK]
        if post and post[0].validity < params.validity_threshold:
            detected += 1
        removal_rows.append(row)

    recovered = 0
    recovery_rows: list[EpisodeRow] = []
    for index, world_id in enumerate(clear_ids):
        template = fresh_world(worlds[world_id])
        template.tool_table.pop(template.instruction, None)
        row, _ = run_episode(
            f"err-{index:02d}-{world_id}",
            template,
            space,
            params,
            seed + 100 + index,
            noise,
            max_steps,
            answer_human=hint_answerer(template) if with_hints else None,
        )
        if row.status == "completed":
            recovered += 1
        recovery_rows.append(row)

    report = _aggregate(
        removal_rows + recovery_rows,
        {
            "seed": seed,
            "noise": noise,
            "removal_tick": _REMOVAL_TICK,
            "cases": len(clear_ids),
            "hints": with_hints,
        },
    )
    report.edr = _pct(detected, len(clear_ids))
    report.err = _pct(recovered, len(clear_ids))
    return report


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


def events_path(report_path: str | Path) -> Path:
    """Where the events of the report at ``report_path`` go: ``<report>.events.jsonl``."""
    report_path = Path(report_path)
    return report_path.with_suffix(report_path.suffix + ".events.jsonl")


def resolve_worlds(scenarios_dir: str | Path | None) -> dict[str, World]:
    if scenarios_dir is None:
        return scripted_scenarios()
    return load_scenario_dir(scenarios_dir)
