"""The instruction-tool relationship space.

A two-level k-means hierarchy over instruction affordance vectors. Records
carry the instruction text, both affordance vectors (instruction and tool) and
one to three grounding results. Retrieval is a depth-first walk over clusters
and subclusters ordered by centroid proximity that stops at the first record
within radius ``c`` of the query; candidate expansion then filters the hit's
subcluster by tool-vector distance ``d``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .affordance import AffordanceVector, DimensionMismatchError, euclidean, vector
from .cluster import assign, kmeans
from .config import ConfigParams
from .geometry import Region

SPACE_SCHEMA = "aide-space/1"

MAX_RESULTS_PER_RECORD = 3


class SpaceError(RuntimeError):
    pass


class SpaceBuildError(SpaceError):
    """Not enough surviving records to form the requested clusters."""


class SpaceSchemaError(SpaceError):
    """Persisted document has the wrong schema tag or version."""


class SpaceFormatError(SpaceError):
    """Persisted document is malformed or truncated."""


class DuplicateRecordError(SpaceError):
    """A record with the same id is already stored."""


def _rows(vectors: Sequence[AffordanceVector], dims: int) -> np.ndarray:
    return np.array([v.scores for v in vectors], dtype=float).reshape(len(vectors), dims)


def _nearest_first(point: Sequence[float], centroids: Sequence[AffordanceVector]) -> np.ndarray:
    """Indices of ``centroids`` by ascending distance from ``point``, ties to the lower index."""
    return np.argsort(euclidean(point, _rows(centroids, len(point))), kind="stable")


@dataclass(frozen=True)
class GroundingResult:
    """One grounded plan: the tool, its image, and its critical regions.

    ``unseen_region_label``/``unseen_region_image`` name a container the tool
    may hide in; they are either both present or both absent.
    """

    tool_label: str
    tool_image: str
    tool_region: Region
    operational_region: Region
    functional_region: Region
    unseen_region_label: str | None = None
    unseen_region_image: str | None = None

    def __post_init__(self) -> None:
        if not self.tool_label:
            raise ValueError("tool_label must be non-empty")
        if not self.tool_region.contains(self.operational_region):
            raise ValueError("operational_region must lie inside tool_region")
        if not self.tool_region.contains(self.functional_region):
            raise ValueError("functional_region must lie inside tool_region")
        if (self.unseen_region_label is None) != (self.unseen_region_image is None):
            raise ValueError("unseen region label and image must be set together")


@dataclass
class InstructionRecord:
    id: str
    text: str
    instruction_affordance: AffordanceVector
    tool_affordance: AffordanceVector
    results: tuple[GroundingResult, ...]
    cluster_id: int = -1
    subcluster_id: int = -1

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("record id must be non-empty")
        if not (1 <= len(self.results) <= MAX_RESULTS_PER_RECORD):
            raise ValueError(
                f"record must carry 1..{MAX_RESULTS_PER_RECORD} results, got {len(self.results)}"
            )


@dataclass
class Subcluster:
    """Records of one subcluster, plus their instruction and tool vectors as row
    arrays (derived from ``records`` when not given). ``append`` replaces the
    arrays instead of writing into them, so clones can share them."""

    centroid: AffordanceVector
    records: list[InstructionRecord] = field(default_factory=list)
    instruction_rows: np.ndarray | None = field(default=None, repr=False, compare=False)
    tool_rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.instruction_rows is None:
            self.instruction_rows = _rows([r.instruction_affordance for r in self.records], len(self.centroid))
            self.tool_rows = _rows([r.tool_affordance for r in self.records], len(self.centroid))

    def append(self, record: InstructionRecord) -> None:
        self.records.append(record)
        self.instruction_rows = np.vstack([self.instruction_rows, record.instruction_affordance.scores])
        self.tool_rows = np.vstack([self.tool_rows, record.tool_affordance.scores])


@dataclass
class Cluster:
    centroid: AffordanceVector
    subclusters: list[Subcluster] = field(default_factory=list)


@dataclass
class RelationshipSpace:
    params: ConfigParams
    clusters: list[Cluster]
    record_count: int = 0
    _ids: set[str] = field(default_factory=set, repr=False)

    # -- queries ---------------------------------------------------------

    def _check_dims(self, v: AffordanceVector) -> None:
        if len(v) != self.params.X:
            raise DimensionMismatchError(
                f"query has {len(v)} dimensions, space uses {self.params.X}"
            )

    def iter_records(self) -> Iterator[InstructionRecord]:
        for cluster in self.clusters:
            for sub in cluster.subclusters:
                yield from sub.records

    def dfs_retrieve(
        self, query: AffordanceVector, c: float | None = None
    ) -> tuple[InstructionRecord | None, int]:
        """First record within ``c`` of the query, or (None, visits) if none exists.

        Clusters and subclusters are visited in ascending centroid distance
        (ties to the lower index); records in stored order. The second element
        counts the visited records up to and including the hit, so a miss
        returns ``record_count``.
        """
        self._check_dims(query)
        radius = self.params.c if c is None else c
        point = np.asarray(query.scores)
        visited = 0
        for ci in _nearest_first(point, [cluster.centroid for cluster in self.clusters]):
            subs = self.clusters[ci].subclusters
            for sj in _nearest_first(point, [sub.centroid for sub in subs]):
                hits = np.flatnonzero(euclidean(point, subs[sj].instruction_rows) <= radius)
                if hits.size:
                    return subs[sj].records[hits[0]], visited + int(hits[0]) + 1
                visited += len(subs[sj].records)
        return None, visited

    def candidate_set(
        self, anchor: InstructionRecord, d: float | None = None
    ) -> list[InstructionRecord]:
        """Anchor's subcluster filtered by tool-affordance distance ``d``.

        Sorted by ascending distance with the record id as tiebreak; always
        contains the anchor itself (distance zero).
        """
        radius = self.params.d if d is None else d
        if anchor.id not in self._ids:
            raise SpaceError(f"anchor {anchor.id!r} does not belong to this space")
        sub = self.clusters[anchor.cluster_id].subclusters[anchor.subcluster_id]
        dists = euclidean(anchor.tool_affordance.scores, sub.tool_rows)
        picked = np.flatnonzero(dists <= radius).tolist()
        keys = dists.tolist()  # Python floats sort faster than numpy scalars
        picked.sort(key=lambda i: (keys[i], sub.records[i].id))
        return [sub.records[i] for i in picked]

    def clone(self) -> "RelationshipSpace":
        """Independent writable view sharing the (never-mutated) stored records.

        Built records are immutable after assignment and row arrays are
        replaced, never written, so a structural copy of the cluster tree is
        enough to isolate per-episode insertions without the cost of a deep copy.
        """
        clusters = [
            Cluster(
                centroid=cluster.centroid,
                subclusters=[
                    Subcluster(sub.centroid, list(sub.records), sub.instruction_rows, sub.tool_rows)
                    for sub in cluster.subclusters
                ],
            )
            for cluster in self.clusters
        ]
        return RelationshipSpace(
            params=self.params,
            clusters=clusters,
            record_count=self.record_count,
            _ids=set(self._ids),
        )

    # -- mutation --------------------------------------------------------

    def nearest_cluster(self, v: AffordanceVector) -> int:
        self._check_dims(v)
        return int(_nearest_first(v.scores, [cluster.centroid for cluster in self.clusters])[0])

    def insert(self, record: InstructionRecord) -> "RelationshipSpace":
        """Assign to the nearest cluster and subcluster without recentering.

        Centroids stay put so that retrieval stays deterministic mid-episode;
        insertions are rare (one per novel task).
        """
        if record.id in self._ids:
            raise DuplicateRecordError(f"record id {record.id!r} already stored")
        ci = self.nearest_cluster(record.instruction_affordance)
        subs = self.clusters[ci].subclusters
        sj = int(_nearest_first(record.instruction_affordance.scores, [sub.centroid for sub in subs])[0])
        record.cluster_id = ci
        record.subcluster_id = sj
        subs[sj].append(record)
        self._ids.add(record.id)
        self.record_count += 1
        return self


# --- build --------------------------------------------------------------


def build_space(
    drafts: Sequence[InstructionRecord], params: ConfigParams, seed: int
) -> RelationshipSpace:
    """Cluster drafts into ``a`` clusters of ``b`` subclusters each.

    Drafts whose instruction or tool vector lies farther than ``D`` from the
    assigned cluster centroid are dropped before subclustering, mirroring the
    corpus center filter. Deterministic for a fixed seed. Drafts are copied,
    never aliased, so callers may rebuild from the same list freely.
    """
    if not drafts:
        raise SpaceBuildError("cannot build a space from zero drafts")
    drafts = [dataclasses.replace(d, cluster_id=-1, subcluster_id=-1) for d in drafts]
    for draft in drafts:
        if len(draft.instruction_affordance) != params.X or len(draft.tool_affordance) != params.X:
            raise DimensionMismatchError(
                f"draft {draft.id!r} does not match X={params.X}"
            )
    ids = [d.id for d in drafts]
    if len(set(ids)) != len(ids):
        raise DuplicateRecordError("draft ids must be unique")
    if len(drafts) < params.a:
        raise SpaceBuildError(
            f"{len(drafts)} drafts cannot seed {params.a} clusters"
        )

    rng = np.random.Generator(np.random.PCG64(seed))
    points = _rows([d.instruction_affordance for d in drafts], params.X)
    centers, labels = kmeans(points, params.a, rng)
    centers = np.clip(centers, 0.0, 10.0)
    assigned = centers[labels]
    tools = _rows([d.tool_affordance for d in drafts], params.X)
    survives = (euclidean(points, assigned) <= params.D) & (euclidean(tools, assigned) <= params.D)
    del assigned, tools  # 15 MB at 50k drafts; freed now, the row arrays reuse the space
    if survives.sum() < params.a:
        raise SpaceBuildError(
            f"only {survives.sum()} drafts survive the distance-{params.D} filter; "
            f"need at least {params.a}"
        )

    clusters: list[Cluster] = []
    space_ids: set[str] = set()
    for ci in range(params.a):
        in_cluster = survives & (labels == ci)
        members = [drafts[i] for i in np.flatnonzero(in_cluster)]
        centroid = vector(centers[ci])
        if not members:
            clusters.append(Cluster(centroid, [Subcluster(centroid) for _ in range(params.b)]))
            continue
        k_eff = min(params.b, len(members))
        sub_centers, sub_labels = kmeans(points[in_cluster], k_eff, rng)
        groups: list[list[InstructionRecord]] = [[] for _ in range(k_eff)]
        for member, sj in zip(members, sub_labels.tolist()):
            member.cluster_id = ci
            member.subcluster_id = sj
            groups[sj].append(member)
            space_ids.add(member.id)
        subclusters = [
            Subcluster(vector(center), group)
            for center, group in zip(np.clip(sub_centers, 0.0, 10.0), groups)
        ]
        # Pad to exactly b subclusters. Padding duplicates the last real
        # centroid at a higher index, so distance ties always resolve to
        # the populated subcluster and reassignment stays a fixed point.
        while len(subclusters) < params.b:
            subclusters.append(Subcluster(centroid=subclusters[-1].centroid))
        clusters.append(Cluster(centroid, subclusters))

    return RelationshipSpace(
        params=params, clusters=clusters, record_count=len(space_ids), _ids=space_ids
    )


def brute_force_assignments(space: RelationshipSpace) -> bool:
    """True when every stored record sits under its nearest cluster centroid."""
    records = list(space.iter_records())
    points = _rows([r.instruction_affordance for r in records], space.params.X)
    labels = assign(points, _rows([c.centroid for c in space.clusters], space.params.X))
    return all(int(label) == r.cluster_id for label, r in zip(labels, records))


# --- persistence ----------------------------------------------------------


def _result_to_dict(r: GroundingResult) -> dict:
    out = {
        "tool_label": r.tool_label,
        "tool_image": r.tool_image,
        "tool_region": r.tool_region.as_list(),
        "operational_region": r.operational_region.as_list(),
        "functional_region": r.functional_region.as_list(),
    }
    if r.unseen_region_label is not None:
        out["unseen_region_label"] = r.unseen_region_label
        out["unseen_region_image"] = r.unseen_region_image
    return out


def _result_from_dict(doc: dict) -> GroundingResult:
    return GroundingResult(
        tool_label=doc["tool_label"],
        tool_image=doc["tool_image"],
        tool_region=Region(*doc["tool_region"]),
        operational_region=Region(*doc["operational_region"]),
        functional_region=Region(*doc["functional_region"]),
        unseen_region_label=doc.get("unseen_region_label"),
        unseen_region_image=doc.get("unseen_region_image"),
    )


def record_to_dict(record: InstructionRecord) -> dict:
    return {
        "id": record.id,
        "text": record.text,
        "instruction_affordance": record.instruction_affordance.as_list(),
        "tool_affordance": record.tool_affordance.as_list(),
        "cluster_id": record.cluster_id,
        "subcluster_id": record.subcluster_id,
        "results": [_result_to_dict(r) for r in record.results],
    }


def record_from_dict(doc: dict) -> InstructionRecord:
    try:
        return InstructionRecord(
            id=doc["id"],
            text=doc["text"],
            instruction_affordance=AffordanceVector(tuple(doc["instruction_affordance"])),
            tool_affordance=AffordanceVector(tuple(doc["tool_affordance"])),
            cluster_id=int(doc.get("cluster_id", -1)),
            subcluster_id=int(doc.get("subcluster_id", -1)),
            results=tuple(_result_from_dict(r) for r in doc["results"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpaceFormatError(f"malformed record document: {exc}") from exc


def save_space(space: RelationshipSpace, path: str | Path) -> None:
    doc = {
        "schema": SPACE_SCHEMA,
        "params": space.params.to_dict(),
        "record_count": space.record_count,
        "clusters": [
            {
                "centroid": cluster.centroid.as_list(),
                "subclusters": [
                    {
                        "centroid": sub.centroid.as_list(),
                        "records": [record_to_dict(r) for r in sub.records],
                    }
                    for sub in cluster.subclusters
                ],
            }
            for cluster in space.clusters
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_space(path: str | Path) -> RelationshipSpace:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"unreadable space document: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc:
        raise SpaceFormatError("space document missing schema tag")
    if doc["schema"] != SPACE_SCHEMA:
        raise SpaceSchemaError(
            f"expected schema {SPACE_SCHEMA!r}, got {doc['schema']!r}"
        )
    try:
        params = ConfigParams.from_dict(doc["params"])
        clusters: list[Cluster] = []
        ids: set[str] = set()
        count = 0
        for cdoc in doc["clusters"]:
            subclusters = []
            for sdoc in cdoc["subclusters"]:
                records = [record_from_dict(r) for r in sdoc["records"]]
                for r in records:
                    if r.id in ids:
                        raise SpaceFormatError(f"duplicate record id {r.id!r}")
                    ids.add(r.id)
                count += len(records)
                subclusters.append(
                    Subcluster(
                        centroid=AffordanceVector(tuple(sdoc["centroid"])),
                        records=records,
                    )
                )
            clusters.append(
                Cluster(centroid=AffordanceVector(tuple(cdoc["centroid"])), subclusters=subclusters)
            )
        if count != doc.get("record_count", count):
            raise SpaceFormatError("record_count does not match stored records")
    except SpaceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpaceFormatError(f"malformed space document: {exc}") from exc
    return RelationshipSpace(params=params, clusters=clusters, record_count=count, _ids=ids)


# --- corpus drafts ----------------------------------------------------------


def write_corpus(drafts: Iterable[InstructionRecord], path: str | Path) -> int:
    """One record per line, same field schema as the persisted space."""
    n = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for draft in drafts:
            fh.write(json.dumps(record_to_dict(draft)) + "\n")
            n += 1
    return n


def read_corpus(path: str | Path) -> list[InstructionRecord]:
    drafts = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                drafts.append(record_from_dict(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise SpaceFormatError(f"line {line_no}: unreadable record: {exc}") from exc
    return drafts
