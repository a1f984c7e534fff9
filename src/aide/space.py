"""The instruction-tool relationship space.

A two-level k-means hierarchy over instruction affordance vectors. Records
carry the instruction text, both affordance vectors (instruction and tool) and
one to three grounding results. Retrieval is a depth-first walk over clusters
and subclusters ordered by centroid proximity that stops at the first record
within radius ``c`` of the query; candidate expansion then filters the hit's
subcluster by tool-vector distance ``d``. A subcluster remembers each pool
derived from it (``Subcluster.pools``), and an insert carries them forward.

The layout is an inverted file: a stored record is a row, and the space names
it only by its ``Position``, (cluster, subcluster, row). Each subcluster keeps
its records' ids and texts as columns, their vectors as row numbers into
read-only instruction and tool columns that all subclusters share, and their
results as rows of one space-wide table of distinct ``GroundingResult``s (a
corpus repeats a few results many times), so retrieval and candidate pools
are numpy work over arrays, not walks over records. A built space's vector
columns are the drafts' own arrays, which the build marks read-only; a loaded
space's are the arrays read from its file. A reader gathers only the rows it
reads: one row, a DFS block, or one subcluster at a time when
``save_space`` writes the columns. The ids are a list of str that shares the
very strings of the drafts or file they came from, which the space's id set
holds too, and result rows are int32 from corpus to space, as a space file
stores them. An ``InstructionRecord`` holds a record's content without its
position; one is built from its row only by ``record`` or ``iter_records``.
Clusters and subclusters are immutable, and an insert replaces the one
cluster it lands in. So ``clone`` copies the list of clusters, the result
table (a few dozen rows) and the set of ids inserted since, and shares the
clusters and the set of ids the space was built with.

``save_space`` writes the same layout to one ``aide-space/3`` file: a JSON
header line with the result table once, the cluster tree with centroids and
subcluster sizes, the ids and the table of distinct texts; then the records
as raw little-endian columns in tree order (text-table rows, instruction and
tool vectors, result rows). A record's cluster and subcluster follow from its
position. ``load_space`` parses the header as the one line that
``_write_file`` writes (a header laid out over several lines is not read)
and reads each column straight into an array of its exact size. Each value
of the header is read at its JSON type (``jsonvalues``), and a header holds
only the members its writer writes. It reads only that
schema: a space saved as an older ``aide-space/1`` or ``/2`` is rebuilt from
its corpus with ``aide build-space``, which is deterministic for a fixed seed.

Corpus drafts are the same columns before they have a position (``Drafts``):
``gen_corpus`` and ``read_corpus`` produce them and ``build_space`` clusters
their arrays, so no record is built between a corpus and a stored space. A
corpus file (``aide-corpus/2``) is a space file without params and tree,
written by the same writer (``_write_file``) and read by the same reader
(``_read_header``, ``_read_records``), with every check of a load; a corpus
written as JSON Lines is written anew with ``aide gen-corpus``. A build and a
load both construct the space through ``_space_from_columns``, which checks
every row of the vector columns it is given, so a build checks the scores of
every draft, also of those the ``D`` filter drops.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .affordance import SCORE_MAX, SCORE_MIN, AffordanceVector, DimensionMismatchError, euclidean
from .cluster import kmeans
from .config import ConfigParams
from .geometry import Region
from .jsonvalues import array, integer, integers, known, member, nullable, numbers, text

SPACE_SCHEMA = "aide-space/3"
CORPUS_SCHEMA = "aide-corpus/2"

MAX_RESULTS_PER_RECORD = 3

# A stored record's place in the space: cluster, subcluster, row.
Position = tuple[int, int, int]
# The cluster tree: per cluster its centroid, and per subcluster its centroid
# and record count.
Tree = list[tuple[list, list[tuple[list, int]]]]

# Retrieval measures the first DFS_BLOCK rows of a subcluster, and the rest
# only when those hold no hit. A hit is mostly among the first rows, and the
# rest in one piece keeps a miss about as cheap as one whole-subcluster scan
# (128-row blocks all through doubled the cost of a miss at 50,000 records).
DFS_BLOCK = 128


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


def _nearest_first(point: Sequence[float], centroid_rows: np.ndarray) -> np.ndarray:
    """Indices of ``centroid_rows`` by ascending distance from ``point``, ties to
    the lower index."""
    return np.argsort(euclidean(point, centroid_rows), kind="stable")


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


@dataclass(frozen=True)
class InstructionRecord:
    """A record's content; where it is stored is its ``Position``."""

    id: str
    text: str
    instruction_affordance: AffordanceVector
    tool_affordance: AffordanceVector
    results: tuple[GroundingResult, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("record id must be non-empty")
        if not (1 <= len(self.results) <= MAX_RESULTS_PER_RECORD):
            raise ValueError(
                f"record must carry 1..{MAX_RESULTS_PER_RECORD} results, got {len(self.results)}"
            )


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _padded(result_rows: list[int]) -> list[int]:
    return result_rows + [-1] * (MAX_RESULTS_PER_RECORD - len(result_rows))


@dataclass(eq=False, repr=False)
class Drafts:
    """Instruction drafts as columns, one row per draft: ids and texts as
    lists of str, the instruction and tool vectors as n x X float arrays, and
    each draft's results as its row of ``result_rows``, an n x 3 int32 array:
    rows of ``results``, a table of distinct results, padded with -1.

    A space built from the drafts keeps their ``instruction`` and ``tool``
    arrays as its own vector columns and marks them read-only, so a write
    into either raises once the build is done."""

    ids: list[str]
    texts: list[str]
    instruction: np.ndarray
    tool: np.ndarray
    results: list[GroundingResult]
    result_rows: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


# A candidate pool as ``RelationshipSpace.pool_results`` remembers it: each
# result-table row it holds, mapped to the (distance, id, column) of its first
# occurrence along the candidate order, so sorting the rows by it gives the
# pool in first-seen order.
FirstSeen = dict[int, tuple[float, str, int]]


@dataclass(frozen=True, eq=False)
class Subcluster:
    """The records of one subcluster, stored only as columns, one row per
    record: ids and texts as lists of str, each record's row of the
    instruction and tool vector columns as ``vector_rows``, and each record's
    results as its int32 row of ``result_rows`` (rows of the space's result
    table, padded with -1). The vector columns are read-only and shared: a
    built space's are the drafts' own, a loaded space's the file's, and only
    a subcluster made by ``appended`` holds its own. Readers gather the rows
    they read (one, or a block), never the whole subcluster for one row.
    ``RelationshipSpace.record`` builds a record from its row. Immutable:
    ``appended`` returns a new subcluster, so every space that holds this one
    keeps it as it is. Subclusters compare by identity.

    ``pools`` remembers the candidate pools derived from the columns, keyed by
    (anchor row, radius ``d``). It only ever gains entries, each computed from
    the immutable columns, so every space and thread that shares the
    subcluster reads the same pools; ``appended`` carries each one forward."""

    centroid: AffordanceVector
    ids: list[str] = field(repr=False)
    texts: list[str] = field(repr=False)
    instruction: np.ndarray = field(repr=False)
    tool: np.ndarray = field(repr=False)
    vector_rows: np.ndarray = field(repr=False)
    result_rows: np.ndarray = field(repr=False)
    pools: dict[tuple[int, float], FirstSeen] = field(default_factory=dict, repr=False)

    def instruction_at(self, rows) -> np.ndarray:
        """The instruction vectors of ``rows`` (an index, a slice or an index array)."""
        return self.instruction.take(self.vector_rows[rows], axis=0)

    def tool_at(self, rows) -> np.ndarray:
        """The tool vectors of ``rows`` (an index, a slice or an index array)."""
        return self.tool.take(self.vector_rows[rows], axis=0)

    def _rows_then(self, column: np.ndarray, last: Sequence[float]) -> np.ndarray:
        """This subcluster's rows of ``column`` and then ``last``, gathered
        straight into one new array."""
        rows = np.empty((len(self.vector_rows) + 1, column.shape[1]), dtype=column.dtype)
        # "clip" writes straight into ``out``; "raise" would gather into a
        # buffer first. The rows are in range, so clipping changes none.
        column.take(self.vector_rows, axis=0, out=rows[:-1], mode="clip")
        rows[-1] = last
        return rows

    def appended(self, record: InstructionRecord, result_rows: list[int]) -> "Subcluster":
        """This subcluster with ``record`` as its last row, in vector columns
        of its own. Each remembered pool is carried forward exactly: the new
        row's results join it when the row lies within the pool's radius of
        its anchor, measured as ``RelationshipSpace.candidate_set`` measures
        it."""
        instruction = self._rows_then(self.instruction, record.instruction_affordance.scores)
        tool = self._rows_then(self.tool, record.tool_affordance.scores)
        pools: dict[tuple[int, float], FirstSeen] = {}
        # A snapshot: another thread may remember a pool meanwhile.
        for (k, d), first in tuple(self.pools.items()):
            dist = float(euclidean(tool[k], tool[-1:])[0])
            if dist <= d:
                first = dict(first)
                for column, row in enumerate(result_rows):
                    seen = (dist, record.id, column)
                    if row not in first or seen < first[row]:
                        first[row] = seen
            pools[k, d] = first
        return Subcluster(
            self.centroid,
            [*self.ids, record.id],
            [*self.texts, record.text],
            _read_only(instruction),
            _read_only(tool),
            np.arange(len(tool)),
            np.vstack([self.result_rows, np.array(_padded(result_rows), dtype=np.int32)]),
            pools,
        )


@dataclass(frozen=True)
class Cluster:
    centroid: AffordanceVector
    subclusters: tuple[Subcluster, ...]


@dataclass
class RelationshipSpace:
    params: ConfigParams
    clusters: list[Cluster]
    # Distinct grounding results; ``Subcluster.result_rows`` index it. Each
    # clone copies it.
    results: list[GroundingResult] = field(repr=False)
    # Ids the space was built or loaded with, shared by every clone, and ids
    # inserted since, which each clone copies.
    _stored_ids: frozenset[str] = field(repr=False)
    _inserted_ids: set[str] = field(repr=False)
    # Cluster centroids as rows, and each cluster's subcluster centroids as
    # rows: built once, since centroids never move, and shared by clones.
    _centroid_rows: tuple[np.ndarray, list[np.ndarray]] = field(repr=False, compare=False)

    @property
    def record_count(self) -> int:
        return len(self._stored_ids) + len(self._inserted_ids)

    # -- queries ---------------------------------------------------------

    def _check_dims(self, v: AffordanceVector) -> None:
        if len(v) != self.params.X:
            raise DimensionMismatchError(
                f"query has {len(v)} dimensions, space uses {self.params.X}"
            )

    def holds(self, record_id: str) -> bool:
        """Whether a record with this id is stored."""
        return record_id in self._stored_ids or record_id in self._inserted_ids

    def record(self, ci: int, sj: int, k: int) -> InstructionRecord:
        """The record at position (``ci``, ``sj``, ``k``), built from its row."""
        sub = self.clusters[ci].subclusters[sj]
        return InstructionRecord(
            id=sub.ids[k],
            text=sub.texts[k],
            instruction_affordance=AffordanceVector(tuple(sub.instruction_at(k).tolist())),
            tool_affordance=AffordanceVector(tuple(sub.tool_at(k).tolist())),
            results=tuple(self.results[row] for row in sub.result_rows[k].tolist() if row >= 0),
        )

    def iter_records(self) -> Iterator[tuple[Position, InstructionRecord]]:
        """Every stored record's position and record, in stored order, each
        record built from its row."""
        for ci, cluster in enumerate(self.clusters):
            for sj, sub in enumerate(cluster.subclusters):
                for k in range(len(sub.ids)):
                    yield (ci, sj, k), self.record(ci, sj, k)

    def dfs_retrieve(
        self, query: AffordanceVector, c: float
    ) -> tuple[Position | None, int]:
        """Position of the first record within ``c`` of the query, or (None, visits).

        Clusters and subclusters are visited in ascending centroid distance
        (ties to the lower index); records in stored order. The second element
        counts the visited records up to and including the hit, so a miss
        returns ``record_count``.
        """
        self._check_dims(query)
        point = np.asarray(query.scores)
        visited = 0
        cluster_rows, subcluster_rows = self._centroid_rows
        for ci in _nearest_first(point, cluster_rows):
            subs = self.clusters[ci].subclusters
            for sj in _nearest_first(point, subcluster_rows[ci]):
                sub = subs[sj]
                size = len(sub.ids)
                for start, stop in ((0, DFS_BLOCK), (DFS_BLOCK, size)):
                    if start >= size:
                        break
                    hits = np.flatnonzero(euclidean(point, sub.instruction_at(slice(start, stop))) <= c)
                    if hits.size:
                        k = start + int(hits[0])
                        return (int(ci), int(sj), k), visited + k + 1
                visited += size
        return None, visited

    def candidate_set(self, anchor: Position, d: float) -> np.ndarray:
        """Rows of the anchor's subcluster within tool-affordance distance ``d`` of its row.

        Sorted by ascending distance with the record id as tiebreak; always
        contains the anchor's row (distance zero).
        """
        ci, sj, k = anchor
        sub = self.clusters[ci].subclusters[sj]
        dists = euclidean(sub.tool_at(k), sub.tool_at(slice(None)))
        picked = np.flatnonzero(dists <= d)
        near = dists[picked]
        order = np.argsort(near)
        if (near[order[1:]] == near[order[:-1]]).any():  # equal distances: ties go by id
            order = np.lexsort((np.array([sub.ids[i] for i in picked.tolist()]), near))
        return picked[order]

    def pool_results(self, anchor: Position, d: float) -> list[GroundingResult]:
        """Distinct results of the anchor's candidate set (``candidate_set``),
        in first-seen order along it.

        The pool is derived once per (anchor, ``d``) and remembered on the
        anchor's subcluster (``Subcluster.pools``), which inserts carry
        forward; a remembered pool costs one lookup and a sort of its rows.
        """
        ci, sj, k = anchor
        sub = self.clusters[ci].subclusters[sj]
        first = sub.pools.get((k, d))
        if first is None:
            rows = self.candidate_set(anchor, d)
            flat = sub.result_rows[rows].ravel()
            filled = np.flatnonzero(flat >= 0)
            distinct, at = np.unique(flat[filled], return_index=True)
            picked, columns = np.divmod(filled[at], MAX_RESULTS_PER_RECORD)
            seen_at = rows[picked]  # the row each result is first seen in
            dists = euclidean(sub.tool_at(k), sub.tool_at(seen_at))
            seen_ids = [sub.ids[i] for i in seen_at.tolist()]
            first = dict(zip(distinct.tolist(), zip(dists.tolist(), seen_ids, columns.tolist())))
            sub.pools[k, d] = first
        return [self.results[row] for row in sorted(first, key=first.__getitem__)]

    def clone(self) -> "RelationshipSpace":
        """Independent writable view, copy-on-write.

        Clusters are immutable and ``insert`` replaces the one it changes. So
        the clone shares every cluster, the stored ids and the centroid rows,
        and copies only the cluster list, the result table and the inserted
        ids; its cost does not grow with the records.
        """
        return replace(
            self,
            clusters=list(self.clusters),
            results=list(self.results),
            _inserted_ids=set(self._inserted_ids),
        )

    # -- mutation --------------------------------------------------------

    def insert(self, record: InstructionRecord) -> Position:
        """Append ``record`` to the nearest subcluster of the nearest cluster
        without recentering; returns its position.

        Centroids stay put so that retrieval stays deterministic mid-episode;
        insertions are rare (one per novel task).
        """
        if self.holds(record.id):
            raise DuplicateRecordError(f"record id {record.id!r} already stored")
        self._check_dims(record.instruction_affordance)
        point = record.instruction_affordance.scores
        ci = int(_nearest_first(point, self._centroid_rows[0])[0])
        sj = int(_nearest_first(point, self._centroid_rows[1][ci])[0])
        result_rows = []
        for result in record.results:
            # A scan, not ``list.index``: the ``ValueError`` it raises for a
            # new result formats that result's repr.
            for row, known in enumerate(self.results):
                if known is result or known == result:
                    break
            else:
                row = len(self.results)
                self.results.append(result)
            result_rows.append(row)
        cluster = self.clusters[ci]
        subs = list(cluster.subclusters)
        subs[sj] = subs[sj].appended(record, result_rows)
        self.clusters[ci] = Cluster(cluster.centroid, tuple(subs))
        self._inserted_ids.add(record.id)
        return ci, sj, len(subs[sj].ids) - 1


# --- build --------------------------------------------------------------


def build_space(drafts: Drafts, params: ConfigParams, seed: int) -> RelationshipSpace:
    """Cluster drafts into ``a`` clusters of ``b`` subclusters each.

    Drafts whose instruction or tool vector lies farther than ``D`` from the
    assigned cluster centroid are dropped before subclustering, mirroring the
    corpus center filter. Deterministic for a fixed seed. The surviving
    drafts' ids, texts and result rows are gathered in tree order, and the
    results they use become the space's result table, in first use along
    that order. Their vectors are not copied: the space keeps the drafts'
    ``instruction`` and ``tool`` arrays, marked read-only, and each subcluster
    its rows of them. Every draft's scores are checked before clustering,
    also those of drafts the ``D`` filter drops (``SpaceFormatError``).
    """
    if not len(drafts):
        raise SpaceBuildError("cannot build a space from zero drafts")
    points, tools = drafts.instruction, drafts.tool
    if points.shape[1] != params.X or tools.shape[1] != params.X:
        raise DimensionMismatchError(
            f"drafts have {points.shape[1]}- and {tools.shape[1]}-dimensional vectors, X={params.X}"
        )
    if len(set(drafts.ids)) != len(drafts):
        raise DuplicateRecordError("draft ids must be unique")
    if len(drafts) < params.a:
        raise SpaceBuildError(
            f"{len(drafts)} drafts cannot seed {params.a} clusters"
        )
    _check_scores(drafts)

    rng = np.random.Generator(np.random.PCG64(seed))
    centers, labels = kmeans(points, params.a, rng)
    centers = np.clip(centers, 0.0, 10.0)
    # Each cluster's surviving members, filtered against its own centroid.
    survivors = []
    for ci, center in enumerate(centers):
        members = np.flatnonzero(labels == ci)
        near = euclidean(points[members], center) <= params.D
        near &= euclidean(tools[members], center) <= params.D
        survivors.append(members[near])
    del labels
    surviving = sum(map(len, survivors))
    if surviving < params.a:
        raise SpaceBuildError(
            f"only {surviving} drafts survive the distance-{params.D} filter; "
            f"need at least {params.a}"
        )

    tree: Tree = []
    order: list[np.ndarray] = []  # surviving draft indices, in tree order
    for centroid, members in zip(centers.tolist(), survivors):
        if not members.size:
            tree.append((centroid, [(centroid, 0)] * params.b))
            continue
        k_eff = min(params.b, len(members))
        sub_centers, sub_labels = kmeans(points[members], k_eff, rng)
        order.append(members[np.argsort(sub_labels, kind="stable")])
        subclusters = list(
            zip(np.clip(sub_centers, 0.0, 10.0).tolist(), np.bincount(sub_labels, minlength=k_eff).tolist())
        )
        # Pad to exactly b subclusters. Padding duplicates the last real
        # centroid at a higher index, so distance ties always resolve to
        # the populated subcluster and reassignment stays a fixed point.
        subclusters += [(subclusters[-1][0], 0)] * (params.b - k_eff)
        tree.append((centroid, subclusters))
    del survivors

    kept = np.concatenate(order)
    del order
    used = drafts.result_rows[kept]
    # The drafts' table rows in first use along the kept rows, pads skipped,
    # and each one's row in the space's table; the extra last entry maps the
    # -1 pads to -1.
    distinct, first = np.unique(used[used >= 0], return_index=True)
    in_use = distinct[np.argsort(first)]
    table_row = np.full(len(drafts.results) + 1, -1, dtype=np.int32)
    table_row[in_use] = np.arange(len(in_use))
    kept_rows = kept.tolist()
    records = Drafts(
        ids=[drafts.ids[i] for i in kept_rows],
        texts=[drafts.texts[i] for i in kept_rows],
        instruction=points,
        tool=tools,
        results=[drafts.results[i] for i in in_use.tolist()],
        result_rows=table_row[used],
    )
    del kept_rows, used
    return _space_from_columns(params, tree, records, kept)


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


def _result_from_dict(doc: dict, i: int) -> GroundingResult:
    """Result ``i`` of a header's table; a rejection names it ``results[<i>]``."""
    try:
        return GroundingResult(
            tool_label=member(doc, "tool_label", text),
            tool_image=member(doc, "tool_image", text),
            tool_region=Region(*member(doc, "tool_region", integers)),
            operational_region=Region(*member(doc, "operational_region", integers)),
            functional_region=Region(*member(doc, "functional_region", integers)),
            unseen_region_label=member(doc, "unseen_region_label", nullable(text)),
            unseen_region_image=member(doc, "unseen_region_image", nullable(text)),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"results[{i}]: {exc}") from None


# Items of a header list written at a time.
_LIST_BLOCK = 4096


def _write_list(fh, blocks: Iterable[list]) -> None:
    """Blocks of items, as one list, written to ``fh`` as ``json.dumps``
    writes that list, at most ``_LIST_BLOCK`` items at a time."""
    fh.write(b"[")
    sep = b""
    for block in blocks:
        for at in range(0, len(block), _LIST_BLOCK):
            fh.write(sep + json.dumps(block[at : at + _LIST_BLOCK])[1:-1].encode("ascii"))
            sep = b", "
    fh.write(b"]")


# The dtypes of the columns after a file's header, in file order: text rows,
# instruction vectors, tool vectors, result rows.
_COLUMN_DTYPES = ("<i4", "<f8", "<f8", "<i4")


def _write_file(
    path: str | Path,
    members: dict,
    ids: Iterable[list[str]],
    texts: Sequence[list[str]],
    instruction: Iterable[np.ndarray],
    tool: Iterable[np.ndarray],
    result_rows: Iterable[np.ndarray],
) -> None:
    """Write one columnar file, a space's or a corpus's: a JSON header line
    of ``members``, the ids and the table of distinct texts in first use,
    then the records' columns as raw little-endian bytes: each record's row
    of the text table (``<i4``), its instruction and tool vectors (``<f8``,
    X each) and its result rows (``<i4``, padded with -1).

    The records come in blocks, each the same records in every argument; all
    but ``texts`` are read once, so the blocks of a column may be gathered
    as they are written. The ids, the text table and every column are
    written a block at a time (``_write_list``), so neither the header nor a
    column is ever held in one piece."""
    distinct = list(dict.fromkeys(text for block in texts for text in block))
    table = {text: row for row, text in enumerate(distinct)}
    text_rows = (np.fromiter(map(table.__getitem__, block), np.int32, len(block)) for block in texts)
    with Path(path).open("wb") as fh:
        # ``json.dumps`` escapes every non-ASCII character.
        fh.write(json.dumps(members)[:-1].encode("ascii"))
        fh.write(b', "ids": ')
        _write_list(fh, ids)
        fh.write(b', "texts": ')
        _write_list(fh, [distinct])
        fh.write(b"}\n")
        for dtype, blocks in zip(_COLUMN_DTYPES, (text_rows, instruction, tool, result_rows)):
            for block in blocks:
                fh.write(np.ascontiguousarray(block, dtype=dtype))


def save_space(space: RelationshipSpace, path: str | Path) -> None:
    """Write ``space`` as an ``aide-space/3`` file at ``path`` (``_write_file``).

    The header holds the schema, params, ``record_count``, the result table,
    the cluster tree, the ids and the text table; the columns follow in tree
    order, one subcluster's rows gathered at a time.
    """
    subs = [sub for cluster in space.clusters for sub in cluster.subclusters]
    members = {
        "schema": SPACE_SCHEMA,
        "params": space.params.to_dict(),
        "record_count": space.record_count,
        "results": [_result_to_dict(result) for result in space.results],
        "clusters": [
            {
                "centroid": cluster.centroid.as_list(),
                "subclusters": [
                    {"centroid": sub.centroid.as_list(), "size": len(sub.ids)}
                    for sub in cluster.subclusters
                ],
            }
            for cluster in space.clusters
        ],
    }
    _write_file(
        path,
        members,
        (sub.ids for sub in subs),
        [sub.texts for sub in subs],
        (sub.instruction_at(slice(None)) for sub in subs),
        (sub.tool_at(slice(None)) for sub in subs),
        (sub.result_rows for sub in subs),
    )


def write_corpus(drafts: Drafts, path: str | Path) -> int:
    """Write ``drafts`` as an ``aide-corpus/2`` file at ``path``
    (``_write_file``) and return their count: a space file without params and
    tree, whose header holds the schema, ``record_count``, the vector width
    ``X``, the result table, the ids and the text table."""
    members = {
        "schema": CORPUS_SCHEMA,
        "record_count": len(drafts),
        "X": drafts.instruction.shape[1],
        "results": [_result_to_dict(result) for result in drafts.results],
    }
    # Each column is one block, whole.
    columns = (drafts.ids, drafts.texts, drafts.instruction, drafts.tool, drafts.result_rows)
    _write_file(path, members, *([column] for column in columns))
    return len(drafts)


def _check_scores(drafts: Drafts) -> None:
    """Check that every instruction and tool score is finite and in range."""
    for name, column in (("instruction", drafts.instruction), ("tool", drafts.tool)):
        if not ((column >= SCORE_MIN) & (column <= SCORE_MAX)).all():  # also false for NaN
            raise SpaceFormatError(f"a {name} score is not finite or outside [{SCORE_MIN}, {SCORE_MAX}]")


def _check_drafts(drafts: Drafts) -> frozenset[str]:
    """Check drafts columns against each other and each row's values: ids
    that are distinct, non-empty strings, texts that are strings, finite
    scores in range, at least one result row, all inside a table of distinct
    results. Returns the ids."""
    n = len(drafts.ids)
    if len(drafts.texts) != n:
        raise SpaceFormatError(f"{len(drafts.texts)} texts for {n} ids")
    _check_scores(drafts)
    rows = drafts.result_rows
    if rows.size and (rows.min() < -1 or rows.max() >= len(drafts.results)):
        raise SpaceFormatError(f"result row outside the {len(drafts.results)}-row result table")
    if ((rows[:, :-1] < 0) & (rows[:, 1:] >= 0)).any():
        raise SpaceFormatError("a -1 pad precedes a result row")
    if (rows[:, 0] < 0).any():
        raise SpaceFormatError("a record has no result row")
    if len(set(drafts.results)) != len(drafts.results):
        raise SpaceFormatError("the result table holds a result twice")

    if not all(isinstance(rid, str) for rid in drafts.ids):
        raise SpaceFormatError("record ids must be strings")
    if not all(isinstance(text, str) for text in drafts.texts):
        raise SpaceFormatError("record texts must be strings")
    ids = frozenset(drafts.ids)
    if "" in ids:
        raise SpaceFormatError("empty record id")
    if len(ids) != n:
        duplicate = next(rid for rid, count in Counter(drafts.ids).items() if count > 1)
        raise SpaceFormatError(f"duplicate record id {duplicate!r}")
    return ids


def _space_from_columns(
    params: ConfigParams, tree: Tree, records: Drafts, vector_rows: np.ndarray
) -> RelationshipSpace:
    """Check the records and the tree against them, then build the
    subclusters, the id set and the centroid rows: the one construction path
    of a built or loaded space. ``records`` holds the stored records in tree
    order, their results as rows of the space's result table, except that its
    vector columns may hold more rows: ``vector_rows`` gives each record's.
    Every row of those columns is checked (``_check_drafts``) and marked
    read-only, and the subclusters share them. The subclusters slice the
    records' own id list and int32 result rows, so each id is held once, by
    them and the id set. Equal texts share one str, as those of a generated
    or read corpus and of a loaded space do."""
    ids = _check_drafts(records)
    n = len(records)
    sizes = [size for _, subclusters in tree for _, size in subclusters]
    if any(size < 0 for size in sizes) or sum(sizes) != n:
        raise SpaceFormatError(f"subcluster sizes do not add up to the {n} stored records")

    instruction, tool = _read_only(records.instruction), _read_only(records.tool)
    distinct: dict[str, str] = {}
    texts = [distinct.setdefault(text, text) for text in records.texts]
    clusters: list[Cluster] = []
    lo = 0
    for centroid, subclusters in tree:
        subs = []
        for sub_centroid, size in subclusters:
            hi = lo + size
            subs.append(
                Subcluster(
                    AffordanceVector(tuple(sub_centroid)),
                    records.ids[lo:hi],
                    texts[lo:hi],
                    instruction,
                    tool,
                    vector_rows[lo:hi],
                    records.result_rows[lo:hi],
                )
            )
            lo = hi
        clusters.append(Cluster(AffordanceVector(tuple(centroid)), tuple(subs)))
    dims = params.X
    return RelationshipSpace(
        params=params,
        clusters=clusters,
        results=list(records.results),
        _stored_ids=ids,
        _inserted_ids=set(),
        _centroid_rows=(
            _rows([cluster.centroid for cluster in clusters], dims),
            [_rows([sub.centroid for sub in cluster.subclusters], dims) for cluster in clusters],
        ),
    )


# Each file kind's schema, the noun its errors name it by, how to write one
# anew that is held in an older format, and the members of its header, as
# ``save_space`` and ``write_corpus`` write them: a header holds no other.
_KINDS = {
    SPACE_SCHEMA: (
        "space",
        "rebuild the space from its corpus with `aide build-space --corpus <corpus> --seed <seed>`,"
        " which is deterministic for a fixed seed",
        ("schema", "params", "record_count", "results", "clusters", "ids", "texts"),
    ),
    CORPUS_SCHEMA: (
        "corpus",
        "a corpus in JSON Lines or another earlier format is not read; write it anew with"
        " `aide gen-corpus --out <corpus> --count <n> --seed <seed>`, which is deterministic"
        " for a fixed seed",
        ("schema", "record_count", "X", "results", "ids", "texts"),
    ),
}
# Bytes of a file read before its schema is checked: a file whose header
# starts with another schema, as every saved space's and corpus's does, is
# rejected without reading on (an ``aide-space/2`` document is one line).
_HEADER_PEEK = 1 << 12
_LEADING_SCHEMA = re.compile(rb'\s*\{\s*"schema"\s*:\s*"([^"\\]*)"')


def _schema_error(expected: str, schema: object) -> SpaceSchemaError:
    return SpaceSchemaError(f"expected schema {expected!r}, got {schema!r}; {_KINDS[expected][1]}")


def _read_column(fh, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """The next ``shape`` values of ``dtype`` in ``fh``, read straight into their array."""
    column = np.empty(shape, dtype=dtype)
    if fh.readinto(column.reshape(-1).view(np.uint8)) != column.nbytes:
        raise SpaceFormatError("the file ends inside a column")
    return column


def _read_records(fh, doc: dict, dims: int) -> Drafts:
    """The records of header ``doc``, with ``dims``-wide vectors, whose
    columns are the rest of ``fh``: the ids and texts through the text table
    as lists that share one str per distinct text, each column read straight
    into an array of its exact size."""
    ids, table = member(doc, "ids", array), member(doc, "texts", array)
    n = len(ids)
    if member(doc, "record_count", integer) != n:
        raise SpaceFormatError("record_count does not match stored records")
    shapes = ((n,), (n, dims), (n, dims), (n, MAX_RESULTS_PER_RECORD))
    expected = sum(
        np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in zip(_COLUMN_DTYPES, shapes)
    )
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != expected:
        raise SpaceFormatError(f"the columns of {n} records take {expected} bytes, the file holds {size}")
    text_rows, instruction, tool, result_rows = (
        _read_column(fh, dtype, shape) for dtype, shape in zip(_COLUMN_DTYPES, shapes)
    )
    if n and (text_rows.min() < 0 or text_rows.max() >= len(table)):
        raise SpaceFormatError(f"text row outside the {len(table)}-entry text table")
    return Drafts(
        ids=ids,
        texts=[table[row] for row in text_rows.tolist()],
        instruction=instruction,
        tool=tool,
        results=[_result_from_dict(r, i) for i, r in enumerate(member(doc, "results", array))],
        result_rows=result_rows,
    )


def _read_header(fh, schema: str) -> object:
    """The JSON value on the first line of ``fh``, the one line that
    ``_write_file`` writes, which leaves ``fh`` at the byte after it; a
    header that starts with another ``schema`` is rejected from its first
    bytes."""
    noun = _KINDS[schema][0]
    data = fh.readline(_HEADER_PEEK)
    leading = _LEADING_SCHEMA.match(data)
    if leading and leading[1] != schema.encode("ascii"):
        raise _schema_error(schema, leading[1].decode("utf-8", "replace"))
    if not data.endswith(b"\n"):
        data += fh.readline()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SpaceFormatError(f"{noun} document is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"unreadable {noun} header: {exc} (a header is one JSON line)") from exc


@contextmanager
def _opened(path: str | Path, schema: str) -> Iterator[tuple[BinaryIO, dict]]:
    """The file at ``path``, left after its header, and the header, which
    must be an object that carries ``schema`` (``_read_header``) and holds
    only the members of its kind. An unknown member, or a member that the
    block finds missing or of the wrong type (a ``KeyError``, ``TypeError``
    or ``ValueError``), is a ``SpaceFormatError``."""
    noun, rewrite, keys = _KINDS[schema]
    with Path(path).open("rb") as fh:
        doc = _read_header(fh, schema)
        if not isinstance(doc, dict) or "schema" not in doc:
            raise SpaceFormatError(f"{noun} document missing schema tag; {rewrite}")
        if doc["schema"] != schema:
            raise _schema_error(schema, doc["schema"])
        try:
            known(doc, keys)
            yield fh, doc
        except (KeyError, TypeError, ValueError) as exc:
            raise SpaceFormatError(f"malformed {noun} document: {exc}") from exc


def _subclusters(subs: object) -> list[tuple[list, int]]:
    return [(member(sdoc, "centroid", numbers).tolist(), member(sdoc, "size", integer)) for sdoc in array(subs)]


def _clusters(clusters: object) -> Tree:
    """A header's cluster tree, each member read by key (``clusters: subclusters: size: ...``)."""
    return [
        (member(cdoc, "centroid", numbers).tolist(), member(cdoc, "subclusters", _subclusters))
        for cdoc in array(clusters)
    ]


def load_space(path: str | Path) -> RelationshipSpace:
    """Read an ``aide-space/3`` file: its header (``_read_header``), its
    records (``_read_records``) and its tree, checked as a build checks its
    drafts (``_space_from_columns``)."""
    with _opened(path, SPACE_SCHEMA) as (fh, doc):
        params = member(doc, "params", ConfigParams.from_dict)
        records = _read_records(fh, doc, params.X)
        tree = member(doc, "clusters", _clusters)
        return _space_from_columns(params, tree, records, np.arange(len(records)))


def read_corpus(path: str | Path) -> Drafts:
    """Read an ``aide-corpus/2`` file as ``write_corpus`` writes it into
    drafts: its header and records as ``load_space`` reads a space's, checked
    as a load checks a space's (``_check_drafts``)."""
    with _opened(path, CORPUS_SCHEMA) as (fh, doc):
        drafts = _read_records(fh, doc, member(doc, "X", integer))
        _check_drafts(drafts)
        return drafts
