"""The loader ``load_space`` replaced: one ``json.loads`` of the whole file,
then the same checks. Kept as the oracle of what a document loads to, and of
the error each rejected document gets."""

from __future__ import annotations

import json
from pathlib import Path

from aide.space import (
    SPACE_SCHEMA,
    SpaceError,
    SpaceFormatError,
    SpaceSchemaError,
    _parse_v2,
    _space_from_columns,
)


def load_whole(path):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"unreadable space document: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc:
        raise SpaceFormatError("space document missing schema tag")
    if doc["schema"] != SPACE_SCHEMA:
        raise SpaceSchemaError(
            f"expected schema {SPACE_SCHEMA!r}, got {doc['schema']!r}; rebuild the space from"
            " its corpus with `aide build-space --corpus <drafts.jsonl> --seed <seed>`,"
            " which is deterministic for a fixed seed"
        )
    try:
        return _space_from_columns(*_parse_v2(doc))
    except SpaceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpaceFormatError(f"malformed space document: {exc}") from exc
