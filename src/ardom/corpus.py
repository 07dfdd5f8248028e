"""Corpus handling: a directory of algebra presentations with a manifest.

A corpus is a directory containing ``manifest.json`` plus the presentation
files (and optional module files) it references.  The manifest pins each
entry's classification and the invariant values expected of it, and its
entry order fixes the order of reports.  A verification run does not read
the expected values: ``tests/test_corpus.py`` cross-checks them against
fresh computations through :func:`capped_matches`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .algebra import DEFAULT_MAX_PATH_LENGTH, AlgebraTable, InputError, read_input, table_from_text
from .modules import parse_module

__all__ = ["CorpusError", "CorpusEntry", "load_corpus", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"

# the shape each expected value must have, checked by _well_shaped
_CAPPED_SHAPE = '{"kind": "exact" or "at_least", "value": an int >= 0} or {"kind": "infinite"}'
_EXPECTED_SHAPES = {
    "dim": "an int >= 1",
    "selfinjective": "a bool",
    **dict.fromkeys(("domdim", "gldim", "mueller", "gorenstein"), _CAPPED_SHAPE),
}
_CLASSIFICATIONS = {"auslander", "hereditary", "linear-an", "nakayama"}


class CorpusError(InputError):
    """Raised for any malformed or unusable corpus input."""


@dataclass
class CorpusEntry:
    entry_id: str
    file: str
    root: str
    classification: tuple = ()
    expected: dict = field(default_factory=dict)
    known_indecomposables: tuple = ()
    _table: AlgebraTable = field(default=None, repr=False, compare=False)

    def _read(self, rel: str, parse, *args):
        """``parse`` on the entry's file ``rel``; an error names ``<entry id>: <rel>``."""
        path = os.path.join(self.root, rel)
        return read_input(path, parse, *args, source=f"{self.entry_id}: {rel}")

    def load_table(self) -> AlgebraTable:
        if self._table is None:
            self._table = self._read(
                self.file, table_from_text, DEFAULT_MAX_PATH_LENGTH, self.entry_id
            )
        return self._table

    def load_known_indecomposables(self) -> list:
        """[(name, module)] for the entry's shipped indecomposable list."""
        tbl = self.load_table()
        out = []
        for rel in self.known_indecomposables:
            name = os.path.splitext(os.path.basename(rel))[0]
            out.append((name, self._read(rel, parse_module, tbl, f"{self.entry_id}/{name}")))
        return out

    def is_classified(self, *labels: str) -> bool:
        return all(lab in self.classification for lab in labels)


def _expect_str(raw, what: str) -> str:
    if not isinstance(raw, str) or not raw:
        raise CorpusError(f"{what} must be a non-empty string, got {raw!r}")
    return raw


def _expect_str_list(raw, what: str) -> tuple:
    if not isinstance(raw, list) or not all(isinstance(x, str) and x for x in raw):
        raise CorpusError(f"{what} must be a list of non-empty strings, got {raw!r}")
    return tuple(raw)


def _inside(path: str, what: str) -> str:
    """``path``, refused unless it is relative and stays inside the corpus directory."""
    norm = os.path.normpath(path)
    if os.path.isabs(path) or norm == os.pardir or norm.startswith(os.pardir + os.sep):
        raise CorpusError(f"{what} must be a path inside the corpus directory, got {path!r}")
    return path


def _well_shaped(key: str, raw) -> bool:
    if key == "selfinjective":
        return isinstance(raw, bool)
    if key == "dim":
        return isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind == "infinite":
        return "value" not in raw
    value = raw.get("value") if kind in ("exact", "at_least") else None
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except ValueError as exc:  # an int past int()'s digit limit
        raise CorpusError(f"invalid JSON: {exc}") from None


def load_corpus(root: str) -> list:
    """All entries of the corpus at ``root``, in manifest order."""
    if not os.path.isdir(root):
        raise CorpusError(f"corpus directory not found: {root}")
    manifest_path = os.path.join(root, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise CorpusError(f"no {MANIFEST_NAME} in {root}")
    manifest = read_input(manifest_path, _parse_json)
    raw_entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(raw_entries, list) or not raw_entries:
        raise CorpusError(f"{manifest_path}: no entries")
    entries = []
    seen = set()
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise CorpusError(f"{manifest_path}: entry #{i + 1} must be an object, got {raw!r}")
        entry_id = _expect_str(raw.get("id"), "entry id")
        if entry_id in seen:
            raise CorpusError(f"duplicate corpus entry id {entry_id!r}")
        seen.add(entry_id)
        what = f"{entry_id}: file"
        file_name = _inside(_expect_str(raw.get("file"), what), what)
        expected = raw.get("expected", {})
        if not isinstance(expected, dict):
            raise CorpusError(f"{entry_id}: expected must be an object, got {expected!r}")
        unknown = set(expected) - set(_EXPECTED_SHAPES)
        if unknown:
            raise CorpusError(f"{entry_id}: unknown expected keys {sorted(unknown)}")
        for key, value in expected.items():
            if not _well_shaped(key, value):
                shape = _EXPECTED_SHAPES[key]
                raise CorpusError(f"{entry_id}: expected {key} must be {shape}, got {value!r}")
        classification = _expect_str_list(
            raw.get("classification", []), f"{entry_id}: classification"
        )
        unknown = set(classification) - _CLASSIFICATIONS
        if unknown:
            raise CorpusError(f"{entry_id}: unknown classification labels {sorted(unknown)}")
        what = f"{entry_id}: known_indecomposables"
        known = _expect_str_list(raw.get("known_indecomposables", []), what)
        for rel in known:
            _inside(rel, what)
        entries.append(
            CorpusEntry(
                entry_id=entry_id,
                file=file_name,
                root=os.path.abspath(root),
                classification=classification,
                expected=dict(expected),
                known_indecomposables=known,
            )
        )
    return entries


def capped_matches(expected: dict, computed) -> bool:
    """Whether a computed CappedNat agrees with its manifest record.

    Only kind and value are compared; certificates are explanatory text.
    """
    if expected.get("kind") != computed.kind:
        return False
    if computed.kind == "infinite":
        return True
    return expected.get("value") == computed.value
