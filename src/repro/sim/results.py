"""Structured result store the sweep orchestrator collects rows into.

A :class:`ResultStore` is a thin, dependency-free container over the
``List[Dict]`` row shape every experiment in this repo already produces: rows
in scenario order, the union of their columns, and CSV export for downstream
plotting.
"""

from __future__ import annotations

import csv
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

__all__ = ["ResultStore", "json_default"]

Row = Dict[str, object]


def json_default(value: object) -> object:
    """``json.dumps`` fallback for result rows: numpy scalars become Python scalars.

    Result rows are scalar-valued (summaries produce int/float/str/bool),
    but numpy types occasionally leak through; ``.item()`` converts them to
    the Python scalar whose ``repr`` the CSV writer would have produced, so
    JSON-journaled rows stay byte-identical on replay.  Anything else is a
    genuine error -- silently stringifying it would *change* replayed CSVs.
    """
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"result rows must hold scalars; cannot serialize {type(value).__name__}: {value!r}")


class ResultStore:
    """An ordered collection of result rows (dicts) from a scenario sweep."""

    def __init__(self, rows: Optional[Iterable[Mapping[str, object]]] = None) -> None:
        self._rows: List[Row] = [dict(row) for row in rows] if rows is not None else []

    # ------------------------------------------------------------------
    # Collection basics
    # ------------------------------------------------------------------

    def append(self, row: Mapping[str, object]) -> None:
        self._rows.append(dict(row))

    def extend(self, rows: Iterable[Mapping[str, object]]) -> None:
        for row in rows:
            self.append(row)

    @property
    def rows(self) -> List[Row]:
        """The rows, in insertion (scenario) order."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultStore):
            return self._rows == other._rows
        return NotImplemented

    def columns(self) -> List[str]:
        """Union of row keys, in first-seen order."""
        seen: Dict[str, None] = {}
        for row in self._rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_csv(self, path: str, columns: Optional[Sequence[str]] = None) -> int:
        """Write the rows as CSV; returns the number of data rows written."""
        fieldnames = list(columns) if columns is not None else self.columns()
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames, extrasaction="ignore")
            writer.writeheader()
            for row in self._rows:
                writer.writerow(row)
        return len(self._rows)
