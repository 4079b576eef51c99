"""Checkpoint/resume journal for the scenario-sweep orchestrator.

A :class:`SweepJournal` is an append-only JSONL file with one line per
*completed* grid point::

    {"scenario_id": "platform=aws_lambda_like/rps=1.5", "seed": 123..., "rows": [{...}]}

``run_sweep(..., checkpoint=path)`` records every point the moment its rows
arrive and skips already-journaled points on the next run with the same
journal, so a 10k-point grid that dies at point 7,000 restarts where it left
off.  Entries are keyed by ``(scenario_id, seed)`` -- the same identity
per-point seeds derive from -- so a point whose id *or* seed changed simply
re-runs instead of replaying stale rows.  (Parameters passed via a grid's
``common`` mapping are not part of that identity; a journal is only ever
valid for the grid configuration that wrote it.)

Durability: each record is one line written and flushed immediately, so a
kill leaves at most one torn trailing line, which :meth:`SweepJournal.load`
skips -- that point just re-runs on resume.  Rows round-trip exactly:
``json`` preserves int/float/str/bool/None (floats serialize via ``repr``
and NaN survives), so a resumed sweep's CSV is byte-identical to an
uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, TextIO, Tuple

from repro.sim.results import json_default

__all__ = ["SweepJournal"]

Rows = List[Dict[str, object]]
Key = Tuple[str, int]


class SweepJournal:
    """Append-only JSONL journal of completed sweep points."""

    def __init__(self, path: "os.PathLike[str]") -> None:
        self.path = os.fspath(path)
        self._handle: Optional[TextIO] = None

    def load(self) -> Dict[Key, Rows]:
        """Completed entries keyed by ``(scenario_id, seed)``.

        Tolerates a torn trailing line (a kill mid-write) and skips anything
        that does not parse as a journal entry, so resume never crashes on a
        damaged journal -- damaged points are simply not resumed and re-run.
        """
        entries: Dict[Key, Rows] = {}
        if not os.path.exists(self.path):
            return entries
        for _, entry in self._entries():
            if entry is not None:
                entries[(entry["scenario_id"], entry["seed"])] = [
                    dict(row) for row in entry["rows"]
                ]
        return entries

    def _entries(self) -> Iterator[Tuple[str, Optional[Dict[str, object]]]]:
        """Each non-blank line with its entry (``None`` if not a journal entry)."""
        with open(self.path, "r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    entry = None
                if (
                    not isinstance(entry, dict)
                    or not isinstance(entry.get("scenario_id"), str)
                    or not isinstance(entry.get("seed"), int)
                    or not isinstance(entry.get("rows"), list)
                ):
                    entry = None
                yield line, entry

    def compact(self) -> Dict[str, int]:
        """Rewrite the journal with one line per key, dropping garbage.

        Journals of repeatedly resumed sweeps accumulate duplicate entries for the same ``(scenario_id, seed)`` key
        plus the occasional torn line from a kill mid-write; every resume
        then re-parses all of it.  Compaction keeps the *last* record of each
        key (last-wins, matching what :meth:`load` returns, which overwrites
        earlier entries as it reads) in first-occurrence key order, drops
        unparseable or wrong-shape lines, and replaces the file atomically
        (write to a sibling temp file, then ``os.replace``) so a kill during
        compaction leaves either the old or the new journal, never a torn
        hybrid.

        Returns ``{"kept": ..., "dropped_duplicates": ..., "dropped_garbage": ...}``.
        No-op (all zeros) when the journal does not exist yet.
        """
        if self._handle is not None:
            raise RuntimeError("close() the journal before compacting it")
        stats = {"kept": 0, "dropped_duplicates": 0, "dropped_garbage": 0}
        if not os.path.exists(self.path):
            return stats
        latest: Dict[Key, str] = {}
        for line, entry in self._entries():
            if entry is None:
                stats["dropped_garbage"] += 1
                continue
            key = (entry["scenario_id"], entry["seed"])
            if key in latest:
                stats["dropped_duplicates"] += 1
            # Keep the raw line: rows already round-tripped through json
            # when they were recorded, so rewriting them verbatim cannot
            # perturb float formatting.
            latest[key] = line
        stats["kept"] = len(latest)
        tmp_path = self.path + ".compact.tmp"
        with open(tmp_path, "w") as handle:
            for line in latest.values():
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        return stats

    def record(self, scenario_id: str, seed: int, rows: Rows) -> None:
        """Append one completed point and flush it immediately."""
        if self._handle is None:
            self._handle = open(self.path, "a")
        line = json.dumps(
            {"scenario_id": scenario_id, "seed": seed, "rows": rows}, default=json_default
        )
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
