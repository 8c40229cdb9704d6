"""Content-addressed on-disk result store for scenario sweeps.

One JSON file per scenario, named by the scenario's content address
(``scenario_<id>.json``), written atomically
(:func:`repro.resilience.checkpoint.atomic_write`) so a killed run never
leaves a half-written record.  Because the filename *is* the parameter
fingerprint, cross-run resume is a directory listing: any record already
present is valid for exactly the parameters that produced it, and any
parameter change routes to a fresh file.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.resilience.checkpoint import atomic_write


class ResultStore:
    """Directory of per-scenario JSON records keyed by scenario id."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, scenario_id: str) -> Path:
        return self.directory / f"scenario_{scenario_id}.json"

    def store(self, record: dict) -> Path:
        """Atomically persist one scenario record."""
        path = self.path_for(record["id"])
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        atomic_write(path, lambda f: f.write(text.encode("ascii")))
        return path

    def load(self, scenario_id: str) -> dict | None:
        """Return the stored record, or None if absent or unreadable.

        A corrupt record (truncated write from a hard kill predating the
        atomic-write discipline, manual editing) is treated as a miss --
        the scenario is simply recomputed.
        """
        path = self.path_for(scenario_id)
        try:
            record = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("id") != scenario_id:
            return None
        return record

    def completed(self) -> set[str]:
        """Scenario ids with a record on disk."""
        return {
            p.stem.removeprefix("scenario_")
            for p in self.directory.glob("scenario_*.json")
        }

    def __len__(self) -> int:
        return len(self.completed())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.directory)!r}, {len(self)} records)"


__all__ = ["ResultStore"]
