"""File formats: INI plan files and the CSV header.

A plan file is an INI document with a [plan] section, a [delays]
section and one [stage i] section per stage: the plan's sampling
geometry, for a reader outside the package (ffast reads none back).
CSV output opens with the comment line `# ffast-csv v1` so downstream
tooling can detect schema drift.
"""
from __future__ import annotations

from configparser import ConfigParser
from pathlib import Path

from .planner import FrontendPlan

CSV_HEADER = "# ffast-csv v1"


class FormatError(ValueError):
    """A file could not be read."""


def write_plan(path: str | Path, plan: FrontendPlan) -> None:
    cfg = ConfigParser()
    cfg["plan"] = {
        "n": str(plan.n),
        "base": str(plan.base),
        "clusters": str(plan.clusters),
        "per_cluster": str(plan.per_cluster),
    }
    cfg["delays"] = {"shifts": " ".join(str(r) for r in plan.shift_array)}
    for i, f in enumerate(plan.bin_counts):
        cfg[f"stage {i}"] = {"bins": str(f), "period": str(plan.n // f)}
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)
