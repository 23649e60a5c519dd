"""File formats: INI plan files and the CSV header.

A plan file is an INI document with a [plan] section, a [delays]
section and one [stage i] section per stage.  Floats are written with
repr(), which Python guarantees to parse back to the same IEEE-754
value, so a plan round-trips exactly.  CSV output opens with the
comment line `# ffast-csv v1` so downstream tooling can detect schema
drift.
"""
from __future__ import annotations

from configparser import ConfigParser
from pathlib import Path

from .planner import FrontendPlan

CSV_HEADER = "# ffast-csv v1"


class FormatError(ValueError):
    """File does not match the expected layout."""


def write_plan(path: str | Path, plan: FrontendPlan) -> None:
    cfg = ConfigParser()
    cfg["plan"] = {
        "n": str(plan.n),
        "gamma": repr(plan.gamma),
        "c1": repr(plan.c1),
        "base": str(plan.base),
        "clusters": str(plan.clusters),
        "per_cluster": str(plan.per_cluster),
    }
    cfg["delays"] = {"shifts": " ".join(str(r) for r in plan.shifts)}
    for i, f in enumerate(plan.bin_counts):
        cfg[f"stage {i}"] = {"bins": str(f), "period": str(plan.n // f)}
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)


def read_plan(path: str | Path) -> FrontendPlan:
    cfg = ConfigParser()
    if not cfg.read(path, encoding="utf-8"):
        raise FormatError(f"unreadable plan file {path}")
    try:
        head = cfg["plan"]
        n = int(head["n"])
        stages = sorted(
            (s for s in cfg.sections() if s.startswith("stage ")),
            key=lambda s: int(s.split()[1]),
        )
        bin_counts = tuple(int(cfg[s]["bins"]) for s in stages)
        return FrontendPlan(
            n=n,
            bin_counts=bin_counts,
            clusters=int(head["clusters"]),
            per_cluster=int(head["per_cluster"]),
            base=int(head["base"]),
            shifts=tuple(int(tok) for tok in cfg["delays"]["shifts"].split()),
            gamma=float(head["gamma"]),
            c1=float(head["c1"]),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed plan file: {exc}") from exc
