"""Tight-tolerance reference values and the comparison against them.

A reference is the same computation solved at `REF_TOL`.  Values are
cached as JSON under the benchmark's own directory, one file per network
(keyed by a hash of the generated arrays): single-firm rows by firm id and
strategy curves by a hash of their removal ordering, which the run seed
determines.  So each seed's reference is computed once.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

REF_TOL = 1e-12
# the oracle-equivalence bound of the acceptance suite
MAX_ERR = 1e-8

CACHE = Path(__file__).resolve().parent / ".cache"


def table_values(table) -> dict[str, list[float]]:
    """Per candidate: esri, ew_esri, co2_share_total, co2_share_ets."""
    return {
        r.firm_id: [r.esri, r.ew_esri, r.co2_share_total, r.co2_share_ets] for r in table.rows
    }


def curve_values(curve) -> list[list[float]]:
    """Per prefix: cum_co2_saved, cum_job_loss."""
    return [[p.cum_co2_saved, p.cum_job_loss] for p in curve.points]


def load(key: str) -> dict:
    """Cached reference values for one network: single-firm rows and curves."""
    path = CACHE / f"ref-{key}.json"
    try:
        store = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"single": {}, "curve": {}}
    return store


def save(key: str, store: dict) -> None:
    CACHE.mkdir(parents=True, exist_ok=True)
    path = CACHE / f"ref-{key}.json"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store) + "\n", encoding="utf-8")
    tmp.replace(path)


class Check:
    """Largest deviation from the reference, and the scenarios beyond MAX_ERR."""

    def __init__(self) -> None:
        self.max_err = 0.0
        self.bad: list[str] = []

    def compare(self, label: str, got: list[float], want: list[float]) -> None:
        if len(got) != len(want) or not all(map(math.isfinite, got)):
            err = 1.0  # every compared value is a share in [0, 1]; keeps JSON finite
        else:
            err = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
        self.max_err = max(self.max_err, err)
        if err > MAX_ERR:
            self.bad.append(label)

    def tables(self, label: str, got: dict, want: dict) -> None:
        for fid in sorted(got.keys() | want.keys()):
            self.compare(f"{label}:{fid}", got.get(fid, []), want.get(fid, []))

    def curves(self, label: str, got: list, want: list) -> None:
        if len(got) != len(want):
            self.compare(f"{label}:length", [math.nan], [0.0])
        for k, (g, w) in enumerate(zip(got, want), start=1):
            self.compare(f"{label}:prefix{k}", g, w)
