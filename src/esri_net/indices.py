"""Systemic-risk indices over propagation equilibria.

esri weighs production losses 1 - h_i(T) by out-strength shares; ew_esri
weighs them by employment shares, where firms with unknown employee
counts are excluded from numerator and denominator alike.  Scenario CO2
shares count eliminated emissions sum(co2_i * (1 - h_i(T))), i.e. they
include the partial reductions of firms that are hit but not removed.

Per-firm index rows report the candidate's own direct emissions as
shares of the economy-wide and ETS totals (so ets shares over all ETS
firms sum to one), and ratio = co2_share_total / ew_esri, the CO2 saved
per unit of employment put at risk by removing that firm alone.
"""
from __future__ import annotations

import logging
import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .calibration import ProductionFunctionSet
from .network import ProductionNetwork, compute_strengths
from .propagation import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EquilibriumState,
    ShockScenario,
    _operators,
    propagate,
)

log = logging.getLogger(__name__)


class NoEmploymentData(Exception):
    """Every firm is missing an employee count."""


class MissingTotal(Exception):
    """No economy-wide CO2 total configured and none derivable from the data."""


# -- aggregations over an equilibrium -----------------------------------------


# Each aggregate is a dot product of fixed per-network weights with the
# shortfalls 1 - h; the weights are built once per network or batch.


def _out_shares(net: ProductionNetwork) -> np.ndarray | None:
    """Out-strength shares, or None when the network has no edge weight."""
    s_out = compute_strengths(net).s_out
    total = float(s_out.sum())
    return s_out / total if total > 0.0 else None


def _employment_shares(net: ProductionNetwork) -> tuple[np.ndarray, np.ndarray | None]:
    """Known-employment mask and shares over it (None when they sum to 0)."""
    employees = net.employees_array()
    known = ~np.isnan(employees)
    if not known.any():
        raise NoEmploymentData("no firm has an employee count")
    total = float(employees[known].sum())
    return known, employees[known] / total if total > 0.0 else None


def _known_co2(net: ProductionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Known-emission mask and the emissions over it."""
    co2 = net.co2_array()
    known = ~np.isnan(co2)
    return known, co2[known]


def _weighted_loss(weights: np.ndarray | None, h: np.ndarray) -> float:
    return 0.0 if weights is None else float(np.dot(weights, 1.0 - h))


def esri_of(net: ProductionNetwork, eq: EquilibriumState) -> float:
    """Out-strength-share-weighted production loss at equilibrium."""
    return _weighted_loss(_out_shares(net), eq.h)


def ew_esri_of(net: ProductionNetwork, eq: EquilibriumState) -> float:
    known, shares = _employment_shares(net)
    return _weighted_loss(shares, eq.h[known])


def eliminated_co2(net: ProductionNetwork, eq: EquilibriumState) -> float:
    """Absolute emissions eliminated at equilibrium, over firms with data."""
    known, co2 = _known_co2(net)
    return _weighted_loss(co2, eq.h[known])


def resolve_total_co2(net: ProductionNetwork, total_co2: float | None) -> float:
    """Configured economy-wide total, defaulting to the sum of known emissions."""
    if total_co2 is not None:
        if total_co2 <= 0.0:
            raise ValueError(f"total_co2 must be positive, got {total_co2}")
        return float(total_co2)
    co2 = net.co2_array()
    known = ~np.isnan(co2)
    if not known.any():
        raise MissingTotal("no firm has emission data and no economy-wide total configured")
    return float(co2[known].sum())


def ets_total_co2(net: ProductionNetwork) -> float:
    co2 = net.co2_array()
    mask = net.ets_mask() & ~np.isnan(co2)
    return float(co2[mask].sum()) if mask.any() else 0.0


# -- scenario-level indices ----------------------------------------------------


def esri(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    return esri_of(net, propagate(net, pf, scenario, tol=tol, max_iter=max_iter))


def ew_esri(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    return ew_esri_of(net, propagate(net, pf, scenario, tol=tol, max_iter=max_iter))


def co2_shares(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, float]:
    """Eliminated-emission shares of the economy-wide and ETS totals."""
    eq = propagate(net, pf, scenario, tol=tol, max_iter=max_iter)
    eliminated = eliminated_co2(net, eq)
    total = resolve_total_co2(net, total_co2)
    ets_total = ets_total_co2(net)
    return eliminated / total, eliminated / ets_total if ets_total > 0.0 else 0.0


# -- per-firm index table --------------------------------------------------------


@dataclass(frozen=True)
class IndexRow:
    firm_id: str
    esri: float
    ew_esri: float
    co2_share_total: float
    co2_share_ets: float
    ratio: float
    error: str | None = None


@dataclass(frozen=True)
class IndexTable:
    rows: tuple[IndexRow, ...]
    total_co2: float
    ets_total_co2: float

    def row(self, firm_id: str) -> IndexRow:
        for r in self.rows:
            if r.firm_id == firm_id:
                return r
        raise KeyError(f"no index row for firm {firm_id!r}")

    def finite_ratios_descending(self) -> list[float]:
        values = [r.ratio for r in self.rows if r.error is None and math.isfinite(r.ratio) and r.ratio > 0.0]
        return sorted(values, reverse=True)


def _ratio(co2_share_total: float, ew: float) -> float:
    if ew > 0.0:
        return co2_share_total / ew
    return math.inf if co2_share_total > 0.0 else 0.0


# Scenario evaluation shared by batch_indices and the strategy curves.
# Worker processes are forked after _SHARED is set, so the network and
# calibrated operators are inherited without serialization.
_SHARED: dict | None = None


def _eval_shared(task: tuple[int, tuple[str, ...]]) -> tuple[int, float, float, float, int, bool]:
    pos, removed_ids = task
    ctx = _SHARED
    eq = propagate(
        ctx["net"], ctx["pf"], ShockScenario(removed_ids), tol=ctx["tol"], max_iter=ctx["max_iter"]
    )
    emp_known, emp_shares = ctx["employment"]
    co2_known, co2 = ctx["co2"]
    return (
        pos,
        _weighted_loss(ctx["out_shares"], eq.h),
        _weighted_loss(emp_shares, eq.h[emp_known]) if emp_known is not None else math.nan,
        _weighted_loss(co2, eq.h[co2_known]),
        eq.iterations,
        eq.converged,
    )


def evaluate_scenarios(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenarios: Sequence[tuple[str, ...]],
    workers: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[float, float, float, int, bool]]:
    """Evaluate (esri, ew_esri, eliminated_co2, iterations, converged) per scenario.

    Scenarios are independent, so they fan out over a process pool;
    results are gathered in input order and are bit-identical for any
    worker count.  ew_esri is nan when no firm has an employee count.
    """
    global _SHARED
    try:
        employment = _employment_shares(net)
    except NoEmploymentData:
        employment = (None, None)
    _operators(net, pf)  # compile the sparse operators before forking workers
    _SHARED = {
        "net": net,
        "pf": pf,
        "tol": tol,
        "max_iter": max_iter,
        "out_shares": _out_shares(net),
        "employment": employment,
        "co2": _known_co2(net),
    }
    try:
        tasks = list(enumerate(scenarios))
        n_workers = workers if workers is not None else (os.cpu_count() or 1)
        n_workers = max(1, min(n_workers, len(tasks) or 1))
        if n_workers == 1 or len(tasks) <= 1:
            raw = [_eval_shared(t) for t in tasks]
        else:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork: stay sequential
                log.warning("fork unavailable; evaluating scenarios sequentially")
                raw = [_eval_shared(t) for t in tasks]
            else:
                chunk = max(1, len(tasks) // (4 * n_workers))
                with ctx.Pool(processes=n_workers) as pool:
                    raw = pool.map(_eval_shared, tasks, chunksize=chunk)
    finally:
        _SHARED = None
    ordered = sorted(raw)
    return [(e, w, c, it, conv) for _, e, w, c, it, conv in ordered]


def batch_indices(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    candidates: Sequence[str],
    workers: int | None = None,
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> IndexTable:
    """Single-firm-removal indices for every candidate, in input order.

    Unknown candidate ids become error rows instead of aborting the batch.
    """
    employees = net.employees_array()
    if not (~np.isnan(employees)).any():
        raise NoEmploymentData("no firm has an employee count")
    total = resolve_total_co2(net, total_co2)
    ets_total = ets_total_co2(net)

    known = [fid for fid in candidates if fid in net]
    results = evaluate_scenarios(
        net, pf, [(fid,) for fid in known], workers=workers, tol=tol, max_iter=max_iter
    )
    by_id = dict(zip(known, results))

    rows: list[IndexRow] = []
    not_converged: list[str] = []
    for fid in candidates:
        if fid not in by_id:
            rows.append(
                IndexRow(
                    firm_id=fid,
                    esri=math.nan,
                    ew_esri=math.nan,
                    co2_share_total=math.nan,
                    co2_share_ets=math.nan,
                    ratio=math.nan,
                    error=f"InvalidScenario: unknown firm id {fid!r}",
                )
            )
            continue
        esri_v, ew_v, _, _, converged = by_id[fid]
        if not converged:
            not_converged.append(fid)
        own_co2 = net.firm(fid).co2 or 0.0
        share_total = own_co2 / total
        share_ets = own_co2 / ets_total if ets_total > 0.0 else 0.0
        rows.append(
            IndexRow(
                firm_id=fid,
                esri=esri_v,
                ew_esri=ew_v,
                co2_share_total=share_total,
                co2_share_ets=share_ets,
                ratio=_ratio(share_total, ew_v),
            )
        )
    if not_converged:
        log.warning(
            "%d candidate scenario(s) hit the iteration cap before tol: %s",
            len(not_converged),
            ", ".join(not_converged[:5]),
        )
    return IndexTable(rows=tuple(rows), total_co2=total, ets_total_co2=ets_total)
