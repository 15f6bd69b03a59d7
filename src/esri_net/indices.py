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

esri, ew_esri and co2_shares each propagate one scenario for one score.
batch_indices and the strategy curves go through evaluate_scenarios,
which scores all three from one propagation per scenario and maps the
scenarios over a fork-based process pool, results in input order.
"""
from __future__ import annotations

import logging
import math
import multiprocessing
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .calibration import ProductionFunctionSet
from .network import ProductionNetwork, compute_strengths
from .propagation import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ShockScenario,
    _operators,
    propagate,
)

log = logging.getLogger(__name__)


class NoEmploymentData(Exception):
    """Every firm is missing an employee count."""


class MissingTotal(Exception):
    """No economy-wide CO2 total configured and none derivable from the data."""


# -- scores of an equilibrium --------------------------------------------------


def _shares(values: np.ndarray) -> np.ndarray:
    """values over their sum; zeros when the sum is 0, so every loss reads 0."""
    total = float(values.sum())
    return values / total if total > 0.0 else np.zeros_like(values)


@dataclass(frozen=True)
class _Weights:
    """Fixed per-network weights of the three scenario scores.

    Each score is a dot product of weights with the shortfalls 1 - h:
    out-strength shares (esri), employment shares over the firms with a
    known count (ew_esri) and known emissions (eliminated CO2).
    emp_known is None when no firm has an employee count.
    """

    out_shares: np.ndarray
    emp_known: np.ndarray | None
    emp_shares: np.ndarray
    co2_known: np.ndarray
    co2: np.ndarray

    @classmethod
    def of(cls, net: ProductionNetwork) -> "_Weights":
        employees = net.employees_array()
        emp_known = ~np.isnan(employees)
        co2 = net.co2_array()
        co2_known = ~np.isnan(co2)
        return cls(
            out_shares=_shares(compute_strengths(net).s_out),
            emp_known=emp_known if emp_known.any() else None,
            emp_shares=_shares(employees[emp_known]),
            co2_known=co2_known,
            co2=co2[co2_known],
        )

    def score(self, h: np.ndarray) -> tuple[float, float, float]:
        """(esri, ew_esri, eliminated CO2) at levels h; ew_esri is nan without employment data."""
        loss = 1.0 - h
        ew = math.nan if self.emp_known is None else float(np.dot(self.emp_shares, loss[self.emp_known]))
        return float(np.dot(self.out_shares, loss)), ew, float(np.dot(self.co2, loss[self.co2_known]))


def resolve_total_co2(net: ProductionNetwork, total_co2: float | None) -> float:
    """Configured economy-wide total, defaulting to the sum of known emissions."""
    if total_co2 is not None:
        if not total_co2 > 0.0:
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
    """Out-strength-share-weighted production loss of the scenario."""
    return _Weights.of(net).score(propagate(net, pf, scenario, tol=tol, max_iter=max_iter).h)[0]


def ew_esri(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Employment-share-weighted production loss over firms with a known count."""
    weights = _Weights.of(net)
    if weights.emp_known is None:
        raise NoEmploymentData("no firm has an employee count")
    return weights.score(propagate(net, pf, scenario, tol=tol, max_iter=max_iter).h)[1]


def co2_shares(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, float]:
    """Eliminated-emission shares of the economy-wide and ETS totals."""
    total = resolve_total_co2(net, total_co2)
    ets_total = ets_total_co2(net)
    eq = propagate(net, pf, scenario, tol=tol, max_iter=max_iter)
    eliminated = _Weights.of(net).score(eq.h)[2]
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

    @cached_property
    def _by_id(self) -> dict[str, IndexRow]:
        return {r.firm_id: r for r in reversed(self.rows)}  # the first row of an id wins

    def row(self, firm_id: str) -> IndexRow:
        try:
            return self._by_id[firm_id]
        except KeyError:
            raise KeyError(f"no index row for firm {firm_id!r}") from None

    def finite_ratios_descending(self) -> list[float]:
        values = [r.ratio for r in self.rows if r.error is None and math.isfinite(r.ratio) and r.ratio > 0.0]
        return sorted(values, reverse=True)


def _ratio(co2_share_total: float, ew: float) -> float:
    if ew > 0.0:
        return co2_share_total / ew
    return math.inf if co2_share_total > 0.0 else 0.0


@dataclass(frozen=True)
class _Batch:
    """What every scenario of one evaluate_scenarios call shares."""

    net: ProductionNetwork
    pf: ProductionFunctionSet
    weights: _Weights
    tol: float
    max_iter: int


# Scenario evaluation shared by batch_indices and the strategy curves.
# Worker processes are forked after _SHARED is set, so the network and
# calibrated operators are inherited without serialization.
_SHARED: _Batch | None = None


def _eval_shared(removed_ids: tuple[str, ...]) -> tuple[float, float, float, int, bool]:
    b = _SHARED
    eq = propagate(b.net, b.pf, ShockScenario(removed_ids), tol=b.tol, max_iter=b.max_iter)
    return (*b.weights.score(eq.h), eq.iterations, eq.converged)


def evaluate_scenarios(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenarios: Sequence[tuple[str, ...]],
    workers: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[float, float, float, int, bool]]:
    """Evaluate (esri, ew_esri, eliminated_co2, iterations, converged) per scenario.

    Scenarios are independent, so they fan out over a process pool whose
    map returns results in input order, bit-identical for any worker
    count.  ew_esri is nan when no firm has an employee count.
    """
    global _SHARED
    _operators(net, pf)  # compile the sparse operators before forking workers
    _SHARED = _Batch(net=net, pf=pf, weights=_Weights.of(net), tol=tol, max_iter=max_iter)
    try:
        n_workers = workers if workers is not None else (os.cpu_count() or 1)
        n_workers = min(n_workers, len(scenarios))
        if n_workers > 1:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork: stay sequential
                log.warning("fork unavailable; evaluating scenarios sequentially")
            else:
                # a scenario costs far more than a task's round trip, so hand
                # them out one at a time and no worker is left with a long tail
                with ctx.Pool(processes=n_workers) as pool:
                    return pool.map(_eval_shared, scenarios, chunksize=1)
        return list(map(_eval_shared, scenarios))
    finally:
        _SHARED = None


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

    results = iter(evaluate_scenarios(
        net, pf, [(fid,) for fid in candidates if fid in net],
        workers=workers, tol=tol, max_iter=max_iter,
    ))
    rows: list[IndexRow] = []
    not_converged: list[str] = []
    for fid in candidates:
        if fid not in net:
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
        esri_v, ew_v, _, _, converged = next(results)
        if not converged:
            not_converged.append(fid)
        own_co2 = float(np.nan_to_num(net.co2_array()[net.index_of(fid)])) or 0.0
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
