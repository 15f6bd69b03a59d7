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
which scores all three from one propagation per scenario, results in
input order.  With more than one worker it deals the scenarios
round-robin into shares, more shares than workers when there are
enough scenarios, and forked worker processes take the shares one at a
time, each stepping a share as the columns of one scenario block; with
one worker each scenario goes through propagate in this process.
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
    EquilibriumState,
    InvalidScenario,
    ShockScenario,
    _block_width,
    _operators,
    _propagate_block,
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
    # A row is always a result (batch_indices rejects unknown ids).  A class
    # constant, not a field, because acceptance criterion 7 asserts
    # `row.error is None` on every row.
    error = None


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
        return _finite_positive_descending(r.ratio for r in self.rows)


def _finite_positive_descending(values: Iterable[float]) -> list[float]:
    return sorted((v for v in values if math.isfinite(v) and v > 0.0), reverse=True)


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
    scenarios: Sequence[tuple[str, ...]]
    shares: int

    def result(self, eq: EquilibriumState) -> tuple[float, float, float, int, bool]:
        return (*self.weights.score(eq.h), eq.iterations, eq.converged)


# Scenario evaluation shared by batch_indices and the strategy curves.
# Worker processes are forked after _SHARED is set, so the network and
# calibrated operators are inherited without serialization.
_SHARED: _Batch | None = None

# A pool share holds this many blocks' worth of scenarios, so that refills
# keep its block full for most of its steps.
_SHARE_BLOCKS = 4


def _eval_shared(removed_ids: tuple[str, ...]) -> tuple[float, float, float, int, bool]:
    b = _SHARED
    return b.result(propagate(b.net, b.pf, ShockScenario(removed_ids), tol=b.tol, max_iter=b.max_iter))


def _eval_share(j: int) -> list[tuple[float, float, float, int, bool]]:
    """Results of share j, every shares-th scenario from the j-th, stepped as one block."""
    b = _SHARED
    share = b.scenarios[j :: b.shares]
    results = [None] * len(share)
    width = _block_width(b.net.n_firms, len(share))
    for k, eq in _propagate_block(b.net, b.pf, share, width, tol=b.tol, max_iter=b.max_iter):
        results[k] = b.result(eq)
    return results


def evaluate_scenarios(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenarios: Sequence[tuple[str, ...]],
    workers: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[tuple[float, float, float, int, bool]]:
    """Evaluate (esri, ew_esri, eliminated_co2, iterations, converged) per scenario.

    Scenarios are independent.  With more than one worker they are dealt
    round-robin into shares of _SHARE_BLOCKS blocks' worth of scenarios
    (one scenario where a block is one column), and at least one share per
    worker.  Forked workers take the shares one at a time, so a worker that
    ends early takes the next, and step each share as the columns of one
    scenario block (propagation._propagate_block); otherwise each scenario
    goes through propagate in this process.  Both give every
    scenario propagate's result bit for bit, so results, in input order,
    are identical for any worker count.  ew_esri is nan when no firm has an
    employee count.
    """
    global _SHARED
    scenarios = list(scenarios)
    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_workers = min(n_workers, len(scenarios))
    width = _block_width(net.n_firms, len(scenarios))
    # a one-column block has no columns to keep full
    per_share = _SHARE_BLOCKS * width if width > 1 else 1
    n_shares = max(n_workers, math.ceil(len(scenarios) / per_share))
    _operators(net, pf)  # compile the sparse operators before forking workers
    _SHARED = _Batch(
        net=net, pf=pf, weights=_Weights.of(net), tol=tol, max_iter=max_iter,
        scenarios=scenarios, shares=n_shares,
    )
    try:
        if n_workers > 1:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork: stay sequential
                log.warning("fork unavailable; evaluating scenarios sequentially")
            else:
                with ctx.Pool(processes=n_workers) as pool:
                    shares = pool.map(_eval_share, range(n_shares), chunksize=1)
                results = [None] * len(scenarios)
                for j, share in enumerate(shares):
                    results[j::n_shares] = share
                return results
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

    Raises InvalidScenario, naming the ids in input order, before any
    propagation when a candidate is not a firm of the network.
    """
    unknown = [fid for fid in candidates if fid not in net]
    if unknown:
        raise InvalidScenario(f"unknown candidate id(s): {', '.join(unknown)}")
    employees = net.employees_array()
    if not (~np.isnan(employees)).any():
        raise NoEmploymentData("no firm has an employee count")
    total = resolve_total_co2(net, total_co2)
    ets_total = ets_total_co2(net)

    results = evaluate_scenarios(
        net, pf, [(fid,) for fid in candidates], workers=workers, tol=tol, max_iter=max_iter
    )
    rows: list[IndexRow] = []
    not_converged: list[str] = []
    for fid, (esri_v, ew_v, _, _, converged) in zip(candidates, results):
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
