"""Systemic-risk indices over propagation equilibria.

esri weighs production losses 1 - h_i(T) by out-strength shares; ew_esri
weighs them by employment shares, where firms with unknown employee
counts are excluded from numerator and denominator alike.  Known totals
of 0 are the same data error as no data: NoEmploymentData for employment
and MissingTotal for CO2 without a configured total.  Scenario CO2
shares count eliminated emissions sum(co2_i * (1 - h_i(T))), i.e. they
include the partial reductions of firms that are hit but not removed.

Per-firm index rows report the candidate's own direct emissions as
shares of the economy-wide and ETS totals (so ets shares over all ETS
firms sum to one), and ratio = co2_share_total / ew_esri, the CO2 saved
per unit of employment put at risk by removing that firm alone.  An
index table also keeps each candidate's full evaluate_scenarios result
(eliminated CO2 in absolute terms) with the calibration, tol and max_iter
it was solved under, so strategy curves can reuse those single-firm
solves (IndexTable.singles).

Every score goes through evaluate_scenarios, which scores all three from
one propagation per scenario, results in input order, with the weights
that the calibration's engine (propagation._Engine) built once.  With
more than one worker it deals the scenarios round-robin into one share
per forked worker process, and each worker solves its share as the
columns of one scenario block (_Engine.results), which the next pending
scenarios refill as scenarios end, keyed by their position.  How wide a
block is and when a column leaves it are stated once, in
propagation._Engine.solve and README *Parallelism*.  The pool never has
more workers than the host has cores, nor more than there are
scenarios.  With one worker each scenario goes through propagate in this
process.  A call keeps what its scenarios share in local variables and
hands the pool its task through the worker initializer, so concurrent
one-worker calls are safe.
"""
from __future__ import annotations

import logging
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .calibration import ProductionFunctionSet
from .network import ProductionNetwork, known_co2_total
from .propagation import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    InvalidScenario,
    ScenarioResult,
    ShockScenario,
    _engine,
    _firm_ids,
    propagate,
)

log = logging.getLogger(__name__)


class NoEmploymentData(Exception):
    """No firm has an employee count, or the known counts sum to 0."""


class MissingTotal(Exception):
    """No economy-wide CO2 total configured and none derivable from the data:
    no firm has emission data, or the known emissions sum to 0."""


def resolve_total_co2(net: ProductionNetwork, total_co2: float | None) -> float:
    """Configured economy-wide total, defaulting to the sum of known emissions."""
    if total_co2 is not None:
        if not 0.0 < total_co2 < math.inf:
            raise ValueError(f"total_co2 must be positive and finite, got {total_co2}")
        return float(total_co2)
    total = known_co2_total(net)
    if not total > 0.0:
        raise MissingTotal("no firm has emissions above 0 and no economy-wide total configured")
    return total


def _require_employment(net: ProductionNetwork, pf: ProductionFunctionSet) -> None:
    """Raises NoEmploymentData when the engine scores ew_esri as nan."""
    if _engine(net, pf).emp_known is None:
        raise NoEmploymentData("no firm has an employee count above 0")


def ets_total_co2(net: ProductionNetwork) -> float:
    return known_co2_total(net, ets_only=True)


# -- scenario-level indices ----------------------------------------------------


def _scenario_result(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    tol: float,
    max_iter: int,
) -> ScenarioResult:
    """The scenario's evaluate_scenarios result, logged when it hit the iteration cap."""
    scenario = scenario if isinstance(scenario, ShockScenario) else ShockScenario(scenario)
    [result] = evaluate_scenarios(net, pf, [scenario], 1, tol, max_iter)
    if not result[4]:
        _log_capped(log, "scenario(s)", ["removing " + ", ".join(sorted(scenario.removed))])
    return result


def esri(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Out-strength-share-weighted production loss of the scenario."""
    return _scenario_result(net, pf, scenario, tol, max_iter)[0]


def ew_esri(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Employment-share-weighted production loss over firms with a known count."""
    _require_employment(net, pf)
    return _scenario_result(net, pf, scenario, tol, max_iter)[1]


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
    eliminated = _scenario_result(net, pf, scenario, tol, max_iter)[2]
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
    # Each row's evaluate_scenarios result and what it was solved under;
    # left out of equality and repr, which compare and show the rows only.
    results: tuple[ScenarioResult, ...] = field(default=(), compare=False, repr=False)
    pf: ProductionFunctionSet | None = field(default=None, compare=False, repr=False)
    tol: float | None = field(default=None, compare=False, repr=False)
    max_iter: int | None = field(default=None, compare=False, repr=False)

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

    def singles(
        self, pf: ProductionFunctionSet, tol: float, max_iter: int
    ) -> dict[frozenset[str], ScenarioResult]:
        """Each candidate's single-firm result keyed by its removed set, when the
        table was solved with this very pf object, tol and max_iter; otherwise none."""
        if self.pf is not pf or self.tol != tol or self.max_iter != max_iter:
            return {}
        return {frozenset((r.firm_id,)): res for r, res in zip(self.rows, self.results)}


def _finite_positive_descending(values: Iterable[float]) -> list[float]:
    return sorted((v for v in values if math.isfinite(v) and v > 0.0), reverse=True)


def _ratio(co2_share_total: float, ew: float) -> float:
    if ew > 0.0:
        return co2_share_total / ew
    return math.inf if co2_share_total > 0.0 else 0.0


# The pool's task, worker number -> that worker's results, set by
# _init_worker in each worker process alone.  Under fork the initializer's
# arguments reach the child in its copy of the parent's memory, so the
# network and its engine are inherited without serialization.
_task = None


def _init_worker(task) -> None:
    global _task
    _task = task


def _run_task(j: int) -> list[ScenarioResult]:
    return _task(j)


def evaluate_scenarios(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenarios: Iterable[Iterable[str]],
    workers: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[ScenarioResult]:
    """Evaluate (esri, ew_esri, eliminated_co2, iterations, converged) per
    scenario of an iterable read once (a lone string is one one-firm scenario).

    Scenarios are independent.  With more than one worker they are dealt
    round-robin into one share per worker, and each forked worker solves
    its share as the columns of one scenario block, refilled as columns
    end (propagation._Engine.results, whose rules are stated in
    _Engine.solve and README *Parallelism*); otherwise each scenario
    goes through propagate in this process and is scored by the same
    engine.  Both give every scenario propagate's result bit for bit, so
    results, in input order, are identical for any worker count.  The pool
    has at most as many workers as the host has cores (os.cpu_count()); a
    larger request is logged at INFO and capped, and fewer than 1 is a
    ValueError.  ew_esri is nan when no firm has an employee count or the
    known counts sum to 0.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    scenarios = _firm_ids(scenarios)
    cores = os.cpu_count() or 1
    n_workers = workers if workers is not None else cores
    if n_workers > cores:
        log.info("%d workers asked for; the pool is capped at the %d core(s)", n_workers, cores)
        n_workers = cores
    n_workers = min(n_workers, len(scenarios))
    engine = _engine(net, pf)  # built before any worker is forked
    if n_workers > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: stay sequential
            log.warning("fork unavailable; evaluating scenarios sequentially")
        else:
            def share(j: int) -> list[ScenarioResult]:
                """Results of worker j's share, every n_workers-th scenario from the j-th."""
                return engine.results(scenarios[j::n_workers], tol, max_iter)

            with ctx.Pool(n_workers, initializer=_init_worker, initargs=(share,)) as pool:
                shares = pool.map(_run_task, range(n_workers))
            results = [None] * len(scenarios)
            for j, part in enumerate(shares):
                results[j::n_workers] = part
            return results
    return [engine.result(propagate(net, pf, s, tol=tol, max_iter=max_iter)) for s in scenarios]


def _log_capped(logger: logging.Logger, what: str, capped: list[str]) -> None:
    """Warns on logger how many of what hit the iteration cap, naming the first five."""
    if capped:
        logger.warning(
            "%d %s hit the iteration cap before tol: %s", len(capped), what, ", ".join(capped[:5])
        )


def batch_indices(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    candidates: Iterable[str],
    workers: int | None = None,
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> IndexTable:
    """Single-firm-removal indices for each candidate (read once; a lone string is one), in input order.

    Raises InvalidScenario, naming the ids in input order, before any
    propagation when a candidate is not a firm of the network.
    """
    candidates = _firm_ids(candidates)
    unknown = [str(fid) for fid in candidates if fid not in net]
    if unknown:
        raise InvalidScenario(f"unknown candidate id(s): {', '.join(unknown)}")
    _require_employment(net, pf)
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
    _log_capped(log, "candidate scenario(s)", not_converged)
    return IndexTable(
        rows=tuple(rows), total_co2=total, ets_total_co2=ets_total,
        results=tuple(results), pf=pf, tol=tol, max_iter=max_iter,
    )
