"""Decarbonization strategies: removal orderings, cumulative curves, regime fits.

A strategy fixes a static removal ordering over the candidate firms from
their single-firm index table, then removes growing prefixes of that
ordering.  Each prefix is its own removal scenario, so the curve rows are
true equilibria of the joint removal, not sums of single-firm effects;
cumulative CO2 savings count eliminated emissions including the partial
reductions of firms that are hit but not removed.  The benchmark is the
first prefix whose cumulative savings reach the target share.

run_heuristic is the path from an index table to a curve: rank_firms
orders the candidates and run_strategy evaluates the prefixes of a
(possibly caller-supplied) ordering, the one-firm prefix included, in one
indices.evaluate_scenarios call.  run_heuristics builds several
heuristics' curves from one such call over the distinct prefixes of all
their orderings, keyed by removed set.
"""
from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .calibration import ProductionFunctionSet
from .indices import IndexTable, ScenarioResult, _log_capped, evaluate_scenarios, resolve_total_co2
from .network import ProductionNetwork
from .propagation import DEFAULT_MAX_ITER, DEFAULT_TOL, _firm_ids

log = logging.getLogger(__name__)


class InsufficientPoints(Exception):
    """A ratio regime holds fewer points than a line fit needs."""


class Heuristic(enum.Enum):
    """Removal orderings over the candidate set."""

    LARGEST_EMITTERS_FIRST = "emitters"
    LEAST_RISKY_FIRST = "risk"
    OPTIMAL_RATIO = "ratio"


def rank_firms(table: IndexTable, heuristic: Heuristic | str) -> list[str]:
    """Candidate ids in removal order by a Heuristic or its value; ties break by co2 desc, then id asc."""
    key = {
        Heuristic.LARGEST_EMITTERS_FIRST: lambda r: (-r.co2_share_total, r.firm_id),
        Heuristic.LEAST_RISKY_FIRST: lambda r: (r.ew_esri, -r.co2_share_total, r.firm_id),
        # ratio descending, +inf above all finite values
        Heuristic.OPTIMAL_RATIO: lambda r: (
            not math.isinf(r.ratio),
            -r.ratio if math.isfinite(r.ratio) else 0.0,
            -r.co2_share_total,
            r.firm_id,
        ),
    }[Heuristic(heuristic)]
    return [r.firm_id for r in sorted(table.rows, key=key)]


@dataclass(frozen=True)
class CurvePoint:
    rank: int  # also the number of firms removed so far
    firm_id: str
    cum_co2_saved: float  # share of the economy-wide total
    cum_job_loss: float  # ew_esri of the prefix removal


@dataclass(frozen=True)
class StrategyCurve:
    target: float
    points: tuple[CurvePoint, ...]
    benchmark_rank: int | None  # 0 = target met before any removal
    heuristic: Heuristic | None = None  # None for a caller-supplied ordering

    @property
    def benchmark_point(self) -> CurvePoint | None:
        if self.benchmark_rank is None or self.benchmark_rank == 0:
            return None
        return self.points[self.benchmark_rank - 1]

    def summary(self) -> dict:
        point = self.benchmark_point
        return {
            "heuristic": self.heuristic.value if self.heuristic else "custom",
            "target": self.target,
            "benchmark_rank": self.benchmark_rank,
            "co2_reduction": point.cum_co2_saved if point else 0.0,
            "expected_job_loss": point.cum_job_loss if point else 0.0,
            "firms_removed": point.rank if point else 0,
            "target_reached": self.benchmark_rank is not None,
        }


def _curve(
    ordering: Sequence[str],
    results: Iterable[ScenarioResult],
    target: float,
    total: float,
    heuristic: Heuristic | None,
) -> StrategyCurve:
    """The curve along the ordering from its prefixes' results, in order; logs
    capped prefixes and an unreachable target."""
    points: list[CurvePoint] = []
    not_converged: list[str] = []
    benchmark: int | None = 0 if target == 0.0 else None
    for rank, (fid, (_, ew, elim, _, converged)) in enumerate(zip(ordering, results), start=1):
        if not converged:
            not_converged.append(f"rank {rank} ({fid})")
        saved = elim / total
        points.append(CurvePoint(rank=rank, firm_id=fid, cum_co2_saved=saved, cum_job_loss=ew))
        # float-noise guard on the threshold comparison only
        if benchmark is None and saved >= target - 1e-12:
            benchmark = rank
    _log_capped(log, "curve prefix(es)", not_converged)
    if benchmark is None:
        achieved = points[-1].cum_co2_saved if points else 0.0
        log.warning(
            "TargetUnreachable: target %.4f exceeds achievable savings %.4f; "
            "curve returned without a benchmark",
            target,
            achieved,
        )
    return StrategyCurve(
        target=target, points=tuple(points), benchmark_rank=benchmark, heuristic=heuristic
    )


def _curves(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    orderings: list[Sequence[str]],
    heuristics: list[Heuristic | str | None],
    target: float,
    workers: int | None,
    total_co2: float | None,
    tol: float,
    max_iter: int,
) -> list[StrategyCurve]:
    """The curve along each ordering, every curve from one batch of prefixes.

    Prefixes are keyed by their removed set, which is also their scenario,
    so one that several orderings share is solved once.  All the distinct
    prefixes, one-firm ones included, go through one evaluate_scenarios call.
    """
    if not target >= 0.0:
        raise ValueError(f"target must be non-negative, got {target}")
    heuristics = [None if h is None else Heuristic(h) for h in heuristics]
    prefixes = [list(accumulate((frozenset((fid,)) for fid in o), frozenset.union)) for o in orderings]
    if any(keys and len(keys[-1]) != len(o) for o, keys in zip(orderings, prefixes)):
        raise ValueError("removal ordering contains duplicate firm ids")
    total = resolve_total_co2(net, total_co2)
    distinct = list(dict.fromkeys(key for keys in prefixes for key in keys))
    solved = dict(
        zip(distinct, evaluate_scenarios(net, pf, distinct, workers=workers, tol=tol, max_iter=max_iter))
    )
    return [
        _curve(o, [solved[key] for key in keys], target, total, h)
        for o, keys, h in zip(orderings, prefixes, heuristics)
    ]


def run_strategy(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    ordering: Iterable[str],
    target: float,
    workers: int | None = None,
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    heuristic: Heuristic | str | None = None,
) -> StrategyCurve:
    """Cumulative savings/job-loss curve along a removal ordering.

    The ordering may be any iterable, read once; a lone string is one id.
    target is a share of the economy-wide CO2 total.  If even the full
    ordering stays below it, the curve is returned with benchmark_rank None
    (logged, not raised).
    """
    [curve] = _curves(net, pf, [_firm_ids(ordering)], [heuristic], target, workers, total_co2, tol, max_iter)
    return curve


def run_heuristic(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    table: IndexTable,
    heuristic: Heuristic | str,
    target: float,
    workers: int | None = None,
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> StrategyCurve:
    """Rank candidates by the heuristic, a Heuristic or its value, and evaluate the removal curve."""
    ordering = rank_firms(table, heuristic)
    return run_strategy(
        net, pf, ordering, target,
        workers=workers, total_co2=total_co2, tol=tol, max_iter=max_iter, heuristic=heuristic,
    )


def run_heuristics(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    table: IndexTable,
    heuristics: Iterable[Heuristic | str],
    target: float,
    workers: int | None = None,
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[StrategyCurve]:
    """run_heuristic's curve for each heuristic, in the order given.

    The distinct prefixes of all the orderings are evaluated together in
    one evaluate_scenarios call, so a prefix that several curves share is
    solved once.  Each curve equals run_heuristic's.
    """
    heuristics = list(heuristics)
    orderings = [rank_firms(table, h) for h in heuristics]
    return _curves(net, pf, orderings, heuristics, target, workers, total_co2, tol, max_iter)


# -- rank-regime fit --------------------------------------------------------------


@dataclass(frozen=True)
class RegimeFit:
    lambda1: float
    lambda2: float
    r2_1: float
    r2_2: float
    n1: int
    n2: int


def _line_fit(ranks: np.ndarray, log_values: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(ranks, log_values, 1)
    fitted = slope * ranks + intercept
    ss_res = float(np.sum((log_values - fitted) ** 2))
    ss_tot = float(np.sum((log_values - log_values.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def fit_rank_regimes(
    ratios: Sequence[float], hi: float = 1000.0, lo: float = 10.0
) -> RegimeFit:
    """Exponential decay constants of log(ratio) vs rank in two regimes.

    Ratios are sorted descending and ranked 1..n; regime 1 covers
    ratio > hi, regime 2 covers lo < ratio <= hi.  Each regime needs at
    least 3 points.
    """
    if hi <= lo:
        raise ValueError(f"regime thresholds must satisfy hi > lo, got hi={hi}, lo={lo}")
    values = np.asarray(sorted(ratios, reverse=True), dtype=float)
    if values.size and (not np.all(np.isfinite(values)) or values.min() <= 0.0):
        raise ValueError("ratios must be positive finite values")
    ranks = np.arange(1, values.size + 1, dtype=float)

    mask1 = values > hi
    mask2 = (values > lo) & (values <= hi)
    if mask1.sum() < 3:
        raise InsufficientPoints(f"regime 1 (ratio > {hi:g}) has {int(mask1.sum())} point(s), need 3")
    if mask2.sum() < 3:
        raise InsufficientPoints(
            f"regime 2 ({lo:g} < ratio <= {hi:g}) has {int(mask2.sum())} point(s), need 3"
        )
    lambda1, r2_1 = _line_fit(ranks[mask1], np.log(values[mask1]))
    lambda2, r2_2 = _line_fit(ranks[mask2], np.log(values[mask2]))
    return RegimeFit(
        lambda1=lambda1, lambda2=lambda2, r2_1=r2_1, r2_2=r2_2,
        n1=int(mask1.sum()), n2=int(mask2.sum()),
    )
