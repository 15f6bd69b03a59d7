"""Decarbonization strategies: removal orderings, cumulative curves, regime fits.

A strategy fixes a static removal ordering over the candidate firms from
their single-firm index table, then removes growing prefixes of that
ordering.  Each prefix is propagated from scratch, so the curve rows are
true equilibria of the joint removal, not sums of single-firm effects;
cumulative CO2 savings count eliminated emissions including the partial
reductions of firms that are hit but not removed.  The benchmark is the
first prefix whose cumulative savings reach the target share.

run_heuristic is the path from an index table to a curve: rank_firms
orders the candidates and run_strategy evaluates the prefixes of a
(possibly caller-supplied) ordering through indices.evaluate_scenarios.
"""
from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import ProductionFunctionSet
from .indices import IndexTable, evaluate_scenarios, resolve_total_co2
from .network import ProductionNetwork
from .propagation import DEFAULT_MAX_ITER, DEFAULT_TOL

log = logging.getLogger(__name__)


class InsufficientPoints(Exception):
    """A ratio regime holds fewer points than a line fit needs."""


class Heuristic(enum.Enum):
    """Removal orderings over the candidate set."""

    LARGEST_EMITTERS_FIRST = "emitters"
    LEAST_RISKY_FIRST = "risk"
    OPTIMAL_RATIO = "ratio"


def rank_firms(table: IndexTable, heuristic: Heuristic) -> list[str]:
    """Candidate ids in removal order; ties break by co2 desc, then id asc."""
    if heuristic is Heuristic.LARGEST_EMITTERS_FIRST:
        key = lambda r: (-r.co2_share_total, r.firm_id)
    elif heuristic is Heuristic.LEAST_RISKY_FIRST:
        key = lambda r: (r.ew_esri, -r.co2_share_total, r.firm_id)
    else:  # ratio descending, +inf above all finite values
        key = lambda r: (
            not math.isinf(r.ratio),
            -r.ratio if math.isfinite(r.ratio) else 0.0,
            -r.co2_share_total,
            r.firm_id,
        )
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


def run_strategy(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    ordering: Sequence[str],
    target: float,
    workers: int | None = None,
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    heuristic: Heuristic | None = None,
) -> StrategyCurve:
    """Cumulative savings/job-loss curve along a removal ordering.

    target is a share of the economy-wide CO2 total.  If even the full
    ordering stays below it, the curve is returned with benchmark_rank
    None (logged, not raised).
    """
    if not target >= 0.0:
        raise ValueError(f"target must be non-negative, got {target}")
    if len(set(ordering)) != len(ordering):
        raise ValueError("removal ordering contains duplicate firm ids")
    total = resolve_total_co2(net, total_co2)

    prefixes = [tuple(ordering[: k + 1]) for k in range(len(ordering))]
    results = evaluate_scenarios(net, pf, prefixes, workers=workers, tol=tol, max_iter=max_iter)

    points: list[CurvePoint] = []
    benchmark: int | None = 0 if target == 0.0 else None
    for rank, (fid, (_, ew, elim, _, _)) in enumerate(zip(ordering, results), start=1):
        saved = elim / total
        points.append(CurvePoint(rank=rank, firm_id=fid, cum_co2_saved=saved, cum_job_loss=ew))
        # float-noise guard on the threshold comparison only
        if benchmark is None and saved >= target - 1e-12:
            benchmark = rank
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


def run_heuristic(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    table: IndexTable,
    heuristic: Heuristic,
    target: float,
    workers: int | None = None,
    total_co2: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> StrategyCurve:
    """Rank candidates with the heuristic and evaluate the removal curve."""
    ordering = rank_firms(table, heuristic)
    return run_strategy(
        net, pf, ordering, target,
        workers=workers, total_co2=total_co2, tol=tol, max_iter=max_iter,
        heuristic=heuristic,
    )


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
