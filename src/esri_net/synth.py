"""Seeded synthetic production networks with heavy-tailed structure.

Degrees follow a power law with the configured exponent: per-firm
Pareto propensities are turned into exact in/out degree totals by a
multinomial split of the edge budget, then out-stubs are matched to
permuted in-stubs in rejection rounds that drop self-loops and parallel
edges.  Edge weights and employment are lognormal for every firm;
emissions are lognormal on a randomly chosen ETS-like subset, so
emission size is independent of network position by construction.

Every sampling stage draws from its own child stream of the seed, so a
given seed reproduces the same network bit for bit regardless of which
other stages run.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .calibration import ESSENTIAL_SUPPLIER_LETTERS, ESSENTIALITY_COLUMNS
from .network import FirmTable, ProductionNetwork, _write_csv, compute_strengths

log = logging.getLogger(__name__)

DEFAULT_SECTOR_WEIGHTS: Mapping[str, float] = {
    "A": 0.05, "B": 0.01, "C": 0.22, "D": 0.02, "E": 0.02, "F": 0.12,
    "G": 0.24, "H": 0.07, "I": 0.05, "J": 0.04, "M": 0.09, "N": 0.07,
}

# child-stream indices, one per sampling stage
_STAGE_SECTORS = 0
_STAGE_DEGREES = 1
_STAGE_WIRING = 2
_STAGE_WEIGHTS = 3
_STAGE_EMPLOYMENT = 4
_STAGE_EMISSIONS = 5

_MAX_WIRING_ROUNDS = 30


class InfeasibleParams(Exception):
    """Generator parameters admit no valid network."""


@dataclass(frozen=True)
class SynthParams:
    n_firms: int
    n_edges: int
    degree_exponent: float = 2.5
    sector_weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_SECTOR_WEIGHTS))
    employment_lognormal: tuple[float, float] = (1.5, 1.2)
    emission_lognormal: tuple[float, float] = (10.0, 2.0)
    weight_lognormal: tuple[float, float] = (0.0, 1.0)
    n_ets: int = 0
    seed: int = 0


def _check(params: SynthParams) -> None:
    """Reject parameters that admit no valid network; the float tests are NaN-safe."""
    p = params
    if p.n_firms < 1:
        raise InfeasibleParams(f"n_firms must be at least 1, got {p.n_firms}")
    if p.n_edges < 0 or p.n_edges > p.n_firms * (p.n_firms - 1):
        raise InfeasibleParams(
            f"n_edges={p.n_edges} outside [0, n*(n-1)] for n={p.n_firms} simple digraph"
        )
    if not 0 <= p.n_ets <= p.n_firms:
        raise InfeasibleParams(f"n_ets={p.n_ets} outside [0, {p.n_firms}]")
    if not 1.0 < p.degree_exponent < math.inf:
        raise InfeasibleParams(f"degree_exponent must be finite and > 1, got {p.degree_exponent}")
    if p.seed < 0:
        raise InfeasibleParams(f"seed must be non-negative, got {p.seed}")
    weights = p.sector_weights.values()
    if not (all(0.0 <= w < math.inf for w in weights) and sum(weights) > 0.0):
        raise InfeasibleParams("sector_weights must be finite, non-negative, of positive mass")
    for name, (mu, sigma) in (
        ("employment_lognormal", p.employment_lognormal),
        ("emission_lognormal", p.emission_lognormal),
        ("weight_lognormal", p.weight_lognormal),
    ):
        if not (math.isfinite(mu) and 0.0 <= sigma < math.inf):
            raise InfeasibleParams(f"{name} needs finite mu and sigma >= 0, got ({mu}, {sigma})")


def _stream(params: SynthParams, stage: int) -> np.random.Generator:
    return np.random.default_rng([params.seed, stage])


def _degree_totals(params: SynthParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # Pareto propensities with tail index (exponent - 1) give degree
    # counts whose distribution decays with the requested exponent.
    n = params.n_firms
    tail = params.degree_exponent - 1.0
    out_prop = 1.0 + rng.pareto(tail, size=n)
    in_prop = 1.0 + rng.pareto(tail, size=n)
    d_out = rng.multinomial(params.n_edges, out_prop / out_prop.sum())
    d_in = rng.multinomial(params.n_edges, in_prop / in_prop.sum())
    return d_out.astype(np.int64), d_in.astype(np.int64)


def _wire(
    n: int, d_out: np.ndarray, d_in: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Match out-stubs to in-stubs, rejecting self-loops and repeats."""
    out_rem = np.repeat(np.arange(n, dtype=np.int64), d_out)
    in_rem = np.repeat(np.arange(n, dtype=np.int64), d_in)
    accepted = np.empty(0, dtype=np.int64)  # kept sorted: canonical edge order
    for _ in range(_MAX_WIRING_ROUNDS):
        if out_rem.size == 0:
            break
        in_rem = in_rem[rng.permutation(in_rem.size)]
        key = out_rem * n + in_rem
        keep = out_rem != in_rem
        first = np.zeros(key.size, dtype=bool)
        first[np.unique(key, return_index=True)[1]] = True
        keep &= first
        if accepted.size:
            pos = np.minimum(np.searchsorted(accepted, key), accepted.size - 1)
            keep &= accepted[pos] != key
        accepted = np.sort(np.concatenate([accepted, key[keep]]))
        out_rem = out_rem[~keep]
        in_rem = in_rem[~keep]
    if out_rem.size:
        log.info("dropped %d unmatchable stub pair(s) during wiring", out_rem.size)
    return accepted // n, accepted % n


def generate(params: SynthParams) -> ProductionNetwork:
    """Sample a network from the parameters."""
    _check(params)
    n = params.n_firms
    letters = sorted(params.sector_weights)
    probs = np.array([params.sector_weights[s] for s in letters], dtype=float)
    probs /= probs.sum()
    sectors = _stream(params, _STAGE_SECTORS).choice(letters, size=n, p=probs)

    d_out, d_in = _degree_totals(params, _stream(params, _STAGE_DEGREES))
    sup, buy = _wire(n, d_out, d_in, _stream(params, _STAGE_WIRING))

    mu_w, sigma_w = params.weight_lognormal
    weights = _stream(params, _STAGE_WEIGHTS).lognormal(mu_w, sigma_w, size=sup.size)

    mu_e, sigma_e = params.employment_lognormal
    employees = np.maximum(
        1, np.round(_stream(params, _STAGE_EMPLOYMENT).lognormal(mu_e, sigma_e, size=n))
    ).astype(np.int64)

    co2 = np.full(n, np.nan)
    ets = np.zeros(n, dtype=bool)
    if params.n_ets:
        rng = _stream(params, _STAGE_EMISSIONS)
        chosen = np.sort(rng.choice(n, size=params.n_ets, replace=False))
        mu_c, sigma_c = params.emission_lognormal
        co2[chosen] = rng.lognormal(mu_c, sigma_c, size=params.n_ets)
        ets[chosen] = True

    width = len(str(n))
    index = {f"F{k + 1:0{width}d}": k for k in range(n)}
    table = FirmTable.build(index, sectors.tolist(), employees, co2, ets)
    return ProductionNetwork.from_arrays(table, sup, buy, weights)


# -- file output and diagnostics -----------------------------------------------


def essentiality_rows(net: ProductionNetwork) -> list[tuple[str, str, int]]:
    """Observed sector pairs classified by the default supplier-letter rule."""
    names, codes = net.table.sector_names, net.table.sector_code
    # codes follow the sorted names, so sorted code pairs are sorted name pairs
    keys = np.unique(codes[net.supplier_idx] * len(names) + codes[net.buyer_idx]).tolist()
    return [
        (names[s], names[b], int(names[s][:1] in ESSENTIAL_SUPPLIER_LETTERS))
        for s, b in (divmod(key, len(names)) for key in keys)
    ]


def write_essentiality(rows: list[tuple[str, str, int]], path: str | Path) -> None:
    _write_csv(path, ESSENTIALITY_COLUMNS, rows)


def top_strength_share(net: ProductionNetwork, fraction: float = 0.01) -> float:
    """Share of total strength held by the top `fraction` of firms."""
    s = np.sort(compute_strengths(net).s_total)[::-1]
    total = float(s.sum())
    if total <= 0.0:
        return 0.0
    k = max(1, int(np.ceil(fraction * s.size)))
    return float(s[:k].sum()) / total


def tail_exponent_estimate(values: np.ndarray, top_fraction: float = 0.1) -> float:
    """Power-law exponent from the Zipf-plot slope of the top tail."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    v = v[v > 0.0]
    k = max(10, int(v.size * top_fraction))
    k = min(k, v.size)
    if k < 3:
        raise ValueError("too few positive values for a tail estimate")
    ranks = np.arange(1, k + 1, dtype=float)
    slope = np.polyfit(np.log(ranks), np.log(v[:k]), 1)[0]
    if slope >= 0.0:
        raise ValueError("tail is not decaying; no power-law exponent")
    return 1.0 - 1.0 / slope
