"""Two-channel shock propagation to a production equilibrium.

Removing a firm cuts both its supply and its demand.  Supply losses
travel downstream: each firm re-evaluates its production function at its
suppliers' downstream levels h_d.  Demand losses travel upstream: each
firm's upstream level h_u is the out-strength-weighted average of its
customers' h_u.  The two channels iterate synchronously and
independently from an all-ones state with removed firms clamped to 0;
the reported production level of a firm is h = min(h_d, h_u).

Both channel maps are monotone and start at a state they map downward,
so levels descend pointwise and the iteration always converges; the loop
stops once the sup-norm step change falls below tol.

The state is one stacked vector x = [h_d; h_u] of length 2n, and a step
is two sparse products.  The downstream operator D multiplies h_d; its
rows are the essential groups in slot order (first the first group of
every firm that has one, then the second group of every firm with at
least two, and so on), followed by one non-essential average per firm
that has non-essential inputs.  The per-firm group minimum is then one
scatter of slot 0 and an elementwise minimum per further slot, and the
non-essential term reads a contiguous slice of D @ h_d.  The upstream
operator U multiplies h_u.  Removed firms and firms without customers
are integer index arrays into x.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .calibration import ProductionFunctionSet
from .network import ProductionNetwork, compute_strengths

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 1000


class InvalidScenario(Exception):
    """Scenario references firm ids that are not in the network."""


@dataclass(frozen=True)
class ShockScenario:
    """Set of firms removed from the network at the start of the shock."""

    removed: frozenset[str]

    def __init__(self, removed: Iterable[str] = ()):
        object.__setattr__(self, "removed", frozenset(removed))

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.removed))

    def __len__(self) -> int:
        return len(self.removed)


@dataclass(frozen=True)
class LevelState:
    """Production levels at one iteration, aligned with the firm order."""

    ids: tuple[str, ...]
    h_d: np.ndarray
    h_u: np.ndarray

    @property
    def h(self) -> np.ndarray:
        return np.minimum(self.h_d, self.h_u)


@dataclass(frozen=True)
class EquilibriumState:
    """Converged (or iteration-capped) levels plus iteration metadata."""

    ids: tuple[str, ...]
    h_d: np.ndarray
    h_u: np.ndarray
    h: np.ndarray
    iterations: int
    max_delta: float
    converged: bool

    def of(self, firm_id: str) -> float:
        return float(self.h[self.ids.index(firm_id)])


# -- vectorized operators ------------------------------------------------------


class _Operators:
    """The one Jacobi step, compiled from a calibrated model.

    The step maps a stacked state x = [h_d; h_u] (length 2n) to the next
    one with two sparse products: the downstream operator D on h_d and the
    upstream operator U on h_u.
    """

    def __init__(self, net: ProductionNetwork, pf: ProductionFunctionSet):
        n = net.n_firms
        self.n = n
        self.gamma = pf.gamma

        # D's rows: essential group availabilities sum_k(w_k * h_d[supplier_k]) / W_g
        # in slot order (slot k holds the k-th group of every firm that has more
        # than k, firms ascending), then the non-essential averages
        # nu_i = sum_k(w_k * h_d[supplier_k]) / W_i of the has_ne firms
        owner = pf.es_group_owner
        n_groups = owner.size
        slot = np.arange(n_groups) - pf.firm_group_ptr[owner]
        order = np.argsort(slot, kind="stable")
        group_row = np.empty(n_groups, dtype=np.int32)
        group_row[order] = np.arange(n_groups, dtype=np.int32)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(slot)))).tolist()
        self.slots = [(owner[order[lo:hi]], lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.ne_firms = np.flatnonzero(pf.has_ne)
        self.ne_rows = slice(n_groups, n_groups + self.ne_firms.size)
        ne_row = (np.cumsum(pf.has_ne, dtype=np.int32) - 1) + np.int32(n_groups)

        edge_group = np.repeat(np.arange(n_groups), np.diff(pf.es_group_ptr))
        rows = np.concatenate((group_row[edge_group], ne_row[pf.ne_buyer]))
        cols = np.concatenate((pf.es_supplier, pf.ne_supplier), dtype=np.int32)
        data = np.concatenate(
            (
                pf.es_weight / pf.es_group_weight[edge_group],
                pf.ne_weight / pf.ne_firm_weight[pf.ne_buyer],
            )
        )
        self.D = sp.csr_matrix((data, (rows, cols)), shape=(n_groups + self.ne_firms.size, n))
        del edge_group, rows, cols, data  # keeps the compile's peak memory down

        # upstream average: h_u_i = sum_j(W_ij * h_u[customer_j]) / s_out_i
        s_out = compute_strengths(net).s_out
        self.U = sp.csr_matrix(
            (net.weights / s_out[net.supplier_idx], (net.supplier_idx, net.buyer_idx)),
            shape=(n, n),
        )
        # positions of h_u that stay at 1: firms without customers
        self.no_customers = np.flatnonzero(~(s_out > 0.0)) + n

    def step(self, x: np.ndarray, removed: np.ndarray, out: np.ndarray) -> None:
        """One synchronous update of the stacked state x into out.

        removed holds the stacked positions of the removed firms (from
        _removed_index); they stay clamped at 0.
        """
        n = self.n
        avail = self.D @ x[:n]
        new_d = out[:n]
        new_d.fill(1.0)
        for k, (firms, lo, hi) in enumerate(self.slots):
            new_d[firms] = avail[lo:hi] if k == 0 else np.minimum(new_d[firms], avail[lo:hi])
        # gamma + (1 - gamma) * nu, in place; + and * commute exactly
        ne_term = avail[self.ne_rows]
        ne_term *= 1.0 - self.gamma
        ne_term += self.gamma
        np.minimum(new_d[self.ne_firms], ne_term, out=ne_term)
        new_d[self.ne_firms] = ne_term

        out[n:] = self.U @ x[n:]
        # row sums of D and U are 1 only up to rounding; keep levels in [0, 1]
        np.clip(out, 0.0, 1.0, out=out)
        out[self.no_customers] = 1.0
        out[removed] = 0.0


def _operators(net: ProductionNetwork, pf: ProductionFunctionSet) -> _Operators:
    if pf.net is not net:
        raise ValueError("production functions were calibrated for a different network")
    if pf._ops is None:
        pf._ops = _Operators(net, pf)
    return pf._ops


def _removed_index(net: ProductionNetwork, scenario: ShockScenario) -> np.ndarray:
    """Positions of the removed firms in the stacked state [h_d; h_u]."""
    unknown = [fid for fid in scenario.removed if fid not in net]
    if unknown:
        raise InvalidScenario(f"unknown firm id(s) in scenario: {', '.join(sorted(unknown))}")
    idx = np.fromiter(map(net.index_of, scenario.removed), dtype=np.int64, count=len(scenario))
    return np.concatenate((idx, idx + net.n_firms))


def _shocked_ones(net: ProductionNetwork, removed: np.ndarray) -> np.ndarray:
    x = np.ones(2 * net.n_firms)
    x[removed] = 0.0
    return x


def as_scenario(scenario: ShockScenario | Iterable[str]) -> ShockScenario:
    if isinstance(scenario, ShockScenario):
        return scenario
    if isinstance(scenario, str):  # a lone firm id, not an iterable of characters
        return ShockScenario([scenario])
    return ShockScenario(scenario)


# -- public operations ---------------------------------------------------------


def production_step(
    state: LevelState,
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
) -> LevelState:
    """One synchronous update of the given state under the scenario."""
    ops = _operators(net, pf)
    removed = _removed_index(net, as_scenario(scenario))
    x = np.concatenate((np.asarray(state.h_d, dtype=float), np.asarray(state.h_u, dtype=float)))
    x[removed] = 0.0
    out = np.empty_like(x)
    ops.step(x, removed, out)
    n = net.n_firms
    return LevelState(ids=net.ids, h_d=out[:n], h_u=out[n:])


def initial_state(net: ProductionNetwork, scenario: ShockScenario | Iterable[str]) -> LevelState:
    """All firms at full production except removed ones clamped to 0."""
    x = _shocked_ones(net, _removed_index(net, as_scenario(scenario)))
    n = net.n_firms
    return LevelState(ids=net.ids, h_d=x[:n], h_u=x[n:])


def propagate(
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumState:
    """Iterate both channels from the shocked all-ones state to a fixed point.

    Returns the equilibrium with iterations = number of synchronous steps
    performed and max_delta = sup-norm change of the final step.  If tol
    is not reached within max_iter steps, converged is False and the
    last state is returned; levels are still valid bounds.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    ops = _operators(net, pf)
    removed = _removed_index(net, as_scenario(scenario))
    x = _shocked_ones(net, removed)
    out = np.empty_like(x)

    iterations = 0
    max_delta = np.inf
    converged = False
    while iterations < max_iter:
        ops.step(x, removed, out)
        iterations += 1
        # the old state is spent: it takes the step change, then the next step
        np.subtract(out, x, out=x)
        max_delta = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
        x, out = out, x
        if max_delta <= tol:
            converged = True
            break

    n = net.n_firms
    h_d, h_u = x[:n], x[n:]
    return EquilibriumState(
        ids=net.ids,
        h_d=h_d,
        h_u=h_u,
        h=np.minimum(h_d, h_u),
        iterations=iterations,
        max_delta=max_delta,
        converged=converged,
    )
