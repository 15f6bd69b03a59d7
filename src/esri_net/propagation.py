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
    """Sparse one-step update operators compiled from a calibrated model."""

    def __init__(self, net: ProductionNetwork, pf: ProductionFunctionSet):
        n = net.n_firms
        self.n = n
        self.gamma = pf.gamma

        # essential groups: availability_g = sum_k(w_k * h_d[supplier_k]) / W_g
        n_groups = pf.es_group_owner.size
        if n_groups:
            rows = np.repeat(np.arange(n_groups), np.diff(pf.es_group_ptr))
            data = pf.es_weight / pf.es_group_weight[rows]
            self.E = sp.csr_matrix((data, (rows, pf.es_supplier)), shape=(n_groups, n))
        else:
            self.E = None
        self.has_groups = np.diff(pf.firm_group_ptr) > 0
        self.group_firms = np.flatnonzero(self.has_groups)
        self.group_starts = pf.firm_group_ptr[self.group_firms]

        # non-essential average: nu_i = sum_k(w_k * h_d[supplier_k]) / W_i
        if pf.ne_supplier.size:
            data = pf.ne_weight / pf.ne_firm_weight[pf.ne_buyer]
            self.N = sp.csr_matrix((data, (pf.ne_buyer, pf.ne_supplier)), shape=(n, n))
        else:
            self.N = None
        self.has_ne = pf.has_ne

        # upstream average: h_u_i = sum_j(W_ij * h_u[customer_j]) / s_out_i
        s_out = compute_strengths(net).s_out
        sellers = s_out > 0.0
        if net.n_edges:
            data = net.weights / s_out[net.supplier_idx]
            self.U = sp.csr_matrix(
                (data, (net.supplier_idx, net.buyer_idx)), shape=(n, n)
            )
        else:
            self.U = None
        self.no_customers = ~sellers

    def step(
        self, h_d: np.ndarray, h_u: np.ndarray, removed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous update of both channels; removed stays clamped."""
        new_d = np.ones(self.n)
        if self.E is not None:
            avail = self.E @ h_d
            new_d[self.group_firms] = np.minimum.reduceat(avail, self.group_starts)
        if self.N is not None:
            nu = self.N @ h_d
            ne_term = self.gamma + (1.0 - self.gamma) * nu[self.has_ne]
            np.minimum(new_d[self.has_ne], ne_term, out=ne_term)
            new_d[self.has_ne] = ne_term
        np.clip(new_d, 0.0, 1.0, out=new_d)
        new_d[removed] = 0.0

        if self.U is not None:
            new_u = self.U @ h_u
            # row sums of U are 1 only up to rounding; keep levels in [0, 1]
            np.clip(new_u, 0.0, 1.0, out=new_u)
            new_u[self.no_customers] = 1.0
        else:
            new_u = np.ones(self.n)
        new_u[removed] = 0.0
        return new_d, new_u


def _operators(net: ProductionNetwork, pf: ProductionFunctionSet) -> _Operators:
    if pf.net is not net:
        raise ValueError("production functions were calibrated for a different network")
    if pf._ops is None:
        pf._ops = _Operators(net, pf)
    return pf._ops


def _removed_mask(net: ProductionNetwork, scenario: ShockScenario) -> np.ndarray:
    unknown = [fid for fid in scenario.removed if fid not in net]
    if unknown:
        raise InvalidScenario(f"unknown firm id(s) in scenario: {', '.join(sorted(unknown))}")
    mask = np.zeros(net.n_firms, dtype=bool)
    for fid in scenario.removed:
        mask[net.index_of(fid)] = True
    return mask


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
    removed = _removed_mask(net, as_scenario(scenario))
    h_d = np.where(removed, 0.0, np.asarray(state.h_d, dtype=float))
    h_u = np.where(removed, 0.0, np.asarray(state.h_u, dtype=float))
    new_d, new_u = ops.step(h_d, h_u, removed)
    return LevelState(ids=net.ids, h_d=new_d, h_u=new_u)


def initial_state(net: ProductionNetwork, scenario: ShockScenario | Iterable[str]) -> LevelState:
    """All firms at full production except removed ones clamped to 0."""
    removed = _removed_mask(net, as_scenario(scenario))
    ones = np.ones(net.n_firms)
    return LevelState(
        ids=net.ids, h_d=np.where(removed, 0.0, ones), h_u=np.where(removed, 0.0, ones)
    )


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
    removed = _removed_mask(net, as_scenario(scenario))
    h_d = np.where(removed, 0.0, np.ones(net.n_firms))
    h_u = h_d.copy()

    iterations = 0
    max_delta = np.inf
    converged = False
    while iterations < max_iter:
        new_d, new_u = ops.step(h_d, h_u, removed)
        iterations += 1
        max_delta = max(
            float(np.max(np.abs(new_d - h_d), initial=0.0)),
            float(np.max(np.abs(new_u - h_u), initial=0.0)),
        )
        h_d, h_u = new_d, new_u
        if max_delta <= tol:
            converged = True
            break

    return EquilibriumState(
        ids=net.ids,
        h_d=h_d,
        h_u=h_u,
        h=np.minimum(h_d, h_u),
        iterations=iterations,
        max_delta=max_delta,
        converged=converged,
    )
