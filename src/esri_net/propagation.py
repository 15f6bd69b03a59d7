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
stops once the sup-norm step change of both channels together falls below
tol.  Each channel's map reads only that channel's levels, so a channel
whose step leaves its levels unchanged bit for bit has reached its fixed
point and stops stepping, its change counting as 0 from then on.

A step is one sparse product per channel.  The engine keeps its own
firm order in each channel, computed once at compile, and holds each
channel's levels in that order.  A column enters a channel's block with
its start levels (all ones for propagate, the given state for
production_step, one step of a one-column block) scattered into that
order, removed firms at 0, and leaves in firm order on exit.
Downstream, firms are sorted by class, [0 groups, 1 group, ...,
G groups] without non-essential inputs, then [G, ..., 1, 0 groups] with
them, so the firms with more than k essential groups and the firms with
non-essential inputs each form one range.  The downstream operator D
multiplies h_d; its rows are the essential groups in slot order (first
the first group of every firm that has one, then the second group of
every firm with at least two, and so on), followed by one non-essential
average per firm that has non-essential inputs.  The per-firm group
minimum is then one slice copy for slot 0 and an in-place minimum on a
slice per further slot, and the non-essential term is one more.
Upstream, firms with customers come first; U multiplies h_u and the
firms without customers are the tail, filled with 1.

Results are bit-identical to the same step in firm order because every
row of D and U sums its terms in ascending firm order: both are built as
canonical CSR with firm-order columns, which are then renamed in place
and never sorted again.

One _Engine per calibration, built on first use and cached on it, holds
what a scenario's solve reads; propagate is its block loop with one
column.  How the loop steps many scenarios as the columns of one block,
and why each equilibrium is the same bits at any width, is stated once,
in _Engine.solve and _Columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

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
    """Set of firms removed from the network at the start of the shock; a
    lone string is one firm id, not an iterable of characters."""

    removed: frozenset[str]

    def __init__(self, removed: Iterable[str] = ()):
        object.__setattr__(self, "removed", frozenset(_firm_ids(removed)))

    def __len__(self) -> int:
        return len(self.removed)


@dataclass(frozen=True)
class LevelState:
    """Production levels at one iteration, aligned with the firm order."""

    ids: tuple[str, ...]
    h_d: np.ndarray
    h_u: np.ndarray

    @cached_property
    def h(self) -> np.ndarray:
        return np.minimum(self.h_d, self.h_u)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {fid: pos for pos, fid in enumerate(self.ids)}

    def of(self, firm_id: str) -> float:
        try:
            return float(self.h[self._position[firm_id]])
        except KeyError:
            raise ValueError(f"unknown firm id {firm_id!r}") from None


@dataclass(frozen=True)
class EquilibriumState(LevelState):
    """Converged (or iteration-capped) levels plus iteration metadata.

    iterations_d and iterations_u are the first step at which the
    downstream (supply) and the upstream (demand) channel's own sup-norm
    change was at most tol, None if it never was within the run.
    """

    iterations: int
    max_delta: float
    converged: bool
    iterations_d: int | None
    iterations_u: int | None


# One scenario's score: (esri, ew_esri, eliminated_co2, iterations, converged).
ScenarioResult = tuple[float, float, float, int, bool]


# -- the engine ------------------------------------------------------------------


def _new_of_old(key: np.ndarray) -> np.ndarray:
    """Engine position of every firm: firms sorted by key, ties in firm order."""
    order = np.argsort(key, kind="stable")
    pos = np.empty(key.size, dtype=np.int32)
    pos[order] = np.arange(key.size, dtype=np.int32)
    return pos


def _renamed(m: sp.csr_matrix, pos: np.ndarray) -> sp.csr_matrix:
    """m with column j renamed pos[j], each row's entries left in their order.

    m is canonical, so a row sums its terms in ascending firm order, as the
    same operator in firm order would; nothing may sort the indices again.
    """
    m.indices = pos[m.indices]
    m.has_sorted_indices = False
    return m


def _shares(values: np.ndarray) -> np.ndarray:
    """values over their sum; zeros when the sum is 0, so every loss reads 0."""
    total = float(values.sum())
    return values / total if total > 0.0 else np.zeros_like(values)


class _Engine:
    """One calibrated model's scenario solver: the compiled step, the score
    weights and the block loop.

    Each channel steps its levels in its own engine order with one sparse
    product: the downstream operator D on h_d (step_down) and the upstream
    operator U on h_u (step_up).  down[i] and up[i] are firm i's positions
    in h_d and h_u.  Each score is a dot product of weights with the
    shortfalls 1 - h in firm order: out-strength shares (esri), employment
    shares over the firms with a known count (ew_esri; emp_known is None,
    and ew_esri nan, when no firm has one or the known counts sum to 0) and
    known emissions (eliminated CO2).
    """

    def __init__(self, net: ProductionNetwork, pf: ProductionFunctionSet):
        n = net.n_firms
        self.net = net
        self.gamma = pf.gamma

        # downstream order: a firm with g essential groups has key g, or
        # 2G + 1 - g if it has non-essential inputs (G: most groups of any
        # firm), so the firms with more than k groups hold keys k+1..2G-k,
        # one range, and the has_ne firms are the tail
        n_groups_of = np.diff(pf.firm_group_ptr).astype(np.int32)
        most = int(n_groups_of.max(initial=0))
        key = np.where(pf.has_ne, np.int32(2 * most + 1) - n_groups_of, n_groups_of)
        self.down = _new_of_old(key)
        below = np.cumsum(np.bincount(key, minlength=2 * most + 2)).tolist()  # firms with key <= k
        ne_start = below[most]

        # D's rows: essential group availabilities sum_k(w_k * h_d[supplier_k]) / W_g
        # in slot order (slot k holds the k-th group of every firm that has
        # more than k, in engine order), then the non-essential averages
        # nu_i = sum_k(w_k * h_d[supplier_k]) / W_i of the has_ne firms
        owner = pf.es_group_owner
        n_groups = owner.size
        slots = []  # (engine range of the firms, their rows of D), one per slot
        shift = []  # row of a group in slot k = shift[k] + engine position of its owner
        row = 0
        for k in range(max(most, 1)):
            lo, hi = below[k], below[2 * most - k]
            slots.append((slice(lo, hi), slice(row, row + hi - lo)))
            shift.append(row - lo)
            row += hi - lo
        self.ne_rows = slice(n_groups, n_groups + n - ne_start)
        # each later term is an in-place minimum: the later slots, then the
        # non-essential term of the has_ne firms
        self.first_slot, *self.later_terms = slots
        self.later_terms.append((slice(ne_start, n), self.ne_rows))

        slot = np.arange(n_groups) - pf.firm_group_ptr[owner]
        group_row = np.asarray(shift, dtype=np.int32)[slot] + self.down[owner]
        per_group = np.diff(pf.es_group_ptr)
        rows = np.concatenate(
            (np.repeat(group_row, per_group), self.down[pf.ne_buyer] + np.int32(n_groups - ne_start))
        )
        cols = np.concatenate((pf.es_supplier, pf.ne_supplier), dtype=np.int32)
        data = np.concatenate(
            (
                pf.es_weight / np.repeat(pf.es_group_weight, per_group),
                pf.ne_weight / pf.ne_firm_weight[pf.ne_buyer],
            )
        )
        D = sp.csr_matrix((data, (rows, cols)), shape=(n_groups + n - ne_start, n))
        del slot, group_row, rows, cols, data  # keeps the compile's peak memory down
        self.D = _renamed(D, self.down)

        # upstream order: firms with customers, then the ones without, which
        # stay at 1; h_u_i = sum_j(W_ij * h_u[customer_j]) / s_out_i
        s_out = compute_strengths(net).s_out
        no_customers = ~(s_out > 0.0)
        self.up = _new_of_old(no_customers)
        self.n_sellers = n - int(np.count_nonzero(no_customers))
        U = sp.csr_matrix(
            (net.weights / s_out[net.supplier_idx], (self.up[net.supplier_idx], net.buyer_idx)),
            shape=(self.n_sellers, n),
        )
        self.U = _renamed(U, self.up)
        # bytes one scenario-block column holds while it steps: each
        # channel's two n-float buffers and the outputs of D and U
        self.column_bytes = 8 * (4 * n + self.D.shape[0] + self.n_sellers)

        employees = net.employees_array()
        emp_known = ~np.isnan(employees)
        known_employees = employees[emp_known]
        co2 = net.co2_array()
        self.out_shares = _shares(s_out)
        self.emp_known = emp_known if known_employees.sum() > 0.0 else None
        self.emp_shares = _shares(known_employees)
        self.co2_known = ~np.isnan(co2)
        self.co2 = co2[self.co2_known]

    def step_down(self, x: np.ndarray, out: np.ndarray) -> None:
        """The downstream channel's update of the (n, w) h_d levels x into out; clamps nothing."""
        avail = self.D @ x
        # gamma + (1 - gamma) * nu, in place; + and * commute exactly
        ne_term = avail[self.ne_rows]
        ne_term *= 1.0 - self.gamma
        ne_term += self.gamma
        firms, rows = self.first_slot
        out[: firms.start].fill(1.0)
        out[firms.stop :].fill(1.0)
        out[firms] = avail[rows]
        for firms, rows in self.later_terms:
            part = out[firms]
            np.minimum(part, avail[rows], out=part)
        # row sums of D and U are 1 only up to rounding; keep levels in [0, 1]
        np.clip(out, 0.0, 1.0, out=out)

    def step_up(self, x: np.ndarray, out: np.ndarray) -> None:
        """The upstream channel's update of the (n, w) h_u levels x into out; clamps nothing."""
        np.clip(self.U @ x, 0.0, 1.0, out=out[: self.n_sellers])
        out[self.n_sellers :].fill(1.0)

    def channels(self, width: int) -> tuple[_Columns, _Columns]:
        """Empty column blocks of up to width columns: h_d's, then h_u's."""
        return _Columns(width, self.step_down, self.down), _Columns(width, self.step_up, self.up)

    def score(self, h: np.ndarray) -> tuple[float, float, float]:
        """(esri, ew_esri, eliminated CO2) at levels h; ew_esri is nan without employment data."""
        loss = 1.0 - h
        ew = math.nan if self.emp_known is None else float(np.dot(self.emp_shares, loss[self.emp_known]))
        return float(np.dot(self.out_shares, loss)), ew, float(np.dot(self.co2, loss[self.co2_known]))

    def result(self, eq: EquilibriumState) -> ScenarioResult:
        """An equilibrium's score with its step count and convergence flag."""
        return (*self.score(eq.h), eq.iterations, eq.converged)

    def solve(
        self,
        scenarios: Sequence[ShockScenario | Iterable[str]],
        width: int | None = None,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
    ) -> Iterator[tuple[int, EquilibriumState]]:
        """propagate each scenario, stepping up to width of them (by default
        _block_width's) at once; yields (position in scenarios, equilibrium)
        as each ends.

        Each live scenario has one record (_Live), keyed by its position, and
        each channel steps the live scenarios whose levels in it still move as
        the columns of one block (_Columns).  A scenario's column leaves a
        channel's block at the step whose change in that channel is exactly 0.0:
        the channel's map reads only that column's levels in the channel, so
        every later step would return the same bits again.  Its levels are kept
        in firm order and its change counts as +0.0 from then on.  A scenario
        ends at the step where the larger of its two changes reaches tol, or at
        the cap, and pending scenarios refill the block to width.  Each step is
        one pass: refill the block and drop the columns that left, step both
        channels, test each scenario for its end, then scan the columns once
        for those that leave or end.  Each column of a sparse product over a
        block is bit-identical to the product over that column alone, and the
        rest of a step is elementwise, so every equilibrium is the same at any
        width, bit for bit.
        """
        _check_limits(tol, max_iter)
        if width is None:
            width = _block_width(self.column_bytes, len(scenarios))
        elif width < 1:
            raise ValueError(f"block width must be at least 1, got {width}")
        width = min(width, len(scenarios))

        pending = enumerate(scenarios)
        blocks = self.channels(width)
        live: dict[int, _Live] = {}
        gone = (set(), set())  # per channel, the columns that leave before the next step
        step = 0  # steps taken by the block
        while True:
            entering = []
            for k, scenario in islice(pending, width - len(live)):
                entering.append((k, _removed_index(self.net, scenario), 1.0))
                live[k] = _Live(step)
            if not live:
                return
            for block, cols in zip(blocks, gone):
                block.update(cols, entering)
            step += 1
            for c, block in enumerate(blocks):
                if block.keys:
                    for k, d in zip(block.keys, block.advance().tolist()):
                        record = live[k]
                        record.change[c] = d
                        if record.settled[c] is None and d <= tol:
                            record.settled[c] = step - record.first
            ended = [
                k
                for k, record in live.items()
                if max(record.change) <= tol or step - record.first >= max_iter
            ]
            ending = set(ended)
            gone = (set(), set())
            for c, block in enumerate(blocks):
                for col, k in enumerate(block.keys):
                    record = live[k]
                    if record.change[c] == 0.0 or k in ending:
                        record.held[c] = block.levels(col)
                        gone[c].add(col)
            for k in ended:
                record = live.pop(k)
                h_d, h_u = record.held
                max_delta = max(record.change)
                yield k, EquilibriumState(
                    ids=self.net.ids,
                    h_d=h_d,
                    h_u=h_u,
                    iterations=step - record.first,
                    max_delta=max_delta,
                    converged=max_delta <= tol,
                    iterations_d=record.settled[0],
                    iterations_u=record.settled[1],
                )

    def results(
        self, part: Sequence[ShockScenario | Iterable[str]], tol: float, max_iter: int
    ) -> list[ScenarioResult]:
        """Each scenario's score, in the order given, stepped as one block."""
        results = [None] * len(part)
        for k, eq in self.solve(part, tol=tol, max_iter=max_iter):
            results[k] = self.result(eq)
        return results


class _Live:
    """A live scenario of a block: the step the block had taken when it
    entered and, per channel, its last step change (+0.0 once its column
    has left), its iterations_d or iterations_u, and its levels in firm
    order once its column has left."""

    def __init__(self, first: int):
        self.first = first
        self.change = [0.0, 0.0]
        self.settled: list[int | None] = [None, None]
        self.held: list[np.ndarray | None] = [None, None]


class _Columns:
    """One channel's columns of a scenario block: the levels in the channel's
    engine order of the live scenarios whose levels in that channel still
    move, as a C-order (n, w) array.  Two buffers sized for the block's
    width hold the state and the spent state, so w shrinks and grows in
    place as scenarios leave and enter.  A column enters with its start
    levels in firm order and leaves with its levels in firm order."""

    def __init__(self, width: int, step, order: np.ndarray):
        self.n = n = order.size
        self.step = step  # the engine's step of the channel
        self.order = order.astype(np.intp)  # each firm's engine position; intp scatters fastest
        self.buffers = [np.empty(n * width), np.empty(n * width)]  # the state's, then the spent one's
        self.keys: list[int] = []  # the scenario position of each column
        self.removed: list[np.ndarray] = []  # each column's removed firms, positions in the channel
        self.clamp = np.empty(0, dtype=np.intp)  # their flat positions in the block

    def block(self, buffer: int = 0) -> np.ndarray:
        w = len(self.keys)
        return self.buffers[buffer][: self.n * w].reshape(self.n, w)

    def advance(self) -> np.ndarray:
        """Steps every column; returns each column's sup-norm step change."""
        x, out = self.block(0), self.block(1)
        self.step(x, out)
        out.reshape(-1)[self.clamp] = 0.0
        # the old state is spent: it takes the step change, then the next step
        np.subtract(out, x, out=x)
        self.buffers.reverse()
        return _column_sup(x)

    def levels(self, col: int) -> np.ndarray:
        """A column's levels in firm order."""
        return np.take(self.block()[:, col], self.order)

    def update(self, gone: set[int], entering: list[tuple[int, np.ndarray, float | np.ndarray]]) -> None:
        """Drops the columns gone and adds a column for each entering
        (scenario position, removed firms, start levels): the start levels,
        a scalar or n levels in firm order, scattered into the channel's
        engine order, the removed firms at 0.  The kept columns move into
        the spent buffer and the new ones follow them."""
        if not (gone or entering):
            return
        removed = [self.order[firms] for _, firms, _ in entering]
        x = self.block()
        keep = [col for col in range(len(self.keys)) if col not in gone]
        self.keys = [self.keys[col] for col in keep] + [k for k, _, _ in entering]
        self.removed = [self.removed[col] for col in keep] + removed
        new = self.block(1)
        np.take(x, np.array(keep, dtype=np.intp), axis=1, out=new[:, : len(keep)])
        for col, ((_, _, start), r) in enumerate(zip(entering, removed), len(keep)):
            new[self.order, col] = start
            new[r, col] = 0.0
        self.buffers.reverse()
        w = len(self.keys)
        self.clamp = np.concatenate([self.clamp[:0], *self.removed]) * w + np.repeat(
            np.arange(w), [r.size for r in self.removed]
        )


def _engine(net: ProductionNetwork, pf: ProductionFunctionSet) -> _Engine:
    """The calibration's engine, built on its first use."""
    if pf.net is not net:
        raise ValueError("production functions were calibrated for a different network")
    if pf._engine is None:
        pf._engine = _Engine(net, pf)
    return pf._engine


def _removed_index(net: ProductionNetwork, scenario: ShockScenario | Iterable[str]) -> np.ndarray:
    """Firm indices of the removed firms, ids read as ShockScenario reads them."""
    removed = scenario.removed if isinstance(scenario, ShockScenario) else ShockScenario(scenario).removed
    unknown = sorted(str(fid) for fid in removed if fid not in net)
    if unknown:
        raise InvalidScenario(f"unknown firm id(s) in scenario: {', '.join(unknown)}")
    return np.fromiter(map(net.index_of, removed), dtype=np.int64, count=len(removed))


def _firm_ids(ids):
    """ids, a lone string read as one firm id rather than its characters."""
    return (ids,) if isinstance(ids, str) else ids


# -- public operations ---------------------------------------------------------


def production_step(
    state: LevelState,
    net: ProductionNetwork,
    pf: ProductionFunctionSet,
    scenario: ShockScenario | Iterable[str],
) -> LevelState:
    """One synchronous update of the given state under the scenario."""
    engine = _engine(net, pf)
    same_ids = state.ids is net.ids or state.ids == net.ids  # identity first: no O(n) compare
    if not (same_ids and np.shape(state.h_d) == np.shape(state.h_u) == (net.n_firms,)):
        raise ValueError("level state was built for a different network")
    firms = _removed_index(net, scenario)
    h_d, h_u = engine.channels(1)
    for columns, start in ((h_d, state.h_d), (h_u, state.h_u)):
        columns.update(set(), [(0, firms, start)])
        columns.advance()
    return LevelState(ids=net.ids, h_d=h_d.levels(0), h_u=h_u.levels(0))


def initial_state(net: ProductionNetwork, scenario: ShockScenario | Iterable[str]) -> LevelState:
    """All firms at full production except removed ones clamped to 0."""
    h = np.ones(net.n_firms)
    h[_removed_index(net, scenario)] = 0.0
    return LevelState(ids=net.ids, h_d=h, h_u=h.copy())


def _check_limits(tol: float, max_iter: int) -> None:
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


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
    return next(_engine(net, pf).solve([scenario], tol=tol, max_iter=max_iter))[1]


# -- scenario blocks -------------------------------------------------------------

# One block column holds each channel's two n-float buffers (32n bytes)
# and the D and U product outputs (8 bytes per row of each).  At 100k firms that is 5.1 MB,
# and a forked worker's peak memory read 113.8, 127.4, 134.9, 158.2 and
# 181.1 MB at widths 1, 4, 6, 8 and 12.  _BLOCK_BYTES bounds what a
# block's columns hold together: six columns at 100k firms, 65 at 10k.
_BLOCK_BYTES = 32 << 20
# rows that _column_sup folds into one before reducing along the columns
_FOLD_ROWS = 64


def _block_width(column_bytes: int, n_scenarios: int) -> int:
    """Columns of the block that steps n_scenarios scenarios, one column
    holding column_bytes (_Engine.column_bytes, 0 on a network without firms)."""
    return min(n_scenarios, max(1, _BLOCK_BYTES // max(1, column_bytes)))


def _column_sup(d: np.ndarray) -> np.ndarray:
    """Sup norm of each column of a C-order block of step changes.

    Levels descend pointwise, exactly in floating point too (every part of
    a step is monotone and rounding is monotone), so a step change is never
    positive and its sup norm is 0 minus its minimum; 0.0 - min also turns
    a minimum of -0.0 into 0.0.  A reduction along axis 0 of a narrow block
    walks a few elements per row; folding _FOLD_ROWS rows into one long row
    first reduces over contiguous runs, several times faster.
    """
    rows, w = d.shape
    if w == 1:  # a flat reduction: at 100k firms 0.12 ms a step, folding 0.28 ms
        return 0.0 - d.reshape(-1).min(initial=0.0, keepdims=True)
    whole = rows - rows % _FOLD_ROWS
    folded = d[:whole].reshape(-1, _FOLD_ROWS * w).min(axis=0, initial=0.0)
    return 0.0 - np.minimum(folded.reshape(_FOLD_ROWS, w).min(axis=0), d[whole:].min(axis=0, initial=0.0))

