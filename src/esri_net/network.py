"""Firm-level production network: CSV ingestion, strengths, validation.

Input schemas (CSV, UTF-8, comma separator, header row required):

    firms.csv:  id,sector,employees,co2,ets_member
                employees and co2 may be empty (missing data);
                ets_member is 0 or 1 and implies co2 is present.
    edges.csv:  supplier_id,buyer_id,weight
                weight is a strictly positive supplier->buyer flow.

Parallel edges between the same ordered firm pair are summed on load
(with a warning), in file order, and the merged edge keeps the place of
the pair's first row; self-loops and edges naming unknown firms are
rejected.  A faulty file is reported for its first faulty row in file
order; within an edge row the checks run as cell count, weight parse,
weight value, self-loop, supplier id, buyer id.
"""
from __future__ import annotations

import csv
import gc
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

FIRM_COLUMNS = ("id", "sector", "employees", "co2", "ets_member")
EDGE_COLUMNS = ("supplier_id", "buyer_id", "weight")


# -- errors ---------------------------------------------------------------


class NetworkError(Exception):
    """Base class for ingestion and validation failures."""


class MissingFile(NetworkError):
    pass


class SchemaError(NetworkError):
    """Malformed header or cell value; the message names the offending row."""


class DuplicateFirmId(NetworkError):
    pass


class DanglingEdge(NetworkError):
    """Edge references a firm id absent from the firm file."""


class NonPositiveWeight(NetworkError):
    pass


class SelfLoop(NetworkError):
    pass


# -- domain types ---------------------------------------------------------


@dataclass(frozen=True)
class Firm:
    """One firm row; employees/co2 are None when the source cell is empty."""

    id: str
    sector: str
    employees: int | None = None
    co2: float | None = None
    ets_member: bool = False


@dataclass(frozen=True)
class SupplyEdge:
    supplier_id: str
    buyer_id: str
    weight: float


@dataclass(frozen=True)
class StrengthTable:
    """Per-firm in/out/total strengths, aligned with the network firm order."""

    ids: tuple[str, ...]
    s_in: np.ndarray
    s_out: np.ndarray

    @property
    def s_total(self) -> np.ndarray:
        return self.s_in + self.s_out


@dataclass
class ValidationReport:
    n_firms: int
    n_edges: int
    n_isolated: int
    n_zero_out_strength: int
    n_ets: int
    total_weight: float
    max_s_out: float
    max_s_in: float
    employment_known_firms: int
    employment_known_share: float
    employees_total_known: int
    co2_known_firms: int
    co2_total_known: float
    ets_co2_total: float
    isolated_ids: tuple[str, ...]
    warnings: tuple[str, ...]

    def summary_lines(self) -> list[str]:
        lines = [
            f"firms: {self.n_firms}",
            f"edges: {self.n_edges}",
            f"isolated firms: {self.n_isolated}",
            f"zero out-strength firms: {self.n_zero_out_strength}",
            f"ets members: {self.n_ets}",
            f"total edge weight: {self.total_weight:.6g}",
            f"max out-strength: {self.max_s_out:.6g}",
            f"max in-strength: {self.max_s_in:.6g}",
            f"employment coverage: {self.employment_known_firms}/{self.n_firms} firms "
            f"({self.employment_known_share:.1%}), {self.employees_total_known} employees known",
            f"co2 coverage: {self.co2_known_firms} firms, total {self.co2_total_known:.6g} "
            f"(ets total {self.ets_co2_total:.6g})",
        ]
        lines.extend(f"warning: {w}" for w in self.warnings)
        return lines


class ProductionNetwork:
    """Immutable directed weighted firm network.

    Firms keep their input order; edges are stored in first-occurrence
    order of the (supplier, buyer) pair with parallel weights summed.
    `from_arrays` is the one validating constructor; `ProductionNetwork(
    firms, edges)` maps the edges' firm ids to indices and goes through it.
    """

    firms: tuple[Firm, ...]
    ids: tuple[str, ...]  # firm ids in firm order, built once
    supplier_idx: np.ndarray
    buyer_idx: np.ndarray
    weights: np.ndarray

    def __init__(self, firms: list[Firm] | tuple[Firm, ...], edges: list[SupplyEdge]):
        firms = tuple(firms)
        index = {f.id: pos for pos, f in enumerate(firms)}
        net = ProductionNetwork.from_arrays(
            firms,
            np.array([index.get(e.supplier_id, -1) for e in edges], dtype=np.int64),
            np.array([index.get(e.buyer_id, -1) for e in edges], dtype=np.int64),
            np.array([e.weight for e in edges], dtype=np.float64),
        )
        vars(self).update(vars(net))

    @classmethod
    def from_arrays(
        cls,
        firms: list[Firm] | tuple[Firm, ...],
        supplier_idx: np.ndarray,
        buyer_idx: np.ndarray,
        weights: np.ndarray,
    ) -> "ProductionNetwork":
        """Construct from edge index arrays into `firms`.

        Firm ids must be unique.  Every index must name a firm, no edge may
        be a self-loop, and every weight must be finite and positive; the
        first offending edge is reported.  Parallel edges are merged.
        """
        net = cls.__new__(cls)
        net.firms = tuple(firms)
        net.ids = tuple(f.id for f in net.firms)
        net._index = {fid: pos for pos, fid in enumerate(net.ids)}
        if len(net._index) != len(net.ids):
            raise DuplicateFirmId(f"duplicate firm id {_first_repeat(net.ids)!r}")
        sup = np.asarray(supplier_idx, dtype=np.int64)
        buy = np.asarray(buyer_idx, dtype=np.int64)
        wgt = np.asarray(weights, dtype=np.float64)
        bad = _bad_edges(len(net.ids), sup, buy, wgt)
        if bad.any():
            raise _edge_fault(net.ids, int(np.argmax(bad)), sup, buy, wgt)
        net.supplier_idx, net.buyer_idx, net.weights = _merge_parallel(
            len(net.ids), sup, buy, wgt
        )
        net._matrix = None
        net._strengths = None
        return net

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProductionNetwork):
            return NotImplemented
        return (
            self.firms == other.firms
            and np.array_equal(self.supplier_idx, other.supplier_idx)
            and np.array_equal(self.buyer_idx, other.buyer_idx)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"ProductionNetwork(n_firms={self.n_firms}, n_edges={self.n_edges})"

    # -- accessors ----------------------------------------------------------

    @property
    def n_firms(self) -> int:
        return len(self.firms)

    @property
    def n_edges(self) -> int:
        return int(self.weights.size)

    def index_of(self, firm_id: str) -> int:
        try:
            return self._index[firm_id]
        except KeyError:
            raise KeyError(f"unknown firm id {firm_id!r}") from None

    def __contains__(self, firm_id: str) -> bool:
        return firm_id in self._index

    def firm(self, firm_id: str) -> Firm:
        return self.firms[self.index_of(firm_id)]

    def edges(self) -> list[SupplyEdge]:
        return [
            SupplyEdge(self.firms[s].id, self.firms[b].id, float(w))
            for s, b, w in zip(self.supplier_idx, self.buyer_idx, self.weights)
        ]

    @property
    def matrix(self) -> sp.csr_matrix:
        """Weight matrix W with W[i, j] = flow from firm i to firm j."""
        if self._matrix is None:
            n = self.n_firms
            self._matrix = sp.csr_matrix(
                (self.weights, (self.supplier_idx, self.buyer_idx)), shape=(n, n)
            )
        return self._matrix

    # -- vector views used across modules, built once and read-only ----------

    def employees_array(self) -> np.ndarray:
        return self._employees

    def co2_array(self) -> np.ndarray:
        return self._co2

    def ets_mask(self) -> np.ndarray:
        return self._ets

    @cached_property
    def _employees(self) -> np.ndarray:
        return _read_only(
            [np.nan if f.employees is None else float(f.employees) for f in self.firms], float
        )

    @cached_property
    def _co2(self) -> np.ndarray:
        return _read_only([np.nan if f.co2 is None else float(f.co2) for f in self.firms], float)

    @cached_property
    def _ets(self) -> np.ndarray:
        return _read_only([f.ets_member for f in self.firms], bool)

    @cached_property
    def _sectors(self) -> tuple[str, ...]:
        return tuple(f.sector for f in self.firms)

    def sectors(self) -> tuple[str, ...]:
        return self._sectors


def _read_only(values: list, dtype: type) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _first_repeat(ids: Iterable[str]) -> str | None:
    seen: set[str] = set()
    for fid in ids:
        if fid in seen:
            return fid
        seen.add(fid)
    return None


def _bad_edges(n: int, sup: np.ndarray, buy: np.ndarray, wgt: np.ndarray) -> np.ndarray:
    """Mask of edges with an end outside [0, n), a self-loop, or a weight
    that is not finite and positive."""
    return (
        (sup < 0) | (sup >= n) | (buy < 0) | (buy >= n) | (sup == buy)
        | ~(np.isfinite(wgt) & (wgt > 0.0))
    )


def _edge_fault(
    ids: tuple[str, ...], k: int, sup: np.ndarray, buy: np.ndarray, wgt: np.ndarray
) -> NetworkError:
    s, b, w = int(sup[k]), int(buy[k]), float(wgt[k])
    if not 0 <= s < len(ids):
        return DanglingEdge(f"edge {k} references unknown supplier index {s}")
    if not 0 <= b < len(ids):
        return DanglingEdge(f"edge {k} references unknown buyer index {b}")
    if s == b:
        return SelfLoop(f"edge {k}: self-loop on firm {ids[s]!r}")
    return NonPositiveWeight(f"edge {k} {ids[s]!r}->{ids[b]!r} has weight {w!r}")


def _merge_parallel(
    n: int, sup: np.ndarray, buy: np.ndarray, wgt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge edges of the same (supplier, buyer) pair, in first-occurrence order.

    `np.bincount` adds each pair's weights in input order, so a merged
    weight is bit-identical to summing the edges one by one as they come.
    """
    keys, first, inverse = np.unique(sup * n + buy, return_index=True, return_inverse=True)
    if keys.size == sup.size:
        return sup, buy, wgt
    log.warning("summed %d parallel edge(s) during ingestion", sup.size - keys.size)
    order = np.argsort(first)  # distinct pairs in first-occurrence order
    summed = np.bincount(inverse, weights=wgt, minlength=keys.size)
    return sup[first[order]], buy[first[order]], summed[order]


# -- ingestion --------------------------------------------------------------

# Edge rows are read and checked in blocks of this many rows.
_EDGE_BLOCK_ROWS = 1 << 16


@contextmanager
def _csv_rows(path: str | Path, expected_header: tuple[str, ...]) -> Iterator[Iterator[list[str]]]:
    """A csv.reader positioned after the file's header, which must match."""
    p = Path(path)
    if not p.is_file():
        raise MissingFile(f"missing input file: {p}")
    with open(p, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None or tuple(h.strip() for h in header) != expected_header:
            raise SchemaError(
                f"{p.name} row 1: expected header {','.join(expected_header)!r}"
            )
        yield rows


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection; restore the caller's setting on exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _at_row(fault: NetworkError, path: str | Path, row_no: int) -> NetworkError:
    """The same fault, with the file name and row number in front."""
    return type(fault)(f"{Path(path).name} row {row_no}: {fault}")


def _parse_optional_int(cell: str, what: str) -> int | None:
    if cell == "":
        return None
    try:
        value = int(cell)
    except ValueError:
        raise SchemaError(f"{what} must be an integer, got {cell!r}") from None
    if value < 0:
        raise SchemaError(f"{what} must be non-negative, got {value}")
    return value


def _parse_optional_float(cell: str, what: str) -> float | None:
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise SchemaError(f"{what} must be a number, got {cell!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise SchemaError(f"{what} must be finite and non-negative, got {cell!r}")
    return value


def _parse_firm(row: list[str]) -> Firm:
    if len(row) != len(FIRM_COLUMNS):
        raise SchemaError(f"expected {len(FIRM_COLUMNS)} cells, got {len(row)}")
    firm_id, sector, employees, co2, ets = map(str.strip, row)
    if not firm_id:
        raise SchemaError("empty firm id")
    if not sector:
        raise SchemaError("empty sector code")
    if ets not in ("0", "1"):
        raise SchemaError(f"ets_member must be 0 or 1, got {ets!r}")
    co2_value = _parse_optional_float(co2, "co2")
    if ets == "1" and co2_value is None:
        raise SchemaError("ets_member=1 requires a co2 value")
    return Firm(
        id=firm_id,
        sector=sector,
        employees=_parse_optional_int(employees, "employees"),
        co2=co2_value,
        ets_member=ets == "1",
    )


def _check_edge_row(row: list[str], index: dict[str, int]) -> None:
    """Raise the first fault of one edge row; the checks run in this order."""
    if len(row) != len(EDGE_COLUMNS):
        raise SchemaError(f"expected {len(EDGE_COLUMNS)} cells, got {len(row)}")
    supplier, buyer, weight = map(str.strip, row)
    try:
        weight_value = float(weight)
    except ValueError:
        raise SchemaError(f"weight must be a number, got {weight!r}") from None
    if not math.isfinite(weight_value) or weight_value <= 0.0:
        raise NonPositiveWeight(f"weight must be positive, got {weight!r}")
    if supplier == buyer:
        raise SelfLoop(f"self-loop on firm {supplier!r}")
    if supplier not in index:
        raise DanglingEdge(f"unknown supplier id {supplier!r}")
    if buyer not in index:
        raise DanglingEdge(f"unknown buyer id {buyer!r}")


def _edge_block(
    rows: list[list[str]], index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Supplier, buyer and weight arrays of a block of edge rows, or None
    if any row in it is faulty."""
    if set(map(len, rows)) != {len(EDGE_COLUMNS)}:
        return None
    # itemgetter columns, not zip(*rows): zip's temporaries trigger costly GC passes
    try:
        wgt = np.fromiter(map(float, map(itemgetter(2), rows)), np.float64, len(rows))
    except ValueError:
        return None
    sup, buy = (
        np.fromiter(
            map(index.get, map(str.strip, map(itemgetter(col), rows)), repeat(-1)),
            np.int64,
            len(rows),
        )
        for col in (0, 1)
    )
    if _bad_edges(len(index), sup, buy, wgt).any():
        return None
    return sup, buy, wgt


def load_network(firm_file: str | Path, edge_file: str | Path) -> ProductionNetwork:
    """Load and validate the firm and edge files into a ProductionNetwork.

    A fault is reported for the first faulty row in file order, with its
    row number.  Edge rows are checked a block at a time with array masks;
    only a block that holds a fault is walked row by row to name it.
    """
    # the per-row lists csv.reader yields would trigger cyclic GC passes
    with _gc_paused():
        firms: list[Firm] = []
        with _csv_rows(firm_file, FIRM_COLUMNS) as rows:
            for row_no, row in enumerate(rows, start=2):
                try:
                    firms.append(_parse_firm(row))
                except NetworkError as fault:
                    raise _at_row(fault, firm_file, row_no) from None

        index = {f.id: pos for pos, f in enumerate(firms)}
        if len(index) != len(firms):
            repeat_id = _first_repeat(f.id for f in firms)
            raise DuplicateFirmId(f"duplicate firm id {repeat_id!r} in {Path(firm_file).name}")

        blocks = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64))]
        with _csv_rows(edge_file, EDGE_COLUMNS) as rows:
            row_no = 2
            while block := list(islice(rows, _EDGE_BLOCK_ROWS)):
                arrays = _edge_block(block, index)
                if arrays is None:
                    for k, row in enumerate(block):
                        try:
                            _check_edge_row(row, index)
                        except NetworkError as fault:
                            raise _at_row(fault, edge_file, row_no + k) from None
                blocks.append(arrays)
                row_no += len(block)
    sup, buy, wgt = (np.concatenate(column) for column in zip(*blocks))
    return ProductionNetwork.from_arrays(firms, sup, buy, wgt)


def write_network(net: ProductionNetwork, out_dir: str | Path) -> None:
    """Serialize firms.csv and edges.csv; load(write(net)) == net."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "firms.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIRM_COLUMNS)
        for f in net.firms:
            writer.writerow(
                [
                    f.id,
                    f.sector,
                    "" if f.employees is None else f.employees,
                    "" if f.co2 is None else repr(f.co2),
                    int(f.ets_member),
                ]
            )
    with open(out / "edges.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_COLUMNS)
        writer.writerows(
            zip(
                map(net.ids.__getitem__, net.supplier_idx.tolist()),
                map(net.ids.__getitem__, net.buyer_idx.tolist()),
                map(repr, net.weights.tolist()),
            )
        )


# -- strengths and validation ------------------------------------------------


def compute_strengths(net: ProductionNetwork) -> StrengthTable:
    """In/out strengths as row and column sums of the weight matrix."""
    if net._strengths is None:
        w = net.matrix
        net._strengths = StrengthTable(
            ids=net.ids,
            s_in=np.asarray(w.sum(axis=0)).ravel(),
            s_out=np.asarray(w.sum(axis=1)).ravel(),
        )
    return net._strengths


def validate(net: ProductionNetwork) -> ValidationReport:
    """Structural and coverage diagnostics; never raises on a loaded network."""
    st = compute_strengths(net)
    isolated = st.s_total == 0.0
    employees = net.employees_array()
    co2 = net.co2_array()
    ets = net.ets_mask()
    known_emp = ~np.isnan(employees)
    known_co2 = ~np.isnan(co2)

    warnings: list[str] = []
    n_isolated = int(isolated.sum())
    if n_isolated:
        warnings.append(f"{n_isolated} isolated firm(s) take no part in propagation")
    if not known_emp.any():
        warnings.append("no firm has employee data; employment-weighted index unavailable")
    if not known_co2.any():
        warnings.append("no firm has emission data; CO2 accounting unavailable")

    return ValidationReport(
        n_firms=net.n_firms,
        n_edges=net.n_edges,
        n_isolated=n_isolated,
        n_zero_out_strength=int((st.s_out == 0.0).sum()),
        n_ets=int(ets.sum()),
        total_weight=float(net.weights.sum()),
        max_s_out=float(st.s_out.max(initial=0.0)),
        max_s_in=float(st.s_in.max(initial=0.0)),
        employment_known_firms=int(known_emp.sum()),
        employment_known_share=float(known_emp.mean()) if net.n_firms else 0.0,
        employees_total_known=int(np.nansum(employees)) if known_emp.any() else 0,
        co2_known_firms=int(known_co2.sum()),
        co2_total_known=float(np.nansum(co2)) if known_co2.any() else 0.0,
        ets_co2_total=float(np.nansum(np.where(ets, co2, np.nan))) if (ets & known_co2).any() else 0.0,
        isolated_ids=tuple(np.array(net.ids)[isolated][:20]),
        warnings=tuple(warnings),
    )
