"""Firm-level production network: CSV ingestion, strengths, validation.

It holds the package's one file layer: every input CSV is read through
`_csv_rows` and `_at_row`, and every output through `_atomic_open`.

Each firm attribute is stored once, as a read-only column of a `FirmTable`;
`firm(id)` and `firms` build `Firm` views on each call (`firms` is O(n)).

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
weight value, self-loop, supplier id, buyer id, and within a firm row as
cell count, id, sector, ets_member, co2, employees (at most 2**53, so the
float64 column is exact), then the id's uniqueness.
"""
from __future__ import annotations

import csv
import gc
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

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


@dataclass(frozen=True, slots=True)
class Firm:
    """A view of one firm row; employees/co2 are None when the cell is empty."""

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


@dataclass(frozen=True, eq=False)
class FirmTable:
    """Firm attributes as read-only columns in firm order; `Firm`s are views.

    index maps each id to its position; sector_code indexes the sorted
    distinct sector names; employees and co2 are float64, NaN where empty.
    """

    ids: tuple[str, ...]
    index: dict[str, int]
    sector_names: tuple[str, ...]
    sector_code: np.ndarray
    employees: np.ndarray
    co2: np.ndarray
    ets: np.ndarray

    @classmethod
    def build(cls, index: dict[str, int], sectors: Sequence[str], employees: Sequence[float],
              co2: Sequence[float], ets: Sequence[bool]) -> "FirmTable":
        """Columns from per-firm values; index maps each firm id, in firm
        order, to its position, and holds no repeat (see `_add_id`)."""
        names = sorted(set(sectors))
        code_of = {name: k for k, name in enumerate(names)}
        codes = np.fromiter(map(code_of.__getitem__, sectors), np.int64, len(sectors))
        columns = codes, np.array(employees, np.float64), np.array(co2, np.float64), np.array(ets, bool)
        for column in columns:
            column.flags.writeable = False
        return cls(tuple(index), index, tuple(names), *columns)

    @classmethod
    def of(cls, firms: Iterable[Firm]) -> "FirmTable":
        firms = tuple(firms)
        index: dict[str, int] = {}
        for f in firms:
            _add_id(index, f.id)
        return cls.build(
            index, [f.sector for f in firms],
            [math.nan if f.employees is None else f.employees for f in firms],
            [math.nan if f.co2 is None else f.co2 for f in firms], [f.ets_member for f in firms],
        )

    def views(self, rows: slice) -> tuple[Firm, ...]:
        """Firm objects of a slice of the firm order, built from the columns."""
        return tuple(
            Firm(fid, self.sector_names[code], None if math.isnan(e) else int(e),
                 None if math.isnan(c) else c, ets)
            for fid, code, e, c, ets in zip(
                self.ids[rows], self.sector_code[rows].tolist(), self.employees[rows].tolist(),
                self.co2[rows].tolist(), self.ets[rows].tolist(),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FirmTable):
            return NotImplemented
        columns = ("sector_code", "employees", "co2", "ets")
        return (self.ids, self.sector_names) == (other.ids, other.sector_names) and all(
            np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True) for c in columns
        )


def _add_id(index: dict[str, int], firm_id: str) -> None:
    if firm_id in index:
        raise DuplicateFirmId(f"duplicate firm id {firm_id!r}")
    index[firm_id] = len(index)


class ProductionNetwork:
    """Immutable directed weighted network over the firms of `table`.

    Edges are stored in first-occurrence order of the (supplier, buyer)
    pair with parallel weights summed.  `from_arrays` is the one validating
    constructor; `ProductionNetwork(firms, edges)` maps the edges' firm ids
    to indices and goes through it.
    """

    table: FirmTable
    ids: tuple[str, ...]  # firm ids in firm order (table.ids)
    supplier_idx: np.ndarray
    buyer_idx: np.ndarray
    weights: np.ndarray

    def __init__(self, firms: Iterable[Firm], edges: list[SupplyEdge]):
        table = FirmTable.of(firms)
        net = ProductionNetwork.from_arrays(
            table,
            np.array([table.index.get(e.supplier_id, -1) for e in edges], dtype=np.int64),
            np.array([table.index.get(e.buyer_id, -1) for e in edges], dtype=np.int64),
            np.array([e.weight for e in edges], dtype=np.float64),
        )
        vars(self).update(vars(net))

    @classmethod
    def from_arrays(
        cls, table: FirmTable, supplier_idx: np.ndarray, buyer_idx: np.ndarray, weights: np.ndarray
    ) -> "ProductionNetwork":
        """Construct from a firm table and edge index arrays into it.

        Every index must name a firm, no edge may be a self-loop, and every
        weight must be finite and positive; the first offending edge is
        reported.  Parallel edges are merged.
        """
        net = cls.__new__(cls)
        net.table = table
        net.ids = table.ids
        sup = np.asarray(supplier_idx, dtype=np.int64)
        buy = np.asarray(buyer_idx, dtype=np.int64)
        wgt = np.asarray(weights, dtype=np.float64)
        bad = _bad_edges(len(net.ids), sup, buy, wgt)
        if bad.any():
            raise _edge_fault(net.ids, int(np.argmax(bad)), sup, buy, wgt)
        net.supplier_idx, net.buyer_idx, net.weights = _merge_parallel(
            len(net.ids), sup, buy, wgt
        )
        net._strengths = None
        return net

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProductionNetwork):
            return NotImplemented
        return self.table == other.table and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("supplier_idx", "buyer_idx", "weights")
        )

    def __repr__(self) -> str:
        return f"ProductionNetwork(n_firms={self.n_firms}, n_edges={self.n_edges})"

    # -- accessors ----------------------------------------------------------

    @property
    def n_firms(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return int(self.weights.size)

    def index_of(self, firm_id: str) -> int:
        try:
            return self.table.index[firm_id]
        except KeyError:
            raise KeyError(f"unknown firm id {firm_id!r}") from None

    def __contains__(self, firm_id: str) -> bool:
        return firm_id in self.table.index

    def firm(self, firm_id: str) -> Firm:
        """A view of one firm, built from the columns on each call."""
        pos = self.index_of(firm_id)
        return self.table.views(slice(pos, pos + 1))[0]

    @property
    def firms(self) -> tuple[Firm, ...]:
        """Views of every firm, built from the columns on each access: O(n)."""
        return self.table.views(slice(None))

    def edges(self) -> list[SupplyEdge]:
        return [
            SupplyEdge(self.ids[s], self.ids[b], float(w))
            for s, b, w in zip(self.supplier_idx, self.buyer_idx, self.weights)
        ]

    # -- read-only firm columns used across modules ---------------------------

    def employees_array(self) -> np.ndarray:
        return self.table.employees

    def co2_array(self) -> np.ndarray:
        return self.table.co2

    def ets_mask(self) -> np.ndarray:
        return self.table.ets


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


# -- ingestion and output -------------------------------------------------------

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


def _append_firm_row(row: list[str], index: dict[str, int], columns: tuple[list, ...]) -> None:
    """Check one firm row and append it to the index and the sector,
    employees, co2 and ets columns; the checks run in this order."""
    if len(row) != len(FIRM_COLUMNS):
        raise SchemaError(f"expected {len(FIRM_COLUMNS)} cells, got {len(row)}")
    firm_id, sector, employees, co2, ets = map(str.strip, row)
    if not firm_id:
        raise SchemaError("empty firm id")
    if not sector:
        raise SchemaError("empty sector code")
    if ets not in ("0", "1"):
        raise SchemaError(f"ets_member must be 0 or 1, got {ets!r}")
    try:
        co2_value = float(co2) if co2 else math.nan
    except ValueError:
        raise SchemaError(f"co2 must be a number, got {co2!r}") from None
    if co2 and not 0.0 <= co2_value < math.inf:
        raise SchemaError(f"co2 must be finite and non-negative, got {co2!r}")
    if ets == "1" and not co2:
        raise SchemaError("ets_member=1 requires a co2 value")
    try:
        count = int(employees) if employees else math.nan
    except ValueError:
        raise SchemaError(f"employees must be an integer, got {employees!r}") from None
    if count < 0:
        raise SchemaError(f"employees must be non-negative, got {count}")
    if count > 2**53:  # the float64 column holds every count up to 2**53 exactly
        raise SchemaError(f"employees must be at most 2**53, got {count}")
    _add_id(index, firm_id)
    for column, value in zip(columns, (sector, count, co2_value, ets == "1")):
        column.append(value)


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
        index: dict[str, int] = {}
        columns: tuple[list, ...] = ([], [], [], [])  # sector, employees, co2, ets
        with _csv_rows(firm_file, FIRM_COLUMNS) as rows:
            for row_no, row in enumerate(rows, start=2):
                try:
                    _append_firm_row(row, index, columns)
                except NetworkError as fault:
                    raise _at_row(fault, firm_file, row_no) from None
        table = FirmTable.build(index, *columns)

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
    return ProductionNetwork.from_arrays(table, sup, buy, wgt)


def write_network(net: ProductionNetwork, out_dir: str | Path) -> None:
    """Serialize firms.csv and edges.csv; load(write(net)) == net."""
    out = Path(out_dir)
    t = net.table
    firm_rows = zip(
        t.ids,
        map(t.sector_names.__getitem__, t.sector_code.tolist()),
        ["" if math.isnan(e) else int(e) for e in t.employees.tolist()],
        ["" if math.isnan(c) else repr(c) for c in t.co2.tolist()],
        t.ets.astype(np.int64).tolist(),
    )
    _write_csv(out / "firms.csv", FIRM_COLUMNS, firm_rows)
    edge_rows = zip(
        map(net.ids.__getitem__, net.supplier_idx.tolist()),
        map(net.ids.__getitem__, net.buyer_idx.tolist()),
        map(repr, net.weights.tolist()),
    )
    _write_csv(out / "edges.csv", EDGE_COLUMNS, edge_rows)


@contextmanager
def _atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A text file that replaces path once the block completes; opened like
    any file, so the umask sets its mode, and removed on any failure."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable) -> None:
    """Write the rows, which may be a lazy iterable, straight into the file."""
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- strengths and validation ------------------------------------------------


def compute_strengths(net: ProductionNetwork) -> StrengthTable:
    """In/out strengths as column and row sums of the weight matrix W,
    W[i, j] = flow from firm i to firm j, built for the sums only."""
    if net._strengths is None:
        n = net.n_firms
        w = sp.csr_matrix((net.weights, (net.supplier_idx, net.buyer_idx)), shape=(n, n))
        net._strengths = StrengthTable(
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
