"""Input essentiality and generalized Leontief calibration.

Each firm's inputs are split into essential and non-essential sets by a
sector-pair essentiality matrix.  Essential inputs are grouped by supplier
sector; each group enters the production function as a Leontief factor
whose availability is the weighted average of member supplier levels.
Non-essential inputs enter one linear term with intercept beta: output
beta is attainable with no non-essential inputs at all.

Calibration anchors every coefficient so that full input availability
reproduces the reference output x0:

    alpha_ik = (sum of group k in-weights) / x0
    beta     = gamma * x0    (gamma = x0 when the firm has no
                              non-essential inputs)
    alpha_i  = (sum of non-essential in-weights) / (x0 - beta)

x0 is the out-strength, falling back to in-strength for firms that sell
nothing inside the network ("out" rule), or max(s_in, s_out) ("max" rule).
In relative levels x0 cancels, so the rule affects reported coefficients
only.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .network import ProductionNetwork, SchemaError, _csv_rows, _numbered, compute_strengths

ESSENTIALITY_COLUMNS = ("supplier_sector", "buyer_sector", "essential")

# Bundled default: products of mining, manufacturing and power suppliers
# are treated as essential for every buyer.
ESSENTIAL_SUPPLIER_LETTERS = frozenset({"B", "C", "D"})

X0_RULES = ("out", "max")


@dataclass(frozen=True)
class EssentialityMatrix:
    """Sector-pair essentiality lookup.

    Lookup order: exact (supplier, buyer) code pair, then letter-level
    pair, then the default rule, one of "non-essential" (what from_csv
    uses) or "supplier-letter" (essential iff the supplier sector letter
    is in ESSENTIAL_SUPPLIER_LETTERS; what default() uses).
    """

    pairs: Mapping[tuple[str, str], bool]
    default_rule: str

    def __post_init__(self) -> None:
        if self.default_rule not in ("non-essential", "supplier-letter"):
            raise ValueError(f"unknown default_rule {self.default_rule!r}")

    def is_essential(self, supplier_sector: str, buyer_sector: str) -> bool:
        hit = self.pairs.get((supplier_sector, buyer_sector))
        if hit is not None:
            return hit
        hit = self.pairs.get((supplier_sector[:1], buyer_sector[:1]))
        if hit is not None:
            return hit
        if self.default_rule == "supplier-letter":
            return supplier_sector[:1] in ESSENTIAL_SUPPLIER_LETTERS
        return False

    @classmethod
    def default(cls) -> "EssentialityMatrix":
        return cls(pairs={}, default_rule="supplier-letter")

    @classmethod
    def from_csv(cls, path: str | Path) -> "EssentialityMatrix":
        """Read supplier_sector,buyer_sector,essential rows; a faulty file is
        reported for its first faulty row, and a pair may appear once."""
        pairs: dict[tuple[str, str], bool] = {}
        at_row = _numbered(f"{Path(path).name} row")
        with _csv_rows(path, ESSENTIALITY_COLUMNS) as rows:
            for row_no, row in enumerate(rows, start=2):
                try:
                    if len(row) != 3:
                        raise SchemaError(f"expected 3 cells, got {len(row)}")
                    sup, buy, flag = map(str.strip, row)
                    if not sup or not buy:
                        raise SchemaError("empty sector code")
                    if flag not in ("0", "1"):
                        raise SchemaError(f"essential must be 0 or 1, got {flag!r}")
                    if (sup, buy) in pairs:
                        raise SchemaError(f"repeated sector pair {(sup, buy)}")
                except SchemaError as fault:
                    raise at_row(fault, row_no) from None
                pairs[(sup, buy)] = flag == "1"
        return cls(pairs=pairs, default_rule="non-essential")


# -- input classification -----------------------------------------------------


@dataclass(frozen=True)
class InputPartition:
    """Per-edge essentiality flags aligned with the network edge arrays."""

    ids: tuple[str, ...]
    edge_essential: np.ndarray


def _sector_pairs(net: ProductionNetwork) -> tuple[list[tuple[str, str]], np.ndarray]:
    """The sorted distinct (supplier sector, buyer sector) pairs, and each edge's position in them."""
    names, codes = net.table.sector_names, net.table.sector_code
    # codes follow the sorted names, so sorted code pairs are sorted name pairs
    key = codes[net.supplier_idx] * len(names) + codes[net.buyer_idx]
    keys, edge_pair = np.unique(key, return_inverse=True)
    return [(names[k // len(names)], names[k % len(names)]) for k in keys.tolist()], edge_pair


def classify_inputs(net: ProductionNetwork, matrix: EssentialityMatrix) -> InputPartition:
    """Flag every supply edge as essential or non-essential for its buyer."""
    pairs, edge_pair = _sector_pairs(net)
    flags = np.array([matrix.is_essential(*pair) for pair in pairs], dtype=bool)
    return InputPartition(ids=net.ids, edge_essential=flags[edge_pair])


# -- calibrated production functions ------------------------------------------


@dataclass(frozen=True)
class EssentialGroup:
    sector: str
    alpha: float
    members: dict[str, float]  # supplier id -> in-weight


@dataclass(frozen=True)
class FirmProductionFunction:
    """Calibrated per-firm view of the coefficients, for audits only.

    Production is evaluated in relative levels by propagation.production_step.
    """

    firm_id: str
    x0: float
    beta: float
    gamma: float
    essential_groups: tuple[EssentialGroup, ...]
    nonessential: dict[str, float]  # supplier id -> in-weight
    alpha_ne: float | None  # None when beta == x0: extra inputs cannot raise output


class ProductionFunctionSet:
    """Calibrated production functions for every firm, in vector form.

    The vectorized layout drives the propagation engine:
      - essential edges are sorted by (buyer, supplier sector) into
        contiguous groups; group g spans es_group_ptr[g]:es_group_ptr[g+1]
        inside the sorted edge arrays and belongs to es_group_owner[g];
      - groups themselves are sorted by owner; firm_group_ptr[i]:
        firm_group_ptr[i+1] is the group range of firm i, and the
        propagation engine reorders the groups by their rank within it;
      - non-essential edges aggregate through one weighted average per firm.
    """

    def __init__(
        self,
        net: ProductionNetwork,
        partition: InputPartition,
        gamma: float,
        x0_rule: str,
    ):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if x0_rule not in X0_RULES:
            raise ValueError(f"x0_rule must be one of {X0_RULES}, got {x0_rule!r}")
        if partition.ids != net.ids:
            raise ValueError("input partition was built for a different network")
        self.net = net
        self.gamma = float(gamma)

        st = compute_strengths(net)
        if x0_rule == "out":
            self.x0 = np.where(st.s_out > 0.0, st.s_out, st.s_in)
        else:
            self.x0 = np.maximum(st.s_out, st.s_in)
        # every edge weight is positive, so x0 > 0 for every firm with inputs
        n = net.n_firms

        # essential layout: edges sorted by (buyer, supplier sector code)
        unique, sector_code = net.table.sector_names, net.table.sector_code
        es_idx = np.flatnonzero(partition.edge_essential)
        key = net.buyer_idx[es_idx] * len(unique) + sector_code[net.supplier_idx[es_idx]]
        order = np.argsort(key, kind="stable")
        es_idx = es_idx[order]
        key = key[order]
        self.es_supplier = net.supplier_idx[es_idx]
        self.es_weight = net.weights[es_idx]
        group_first = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
        self.es_group_ptr = np.append(group_first, es_idx.size)
        self.es_group_owner = net.buyer_idx[es_idx[group_first]]
        self.es_group_weight = np.add.reduceat(self.es_weight, group_first)
        self.es_group_sector_code = sector_code[self.es_supplier[group_first]]
        # groups are already owner-sorted; firm_group_ptr[i]:firm_group_ptr[i+1]
        # is the group range of firm i
        counts = np.bincount(self.es_group_owner, minlength=n)
        self.firm_group_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

        # non-essential layout
        ne_idx = np.flatnonzero(~partition.edge_essential)
        order = np.argsort(net.buyer_idx[ne_idx], kind="stable")
        ne_idx = ne_idx[order]
        self.ne_supplier = net.supplier_idx[ne_idx]
        self.ne_weight = net.weights[ne_idx]
        self.ne_buyer = net.buyer_idx[ne_idx]
        self.ne_firm_weight = np.bincount(self.ne_buyer, weights=self.ne_weight, minlength=n)
        self.has_ne = self.ne_firm_weight > 0.0

        self.beta = np.where(self.has_ne, self.gamma * self.x0, self.x0)
        # the scenario solver (propagation._Engine), built on first use by
        # propagation._engine
        self._engine = None

    # -- per-firm views -------------------------------------------------------

    def function_of(self, firm_id: str) -> FirmProductionFunction:
        i = self.net.index_of(firm_id)
        x0 = float(self.x0[i])
        groups: list[EssentialGroup] = []
        for g in range(self.firm_group_ptr[i], self.firm_group_ptr[i + 1]):
            lo, hi = self.es_group_ptr[g], self.es_group_ptr[g + 1]
            members = {
                self.net.ids[s]: w
                for s, w in zip(self.es_supplier[lo:hi].tolist(), self.es_weight[lo:hi].tolist())
            }
            wsum = float(self.es_group_weight[g])
            groups.append(
                EssentialGroup(
                    sector=self.net.table.sector_names[self.es_group_sector_code[g]],
                    alpha=wsum / x0,
                    members=members,
                )
            )
        mask = self.ne_buyer == i
        nonessential = {
            self.net.ids[s]: w
            for s, w in zip(self.ne_supplier[mask].tolist(), self.ne_weight[mask].tolist())
        }
        beta = float(self.beta[i])
        alpha_ne: float | None = None
        if nonessential and x0 > beta:
            alpha_ne = float(self.ne_firm_weight[i]) / (x0 - beta)
        return FirmProductionFunction(
            firm_id=firm_id,
            x0=x0,
            beta=beta,
            gamma=self.gamma,
            essential_groups=tuple(groups),
            nonessential=nonessential,
            alpha_ne=alpha_ne,
        )

    def audit_columns(
        self,
    ) -> tuple[tuple[str, ...], list[float], list[float], list[int], list[int]]:
        """firm_id, x0, beta, n_essential_groups and n_nonessential, each over all firms."""
        n_groups = np.diff(self.firm_group_ptr)
        n_ne = np.bincount(self.ne_buyer, minlength=self.net.n_firms)
        return self.net.ids, self.x0.tolist(), self.beta.tolist(), n_groups.tolist(), n_ne.tolist()


def calibrate(
    net: ProductionNetwork,
    partition: InputPartition,
    gamma: float = 0.5,
    x0_rule: str = "out",
) -> ProductionFunctionSet:
    """Calibrate every firm's production function against its reference output."""
    return ProductionFunctionSet(net, partition, gamma, x0_rule)
