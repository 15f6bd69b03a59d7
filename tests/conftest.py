"""Shared fixtures and random-case builders for the test suite."""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracle module

from esri_net import (
    EssentialityMatrix,
    Firm,
    ProductionNetwork,
    SupplyEdge,
    calibrate,
    classify_inputs,
    load_network,
)

REPO = Path(__file__).resolve().parent.parent
FIG1 = REPO / "fixtures" / "fig1"

SECTOR_POOL = ("A01", "B05", "C10", "C25", "D35", "G46")


@pytest.fixture(scope="session")
def fig1_net() -> ProductionNetwork:
    return load_network(FIG1 / "firms.csv", FIG1 / "edges.csv")


@pytest.fixture(scope="session")
def fig1_matrix() -> EssentialityMatrix:
    return EssentialityMatrix.from_csv(FIG1 / "essentiality.csv")


@pytest.fixture()
def fig1_pf(fig1_net, fig1_matrix):
    # the bundled fixture is calibrated with gamma = 0
    return calibrate(fig1_net, classify_inputs(fig1_net, fig1_matrix), gamma=0.0)


class RandomCase:
    """A small random network in both package and raw dense form."""

    def __init__(self, rng: np.random.Generator, n_max: int = 12):
        n = int(rng.integers(2, n_max + 1))
        self.n = n
        self.ids = [f"f{k}" for k in range(n)]
        self.sectors = [str(rng.choice(SECTOR_POOL)) for _ in range(n)]

        self.dense = [[0.0] * n for _ in range(n)]
        edges: list[SupplyEdge] = []
        p_edge = float(rng.uniform(0.15, 0.45))
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < p_edge:
                    w = float(rng.uniform(0.1, 10.0))
                    self.dense[i][j] = w
                    edges.append(SupplyEdge(self.ids[i], self.ids[j], w))
        if not edges:  # keep at least one supply relation
            self.dense[0][1] = 1.0
            edges.append(SupplyEdge(self.ids[0], self.ids[1], 1.0))

        self.employees: list[int | None] = [
            int(rng.integers(1, 100)) if rng.random() < 0.8 else None for _ in range(n)
        ]
        if all(e is None for e in self.employees):
            self.employees[0] = 10
        self.co2: list[float | None] = [
            float(rng.uniform(0.5, 100.0)) if rng.random() < 0.7 else None for _ in range(n)
        ]
        self.ets = [c is not None and rng.random() < 0.5 for c in self.co2]

        firms = [
            Firm(
                id=self.ids[k],
                sector=self.sectors[k],
                employees=self.employees[k],
                co2=self.co2[k],
                ets_member=self.ets[k],
            )
            for k in range(n)
        ]
        self.net = ProductionNetwork(firms, edges)

        # random essentiality over the observed sector pairs
        self.ess: dict[tuple[str, str], bool] = {}
        for i in range(n):
            for j in range(n):
                if self.dense[i][j] > 0.0:
                    pair = (self.sectors[i], self.sectors[j])
                    if pair not in self.ess:
                        self.ess[pair] = bool(rng.random() < 0.4)
        self.matrix = EssentialityMatrix(pairs=dict(self.ess), default_rule="non-essential")

    def pf(self, gamma: float):
        return calibrate(self.net, classify_inputs(self.net, self.matrix), gamma=gamma)

    def scenario_ids(self, rng: np.random.Generator, max_share: float = 0.5) -> tuple[str, ...]:
        k = int(rng.integers(0, max(1, int(self.n * max_share)) + 1))
        if k == 0:
            return ()
        picked = rng.choice(self.n, size=k, replace=False)
        return tuple(self.ids[int(i)] for i in sorted(picked))
