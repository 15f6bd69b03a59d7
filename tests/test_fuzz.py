"""Seeded fuzzing of the inputs: bad bytes and bad field values are data errors.

Each byte-edit case copies one input, makes 1-4 random byte edits to it
(replace, insert or delete) and runs the commands that read it.  Every
command must exit 0 or 3, never end in a traceback, and leave no temporary
file.  Each field-value case sets 1-3 fields of in-memory firms and edges
to values from a fixed pool; the constructor must raise a NetworkError or
build the network that its written files load as.  The seeds and the case
counts are fixed once; they are not chosen to pass.
"""
from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np

from esri_net import Firm, NetworkError, ProductionNetwork, SupplyEdge, load_network, write_network
from esri_net.cli import INDEX_COLUMNS, main

from conftest import FIG1

SEED = 20261018
CASES = 200

NETWORK_FILES = ("firms.csv", "edges.csv", "essentiality.csv")
CANDIDATES = b"a\nb\nd\n"
# an esri indices.csv whose ratios span both regimes of the default fit
RATIOS = (5000.0, 3000.0, 2000.0, 1500.0, 500.0, 200.0, 100.0, 50.0, 5.0, 0.0)
INDICES = "".join(
    [",".join(INDEX_COLUMNS) + "\r\n"]
    + [f"f{k},0.1,{0.5 / r if r else 0.0!r},0.5,0.25,{r!r}\r\n" for k, r in enumerate(RATIOS)]
).encode()


def _edit(data: bytes, rng: np.random.Generator) -> bytes:
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        op = int(rng.integers(3)) if buf else 1
        if op == 1:
            buf.insert(int(rng.integers(len(buf) + 1)), int(rng.integers(256)))
        elif op == 0:
            buf[int(rng.integers(len(buf)))] = int(rng.integers(256))
        else:
            del buf[int(rng.integers(len(buf)))]
    return bytes(buf)


def _commands(target: str, case_dir):
    if target in NETWORK_FILES:
        net = case_dir / "net"
        return net, [
            ["validate", "--net", net],
            ["esri", "--net", net, "--gamma", 0, "--threads", 1, "--out", case_dir / "esri"],
            ["synth", "--fixture", net, "--out", case_dir / "copy"],
        ]
    if target == "candidates":
        ids = case_dir / "ids.txt"
        return ids, [
            ["esri", "--net", FIG1, "--candidates", ids, "--threads", 1, "--out", case_dir / "esri"],
            ["simulate", "--net", FIG1, "--remove", ids, "--out", case_dir / "sim"],
        ]
    indices = case_dir / "indices.csv"
    return indices, [["fit-regimes", "--indices", indices, "--out", case_dir / "fit"]]


def test_byte_edits_exit_0_or_3_and_leave_no_temporary(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    targets = (*NETWORK_FILES, "candidates", "indices")
    sources = {name: (FIG1 / name).read_bytes() for name in NETWORK_FILES}
    sources.update(candidates=CANDIDATES, indices=INDICES)
    exits = []
    for k in range(CASES):
        target = targets[int(rng.integers(len(targets)))]
        case_dir = tmp_path / f"case{k}"
        path, commands = _commands(target, case_dir)
        if target in NETWORK_FILES:
            path.mkdir(parents=True)
            for name in NETWORK_FILES:
                (path / name).write_bytes(sources[name])
            path = path / target
        else:
            case_dir.mkdir()
        path.write_bytes(_edit(sources[target], rng))
        for argv in commands:
            code = main([str(a) for a in argv])
            assert code in (0, 3), (k, target, argv, path.read_bytes())
            exits.append(code)
        left = [p.name for p in case_dir.rglob("*.tmp")]
        assert not left, (k, target, left)
    capsys.readouterr()
    assert exits.count(0) and exits.count(3)  # the edits reach both outcomes


FIELD_SEED = 20261019
FIELD_CASES = 300
FIELD_POOL = (
    "a", " b ", "c", "", "x,y", '"q"', None, 0, 1, -3, 2**60, np.int64(2), np.int32(-1), 1.5, -2.5, 0.0,
    math.nan, math.inf, -math.inf, np.float64(0.25), np.float32(3.0), True, False, np.True_, np.False_,
    "1", "0", " 7 ",
)
FIRMS = (Firm("a", "C10", 3, 1.5, True), Firm("b", "G46"), Firm("c", "A01", None, 0.25))
EDGES = (SupplyEdge("a", "b", 1.0), SupplyEdge("b", "c", 2.0), SupplyEdge("c", "a", 0.5), SupplyEdge("a", "b", 4.0))


def test_field_values_build_the_network_their_files_load_as_or_fail_as_data(tmp_path):
    rng = np.random.default_rng(FIELD_SEED)
    built = 0
    for k in range(FIELD_CASES):
        objects = [*FIRMS, *EDGES]
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(objects)))
            names = [f.name for f in fields(objects[at])]
            value = FIELD_POOL[int(rng.integers(len(FIELD_POOL)))]
            objects[at] = replace(objects[at], **{names[int(rng.integers(len(names)))]: value})
        firms, edges = objects[: len(FIRMS)], objects[len(FIRMS):]
        try:
            net = ProductionNetwork(firms, edges)
        except NetworkError:
            continue
        out = tmp_path / f"case{k}"
        write_network(net, out)
        assert load_network(out / "firms.csv", out / "edges.csv") == net, (k, firms, edges)
        built += 1
    assert 0 < built < FIELD_CASES  # the values reach both outcomes
