"""Shared helpers: deterministic random graphs/seeds and the acceptance report."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

from stablulc.embedding import EmbeddedGraph
from stablulc.factory import CounterexampleSeed
from stablulc.gf2 import BitMatrix, BitVector, rref
from stablulc.oracle import (QuadraticFormState, dlc_assignment_to_dlu,
                             dlc_feasible)


def random_embedded_graph(rng: random.Random, max_vertices: int = 5,
                          max_edges: int = 8,
                          connected: bool = False) -> EmbeddedGraph:
    """A valid random rotation system; loops and parallel edges allowed.

    When connected, the first num_vertices - 1 edges form a random
    spanning tree and the rest fall anywhere.
    """
    if connected:
        nv = rng.randint(1, min(max_vertices, max_edges + 1))
        ne = rng.randint(nv - 1, max_edges)
    else:
        nv = rng.randint(1, max_vertices)
        ne = rng.randint(0, max_edges)
    vertices = [f"v{i}" for i in range(nv)]
    edges = {}
    for k in range(ne):
        if connected and k < nv - 1:
            edges[f"e{k}"] = (vertices[rng.randrange(k + 1)], vertices[k + 1])
        else:
            edges[f"e{k}"] = (rng.choice(vertices), rng.choice(vertices))
    darts: dict[str, list] = {v: [] for v in vertices}
    for label, (u, v) in edges.items():
        darts[u].append((label, 0))
        darts[v].append((label, 1))
    rotations = {}
    for v in vertices:
        rot = darts[v][:]
        rng.shuffle(rot)
        rotations[v] = tuple(rot)
    return EmbeddedGraph(vertices, edges, rotations)


def feasible_form(rng: random.Random, n: int, k: int) -> QuadraticFormState:
    """A DLC-feasible form, n qubits and k basis rows, built without a solver.

    Column c of the basis holds a linear form cols[c] of the k coordinates;
    the first k columns are the coordinates, so the rows are independent.
    Each q term x_i x_j comes with a column l where x_l = x_i + x_j, and
    over the integers 2 x_i x_j = x_i + x_j - x_l, so 2q is linear on S.
    """
    cols = [1 << r for r in range(k)]
    pairs = set()
    while len(cols) < n:
        pair = tuple(sorted(rng.sample(range(len(cols)), 2))) if k > 1 else ()
        if pair and pair not in pairs and rng.random() < 0.6:
            pairs.add(pair)
            cols.append(cols[pair[0]] ^ cols[pair[1]])
        else:
            cols.append(rng.randrange(1, 1 << k))
    rows = tuple(
        BitVector(n, sum(((f >> r) & 1) << c for c, f in enumerate(cols)))
        for r in range(k))
    return QuadraticFormState(BitMatrix(n, rows), frozenset(pairs))


def random_feasible_seed(rng: random.Random, n: int) -> CounterexampleSeed:
    """A random DLC-feasible pair with the witness Clifford as its DLU."""
    while True:
        rows = [BitVector(n, rng.randrange(1, 1 << n))
                for _ in range(rng.randrange(1, n + 1))]
        basis, rank, _ = rref(BitMatrix(n, tuple(rows)))
        if rank == 0:
            continue
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        coeffs = frozenset(p for p in pairs if rng.random() < 0.4)
        qf = QuadraticFormState(basis, coeffs)
        a = dlc_feasible(qf)
        if a is None:
            continue
        return CounterexampleSeed(basis, coeffs, dlc_assignment_to_dlu(a))


# -- acceptance reporting -----------------------------------------------------------
#
# Each test in test_acceptance.py wraps its body in `criterion(...)`; the
# collected lines are printed as their own section of the terminal summary,
# one PASS/FAIL line per criterion, so the gate is readable at a glance even
# in a long -v run.

ACCEPTANCE_LINES: list[str] = []


@dataclass
class CriterionReport:
    detail: str = ""


@contextmanager
def criterion(number: int, title: str):
    report = CriterionReport()
    start = time.perf_counter()
    try:
        yield report
    except BaseException as exc:
        elapsed = time.perf_counter() - start
        note = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        ACCEPTANCE_LINES.append(f"criterion {number:2d}: FAIL  {title}"
                                f" -- {note[:120]} [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    note = f" -- {report.detail}" if report.detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number:2d}: PASS  {title}"
                            f"{note} [{elapsed:.2f}s]")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.line(line)
