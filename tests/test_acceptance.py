"""Release gate: one test per headline claim, each printing a summary line.

Every test re-checks its claim end to end at the stated size and tolerance,
against an oracle that does not share a code path with the result under
test.  `criterion(...)` (conftest) times the block and adds one PASS/FAIL
line to the "acceptance criteria" section of the terminal summary.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

import numpy as np

from conftest import criterion, random_embedded_graph, random_feasible_seed
from stablulc.cli import main
from stablulc.embedding import (EmbeddedGraph, complete_graph, double_edge,
                                is_isomorphic, toric_grid)
from stablulc.factory import (diag_action_oracle_phase, encode_pair,
                              length_plan, parse_seed, pullback_assignment,
                              reachable_without_rep, rep2, rm15,
                              transversal_diag_action)
from stablulc.gf2 import BitMatrix, BitVector, nullspace, rref
from stablulc.matroid import (css_counterexample_screen,
                              excluded_minor_catalog, is_cographic,
                              is_graphic, minor_closure_check,
                              surface_code_matroid)
from stablulc.oracle import QuadraticFormState, dlc_feasible
from stablulc.surface import (build_code, build_state,
                              grid_minimality_certificate, lulc_certificate,
                              minimal_decompositions,
                              transversal_clifford_conclusion)


def test_criterion_01_grid_states_certified_minimal():
    with criterion(1, "open-grid cluster states") as c:
        start = time.perf_counter()
        for rows in range(5, 8):
            for cols in range(5, 8):
                cert = grid_minimality_certificate(rows, cols)
                assert cert.line() == (
                    f"CERTIFIED theorem=grid details=rows={rows},"
                    f"cols={cols},qubits={rows * cols}")
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        bell = grid_minimality_certificate(1, 2)
        assert bell.line() == ("FAILED theorem=grid reason=bell_pair"
                               " witness=(0,1)")
        c.detail = (f"all 5<=m,n<=7 certified in {elapsed:.2f}s;"
                    " 1x2 reports Bell witness (0,1)")


def test_criterion_02_toric_code_certified_each_logical_choice():
    with criterion(2, "3x3 toric-code certificates") as c:
        start = time.perf_counter()
        code = build_code(toric_grid(3, 3))
        for l in range(3):
            cert = lulc_certificate(build_state(code, l))
            assert cert.line() == (
                "CERTIFIED theorem=surfaceCode details=qubits=18,"
                f"genus=1,l={l},girth=3,cogirth=3")
        doubled = build_code(double_edge(toric_grid(3, 3), "h0_0", "p"))
        refusal = lulc_certificate(build_state(doubled, 0))
        assert refusal.line() == ("HYPOTHESIS_FAILED theorem=surfaceCode"
                                  " reason=girth=2")
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        c.detail = (f"l=0,1,2 certified and a doubled edge refused"
                    f" in {elapsed:.2f}s")


def _support_census(group) -> Counter:
    """Support-mask counts over the whole group, by plain XOR accumulation.

    Walks the same Gray order as the enumeration in the library but never
    touches the Pauli product, so it cross-checks rather than echoes it.
    """
    xs = [g.x for g in group.generators]
    zs = [g.z for g in group.generators]
    census: Counter = Counter({0: 1})
    cur_x = cur_z = 0
    for m in range(1, 1 << len(xs)):
        k = (m & -m).bit_length() - 1
        cur_x ^= xs[k]
        cur_z ^= zs[k]
        census[cur_x | cur_z] += 1
    return census


def test_criterion_03_uniqueness_counts_cross_checked():
    with criterion(3, "toric uniqueness counts") as c:
        code = build_code(toric_grid(3, 3))
        census = _support_census(code.stabilizer)
        decos = minimal_decompositions(code)
        assert len(decos) == 18
        agreements = 0
        for deco in decos:
            assert deco.parts == (deco.operator,)
            for part, count in zip(deco.parts, deco.uniqueness_counts):
                assert count == 1
                assert code.stabilizer.count_support_eq(part.support()) == 1
                assert census[part.support_mask()] == 1
                agreements += 1
        c.detail = (f"{agreements}/18 counts are 1; brute-force census and"
                    " count_support_eq agree 100%")


def test_criterion_04_no_transversal_non_clifford_gate():
    with criterion(4, "toric transversal-gate conclusion") as c:
        conclusion = transversal_clifford_conclusion(
            build_code(toric_grid(3, 3)))
        assert conclusion.all_forced
        assert conclusion.line() == ("FORCED_CLIFFORD qubits=18/18"
                                     " conclusion=no_transversal_non-Clifford"
                                     "_logical_gate")
        c.detail = "all 18 qubits forced Clifford"


def test_criterion_05_length_plans_and_reachability():
    with criterion(5, "composite length arithmetic") as c:
        start = time.perf_counter()
        shapes = {n: (p.i, p.j, p.t)
                  for n in (41, 57, 28) for p in [length_plan(n)]}
        assert shapes == {41: (1, 0, 0), 57: (0, 1, 0), 28: (0, 0, 1)}
        assert all(reachable_without_rep(n) for n in range(195, 501, 2))
        unreachable_odd = [n for n in range(1, 501, 2)
                           if not reachable_without_rep(n)]
        assert max(unreachable_odd) == 193
        for n in range(1, 501):
            planned = length_plan(n, allow_rep=False) is not None
            assert planned == reachable_without_rep(n)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        c.detail = ("41=(1,0,0) 57=(0,1,0) 28=(0,0,1); every odd 195..499"
                    " reachable with t=0; largest odd gap is 193")


def test_criterion_06_transversal_phases_match_dense_oracle():
    with criterion(6, "transversal phase gates") as c:
        start = time.perf_counter()
        small = rep2()
        eighth = transversal_diag_action(small, math.pi / 8)
        assert eighth.preserved
        assert eighth.phi == math.pi / 4          # exact: weights are integers
        assert abs(diag_action_oracle_phase(small, math.pi / 8)
                   - eighth.phi) < 1e-8
        big = rm15()
        quarter = transversal_diag_action(big, math.pi / 4)
        assert quarter.preserved and quarter.non_clifford()
        assert set(quarter.weights_zero) == {0, 8}
        assert set(quarter.weights_one) == {7, 15}
        assert abs(quarter.phi + math.pi / 4) < 1e-12
        dense_phi = diag_action_oracle_phase(big, math.pi / 4)
        assert dense_phi is not None
        assert abs(dense_phi - quarter.phi) < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        c.detail = ("rep2 + sqrt(T) acts as logical T exactly; rm15 + T"
                    f" gives phi=-pi/4, 15-qubit oracle agrees to 1e-8"
                    f" in {elapsed:.2f}s")


def _seed_without_constant_qubits(rng, n):
    """A feasible seed every qubit of which varies over the subspace."""
    while True:
        seed = random_feasible_seed(rng, n)
        if all(any(r[j] for r in seed.basis.rows) for j in range(seed.n)):
            return seed


def test_criterion_07_encodings_preserve_dlu_equivalence():
    with criterion(7, "encoded pairs stay DLU-equivalent") as c:
        rng = random.Random(2026)
        code = rep2()
        encodings = 0
        for _ in range(20):
            seed = _seed_without_constant_qubits(rng, rng.randint(2, 4))
            assert seed.verify_dlu()
            for j in range(seed.n):
                encoded = encode_pair(seed, j, code)
                assert encoded.n == seed.n + 1
                assert encoded.verify_dlu()
                encodings += 1
        c.detail = (f"20 random seeds (n<=4), {encodings} encodings,"
                    " dense oracle passes 100%")


def _exhaustive_dlc_feasible(qf: QuadraticFormState) -> bool:
    """Try all 4^n phase assignments at once (vectorized)."""
    n = qf.n
    points = list(qf.elements())
    xbits = np.array([[(bits >> j) & 1 for j in range(n)]
                      for bits, _ in points], dtype=np.int8)
    targets = np.array([2 * q for _, q in points], dtype=np.int8)
    codes = np.arange(1 << (2 * n), dtype=np.int64)
    digits = ((codes[:, None] >> (2 * np.arange(n))) & 3).astype(np.int8)
    sums = digits @ xbits.T                       # values stay below 25
    return bool(((sums - targets) % 4 == 0).all(axis=1).any())


def test_criterion_08_dlc_solver_matches_exhaustive_search():
    with criterion(8, "DLC solver vs 4^n search") as c:
        rng = random.Random(8)
        instances = 0
        feasible_count = 0
        for _ in range(520):
            n = rng.randint(1, 8)
            rows = tuple(BitVector(n, rng.randrange(1, 1 << n))
                         for _ in range(rng.randint(1, n)))
            basis, _, _ = rref(BitMatrix(n, rows))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            coeffs = frozenset(p for p in pairs if rng.random() < 0.4)
            qf = QuadraticFormState(basis, coeffs)
            witness = dlc_feasible(qf)
            assert (witness is not None) == _exhaustive_dlc_feasible(qf)
            if witness is not None:
                feasible_count += 1
                for bits, q in qf.elements():
                    total = sum(witness[j] for j in range(n)
                                if (bits >> j) & 1)
                    assert (total - 2 * q) % 4 == 0
            instances += 1
        edge_pair = QuadraticFormState(
            BitMatrix(2, (BitVector(2, 0b01), BitVector(2, 0b10))),
            {(0, 1)})
        assert dlc_feasible(edge_pair) is None
        assert not _exhaustive_dlc_feasible(edge_pair)
        instances += 1
        assert instances >= 500
        c.detail = (f"{instances} instances (n<=8) agree 100%;"
                    f" {feasible_count} feasible; CZ edge pair infeasible"
                    " on both sides")


def test_criterion_09_matroid_layer_identities_and_screen():
    with criterion(9, "matroid duality, minors, screen") as c:
        start = time.perf_counter()
        corpus = [complete_graph(3), complete_graph(4), toric_grid(2, 2)]
        seed = 0
        while len(corpus) < 120:
            g = random_embedded_graph(random.Random(seed), max_vertices=5,
                                      max_edges=8, connected=True)
            seed += 1
            if g.num_edges >= 2:
                corpus.append(g)
        minor_checks = 0
        for g in corpus:
            m = surface_code_matroid(g)
            assert m.dual().dual().equals(m)
            assert m.rank + m.dual().rank == m.size
            for e in sorted(g.edges):
                assert minor_closure_check(g, e)
                minor_checks += 1
        torus = toric_grid(2, 2)
        chosen = [x for x, _ in torus.homology_logical_supports()]
        assert (surface_code_matroid(torus, chosen).rank
                == surface_code_matroid(torus).rank + 2)
        for e in sorted(torus.edges):
            assert minor_closure_check(torus, e, chosen)
            minor_checks += 1

        fano = excluded_minor_catalog().named()["F7"]
        assert not is_graphic(fano) and not is_cographic(fano)

        cut_space, _, _ = rref(complete_graph(4).incidence_matrix())
        k4 = css_counterexample_screen(cut_space, nullspace(cut_space))
        assert k4.line() == "RULED_OUT graphic"
        assert (k4.n, k4.d, k4.d_dual) == (6, 3, 3)

        checks = BitMatrix(7, (BitVector.from_string("1010101"),
                               BitVector.from_string("0110011"),
                               BitVector.from_string("0001111")))
        hamming = css_counterexample_screen(nullspace(checks), checks)
        assert hamming.line() == "INCONCLUSIVE"
        assert (hamming.n, hamming.d, hamming.d_dual) == (7, 3, 4)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        c.detail = (f"{len(corpus)} graphs, {minor_checks} minor identities;"
                    " F7 neither graphic nor cographic; Hamming INCONCLUSIVE;"
                    " K4 RULED_OUT graphic")


def _without_isolated(g: EmbeddedGraph) -> EmbeddedGraph:
    keep = tuple(v for v in g.vertices if g.rotations[v])
    return EmbeddedGraph(keep, dict(g.edges),
                         {v: g.rotations[v] for v in keep})


def _every_edge_two_sided(g: EmbeddedGraph) -> bool:
    """No loops and no edge with the same face on both sides."""
    dual = g.dual()
    return all(g.edges[e][0] != g.edges[e][1]
               and dual.edges[e][0] != dual.edges[e][1] for e in g.edges)


def test_criterion_10_duality_exchanges_deletion_and_contraction():
    # Loop contraction is defined as deletion here (matching the matroid
    # convention), so the exchange identities are checked on edges with two
    # distinct endpoints and two distinct sides -- where they are exact.
    # Deletion may strand a degree-0 vertex that has no face counterpart,
    # so both sides are compared after dropping isolated vertices.
    with criterion(10, "dual exchanges deletion/contraction") as c:
        graphs = [complete_graph(3)]
        seed = 0
        while len(graphs) < 101:
            g = random_embedded_graph(random.Random(seed), max_vertices=5,
                                      max_edges=8, connected=True)
            seed += 1
            assert seed < 20000
            if g.num_edges >= 1 and _every_edge_two_sided(g):
                graphs.append(g)
        edges_checked = 0
        for g in graphs:
            dual = g.dual()
            for e in sorted(g.edges):
                assert is_isomorphic(
                    _without_isolated(g.delete_edge(e).dual()),
                    _without_isolated(dual.contract_edge(e)))
                assert is_isomorphic(
                    _without_isolated(g.contract_edge(e).dual()),
                    _without_isolated(dual.delete_edge(e)))
                edges_checked += 1
        c.detail = (f"100 sampled graphs (plus K3), {edges_checked} edges,"
                    " both identities pass 100%")


SYNTHETIC_INFEASIBLE = ("# provenance: synthetic-infeasible\n"
                        "2\n10\n01\nq:\n1 2\ndlu: 0 0\n")


def test_criterion_11_counterexample_claim_is_property_based(tmp_path,
                                                             capsys):
    # No explicit 27-qubit pair ships with this repository, so the
    # counterexample pipeline is vouched for by criteria 7 and 8 plus the
    # pullback law below, and the seed-file path is integration-tested with
    # a synthetic infeasible seed.
    with criterion(11, "counterexample pipeline disclosure") as c:
        seed = parse_seed(SYNTHETIC_INFEASIBLE)
        assert not seed.verify_dlu()
        assert seed.dlc_status() is None
        encoded = encode_pair(seed, 0, rep2())
        assert encoded.dlc_status() is None      # infeasibility survives

        feasible = random_feasible_seed(random.Random(11), 3)
        lifted = encode_pair(feasible, 1, rep2())
        lifted_witness = lifted.dlc_status()
        assert lifted_witness is not None
        pulled = pullback_assignment(lifted_witness, feasible, 1, rep2())
        source = QuadraticFormState(feasible.basis, feasible.coeffs)
        for bits, q in source.elements():
            total = sum(pulled[j] for j in range(source.n)
                        if (bits >> j) & 1)
            assert (total - 2 * q) % 4 == 0

        seed_path = tmp_path / "synthetic.seed"
        seed_path.write_text(SYNTHETIC_INFEASIBLE)
        form_path = tmp_path / "synthetic.qf"
        form_path.write_text("2\n10\n01\nq:\n1 2\n")
        assert main(["dlc-check", str(form_path)]) == 2
        assert capsys.readouterr().out == "INFEASIBLE\n"
        code = main(["factory-encode", "--seed", str(seed_path),
                     "--qubit", "1", "--code", "rep2", "--verify"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("VERIFY_FAILED")
        assert parse_seed(captured.out).n == 3
        c.detail = ("no 27-qubit pair to replay; claim rests on criteria"
                    " 7-8 and the pullback law; synthetic infeasible seed"
                    " exercised through the CLI")
