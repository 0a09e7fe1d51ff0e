"""Surface codes and grid cluster states: certificates and decompositions."""

import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from stablulc.embedding import (EmbeddedGraph, complete_graph, double_edge,
                                format_graph, toric_grid)
from stablulc.errors import PreconditionError
from stablulc.oracle import state_from_stabilizer
from stablulc.pauli import PauliOperator
from stablulc.surface import (build_code, build_state, graph_state_group,
                              grid_cluster_state, grid_edges,
                              grid_minimality_certificate, lulc_certificate,
                              minimal_decompositions, short_cycle_free,
                              simple_graph_girth,
                              transversal_clifford_conclusion,
                              transversal_precondition_report,
                              z_only_centralizer_check)

TORIC = build_code(toric_grid(3, 3))


# -- code construction ----------------------------------------------------------

def test_toric_code_parameters():
    assert TORIC.n == 18
    assert TORIC.genus == 1
    assert TORIC.num_logical_pairs == 2
    assert TORIC.stabilizer.dim == 16          # n - 2g
    assert not TORIC.has_loops


def test_generators_commute_and_split_by_type():
    for v in TORIC.site_vertices:
        assert TORIC.site_operator(v).z == 0
    for i in TORIC.face_indices:
        assert TORIC.face_operator(i).x == 0
    gens = TORIC.stabilizer.generators
    for a, b in itertools.combinations(gens, 2):
        assert a.commutes_with(b)


def test_dependent_generators_are_dropped_deterministically():
    # one vertex star and one face boundary are forced out on the torus
    assert len(TORIC.site_vertices) == 8
    assert len(TORIC.face_indices) == 8
    again = build_code(toric_grid(3, 3))
    assert again.site_vertices == TORIC.site_vertices
    assert again.face_indices == TORIC.face_indices


def test_logical_pairs_have_the_right_algebra():
    for i, (x_op, z_op) in enumerate(TORIC.logical_pairs):
        assert x_op.z == 0 and z_op.x == 0
        assert not x_op.commutes_with(z_op)
        for g in TORIC.stabilizer.generators:
            assert g.commutes_with(x_op) and g.commutes_with(z_op)
        for j, (x2, z2) in enumerate(TORIC.logical_pairs):
            if i != j:
                assert x_op.commutes_with(z2) and x_op.commutes_with(x2)


def test_build_code_rejects_disconnected_or_empty():
    lone = EmbeddedGraph(("v",), {}, {})
    with pytest.raises(PreconditionError):
        build_code(lone)


def test_z_only_centralizer_check_passes_on_the_torus():
    assert z_only_centralizer_check(TORIC) == (True, None)


def test_planar_code_encodes_nothing():
    square = EmbeddedGraph(
        ("a", "b", "c", "d"),
        {"e0": ("a", "b"), "e1": ("b", "c"), "e2": ("c", "d"),
         "e3": ("d", "a")},
        {"a": (("e0", 0), ("e3", 1)), "b": (("e1", 0), ("e0", 1)),
         "c": (("e2", 0), ("e1", 1)), "d": (("e3", 0), ("e2", 1))})
    code = build_code(square)
    assert code.genus == 0 and code.num_logical_pairs == 0
    assert code.stabilizer.dim == code.n


# -- states ------------------------------------------------------------------------

def test_build_state_ranks_and_bounds():
    for l in range(3):
        state = build_state(TORIC, l)
        assert state.group.dim == 18 and state.l == l
    with pytest.raises(PreconditionError):
        build_state(TORIC, 3)
    with pytest.raises(PreconditionError):
        build_state(TORIC, -1)


# -- minimal decompositions -----------------------------------------------------

def test_toric_decompositions_are_minimal_and_unique():
    # every site and face operator, including the two dependent ones
    decos = minimal_decompositions(TORIC)
    assert len(decos) == 9 + 9
    group = TORIC.stabilizer
    for d in decos:
        # on the 3x3 torus each generator is already a minimal element,
        # and it is the unique group element with its support
        assert d.parts == (d.operator,)
        assert d.uniqueness_counts == (1,)
        assert d.operator.weight() == 4
        assert group.count_support_eq(d.operator.support()) == 1


def test_decompositions_require_girth_hypothesis():
    with pytest.raises(PreconditionError, match="cocycle"):
        minimal_decompositions(build_code(complete_graph(3)))


def test_lulc_certificate_on_all_logical_choices():
    for l in range(3):
        cert = lulc_certificate(build_state(TORIC, l))
        assert cert.certified
        assert cert.line() == (
            "CERTIFIED theorem=surfaceCode details=qubits=18,"
            f"genus=1,l={l},girth=3,cogirth=3")


def test_doubled_edge_fails_the_hypothesis():
    doubled = build_code(double_edge(toric_grid(3, 3), "h0_0", "p"))
    state = build_state(doubled, 0)
    cert = lulc_certificate(state)
    assert not cert.certified
    assert cert.line() == ("HYPOTHESIS_FAILED theorem=surfaceCode"
                           " reason=girth=2")


# -- transversal conclusions -----------------------------------------------------

def test_fixed_element_on_a_minimal_support():
    omega = TORIC.site_operator(TORIC.site_vertices[0]).support()
    rep = transversal_precondition_report(TORIC, omega)
    assert rep.dim_s_omega == 1 and rep.b_omega == 2
    assert len(rep.fixed_elements) == 1
    assert rep.fixed_elements[0].support() == rep.omega


def test_toric_code_admits_no_transversal_non_clifford():
    conc = transversal_clifford_conclusion(TORIC)
    assert conc.all_forced
    assert conc.line() == ("FORCED_CLIFFORD qubits=18/18"
                           " conclusion=no_transversal_non-Clifford"
                           "_logical_gate")


# -- grid cluster states -----------------------------------------------------------

def test_grid_cluster_state_matches_dense_graph_state():
    group = grid_cluster_state(2, 3)
    state = state_from_stabilizer(group)
    edges = set(map(tuple, grid_edges(2, 3)))
    for x in range(1 << 6):
        q = sum(1 for a, b in edges if (x >> a) & (x >> b) & 1) % 2
        expect = (-1) ** q / np.sqrt(1 << 6)
        assert abs(state.amplitude(x) - expect) < 1e-9


def test_grid_certificates():
    assert grid_minimality_certificate(2, 3).certified
    assert grid_minimality_certificate(5, 5).line() == (
        "CERTIFIED theorem=grid details=rows=5,cols=5,qubits=25")

    bell = grid_minimality_certificate(1, 2)
    assert bell.status == "FAILED" and bell.reason == "bell_pair"
    assert bell.witness == (0, 1)
    assert bell.line() == ("FAILED theorem=grid reason=bell_pair"
                           " witness=(0,1)")


def test_degree_pockets_break_minimality():
    # around a degree-4 vertex of the 3x3 open grid the four neighbour
    # generators multiply to a pure-X element strictly inside its star;
    # the same happens at path interiors and on the 2x2 square
    for dims, witness in [((3, 3), 4), ((2, 2), 0), ((1, 3), 1)]:
        cert = grid_minimality_certificate(*dims)
        assert cert.status == "FAILED"
        assert cert.reason == "nonminimal_generator"
        assert cert.witness == witness


def test_simple_graph_girth_helper():
    ring5 = [(i, (i + 1) % 5) for i in range(5)]
    assert simple_graph_girth(5, ring5) == 5
    assert short_cycle_free(5, ring5)
    ring4 = [(i, (i + 1) % 4) for i in range(4)]
    assert simple_graph_girth(4, ring4) == 4
    assert not short_cycle_free(4, ring4)
    path = [(0, 1), (1, 2)]
    assert simple_graph_girth(3, path) == float("inf")
    assert short_cycle_free(3, path)
    assert simple_graph_girth(25, grid_edges(5, 5)) == 4


def test_graph_state_group_shape():
    group = graph_state_group(4, [(0, 1), (2, 3)])
    assert group.dim == 4
    for g in group.generators:
        assert g.x.bit_count() == 1


# -- checks under python -O ----------------------------------------------------

_OPTIMIZED_SCRIPT = textwrap.dedent("""
    import sys
    from stablulc.cli import main
    from stablulc.errors import InvariantError
    from stablulc.pauli import PauliOperator
    from stablulc.surface import MinimalDecomposition
    print("debug", __debug__)
    main(["surface-certify", sys.argv[1]])
    op = PauliOperator.from_string("XXI")
    try:   # the part misses qubit 1, so the parts do not cover op
        MinimalDecomposition("site", "v", op,
                             (PauliOperator.from_string("XII"),), (1,))
    except InvariantError as exc:
        print("raised:", exc)
""")


def test_invariants_survive_python_optimize(tmp_path):
    path = tmp_path / "toric.graph"
    path.write_text(format_graph(toric_grid(3, 3)), encoding="ascii")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT,
                           str(path)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "CERTIFIED theorem=surfaceCode details=qubits=18,genus=1,l=0,"
        "girth=3,cogirth=3",
        "raised: parts do not cover the operator's support",
    ]
