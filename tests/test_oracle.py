"""Dense-state oracle: the independent ground truth for everything else.

The oracle is only trusted because its pieces corroborate each other:
quadratic-form amplitudes vs stabilizer projectors, DLC assignments vs
explicit matrix action, and exhaustive searches at toy sizes.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feasible_form
from stablulc.errors import FormatError, PreconditionError
from stablulc.gf2 import BitMatrix, BitVector, Mod4Eliminator, rref
from stablulc.oracle import (DenseState, DiagonalLocalUnitary,
                             QuadraticFormState, apply_dlu, apply_pauli,
                             dlc_assignment_to_dlu,
                             dlc_feasible, equal_up_to_global_phase,
                             format_quadratic_form, parse_quadratic_form,
                             reduce_to_css_pair, stabilizer_from_quadratic_form,
                             state_from_quadratic_form, state_from_stabilizer,
                             verify_dlu_pair)
from stablulc.pauli import PauliOperator, StabilizerGroup


@st.composite
def quadratic_states(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    nrows = draw(st.integers(1, n))
    rows = []
    for _ in range(nrows):
        rows.append(BitVector(n, draw(st.integers(1, (1 << n) - 1))))
    basis, rank, _ = rref(BitMatrix(n, tuple(rows)))
    pairs = frozenset(
        p for p in itertools.combinations(range(n), 2)
        if draw(st.booleans()))
    return QuadraticFormState(basis, pairs)


def test_quadratic_form_amplitudes_match_direct_sum():
    basis = BitMatrix(3, (BitVector(3, 0b011), BitVector(3, 0b100)))
    qf = QuadraticFormState(basis, frozenset({(0, 2)}))
    state = state_from_quadratic_form(qf)
    for x in range(8):
        in_s = x in {0, 0b011, 0b100, 0b111}
        expect = 0.0
        if in_s:
            q = ((x >> 0) & (x >> 2)) & 1
            expect = (-1) ** q / 2.0
        assert abs(state.amplitude(x) - expect) < 1e-12


@given(quadratic_states())
@settings(deadline=None)
def test_stabilizer_group_fixes_the_state(qf):
    state = state_from_quadratic_form(qf)
    group = stabilizer_from_quadratic_form(qf)
    assert group.dim == qf.n
    for g in group.generators:
        moved = apply_pauli(g, state)
        assert np.allclose(moved.amplitudes, state.amplitudes, atol=1e-12)


@given(quadratic_states())
@settings(deadline=None)
def test_projector_state_agrees_with_amplitude_formula(qf):
    group = stabilizer_from_quadratic_form(qf)
    a = state_from_stabilizer(group)
    b = state_from_quadratic_form(qf)
    assert equal_up_to_global_phase(a, b)


def test_state_from_stabilizer_requires_full_rank():
    group = StabilizerGroup(2, (PauliOperator.from_string("XX"),))
    with pytest.raises(PreconditionError):
        state_from_stabilizer(group)


def test_apply_dlu_matrix_semantics():
    amps = np.full(4, 0.5, dtype=complex)
    state = apply_dlu(DiagonalLocalUnitary((math.pi / 2, math.pi)),
                      DenseState(2, amps))
    # phase i^(x0) * (-1)^(x1)
    assert np.allclose(state.amplitudes, [0.5, 0.5j, -0.5, -0.5j])


@settings(max_examples=60)
@given(st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_apply_dlu_matches_per_element_phases(thetas, seed):
    n = len(thetas)
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    out = apply_dlu(DiagonalLocalUnitary(tuple(thetas)), DenseState(n, amps))
    for x in range(1 << n):
        angle = sum(t for j, t in enumerate(thetas) if x >> j & 1)
        assert abs(out.amplitudes[x] - amps[x] * np.exp(1j * angle)) < 1e-12


def test_equal_up_to_global_phase():
    a = DenseState(1, np.array([1, 1]) / math.sqrt(2))
    b = DenseState(1, np.exp(1j * 0.7) * a.amplitudes)
    c = DenseState(1, np.array([1, -1]) / math.sqrt(2))
    assert equal_up_to_global_phase(a, b)
    assert not equal_up_to_global_phase(a, c)


# -- DLC feasibility ---------------------------------------------------------------

def _brute_dlc(qf: QuadraticFormState):
    """Exhaustive 4^n search for the mod-4 assignment."""
    points = list(qf.elements())
    for a in itertools.product(range(4), repeat=qf.n):
        if all(sum(a[j] for j in BitVector(qf.n, x).support()) % 4 == 2 * q
               for x, q in points):
            return a
    return None


@given(quadratic_states(max_n=4))
@settings(deadline=None, max_examples=60)
def test_dlc_feasible_matches_exhaustive_search(qf):
    got = dlc_feasible(qf)
    brute = _brute_dlc(qf)
    assert (got is None) == (brute is None)


@given(quadratic_states(max_n=5))
@settings(deadline=None, max_examples=60)
def test_dlc_assignment_verifies_on_the_oracle(qf):
    a = dlc_feasible(qf)
    if a is None:
        return
    u = dlc_assignment_to_dlu(a)
    zero = QuadraticFormState(qf.basis, frozenset())
    assert verify_dlu_pair(zero, qf, u)


def _walk_dlc(qf: QuadraticFormState):
    """Every subspace element into the Z4 eliminator, as a 2^k reference."""
    elim = Mod4Eliminator(qf.n)
    for bits, qx in qf.elements():
        if bits and not elim.add(bits, 2 * qx):
            return None
    return elim.solution()


@st.composite
def feasible_states(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n))
    return feasible_form(draw(st.randoms(use_true_random=False)), n, k)


@given(st.one_of(quadratic_states(max_n=10), feasible_states()))
@settings(deadline=None, max_examples=400)
def test_dlc_feasible_matches_the_full_subspace_walk(qf):
    got = dlc_feasible(qf)
    assert (got is None) == (_walk_dlc(qf) is None)
    if got is not None:
        for bits, qx in qf.elements():
            total = sum(got[j] for j in BitVector(qf.n, bits).support())
            assert (total - 2 * qx) % 4 == 0


def test_edge_graph_pair_is_infeasible():
    # S = F2^2 with q = x0 x1: the controlled-Z pair, provably not DLC
    basis = BitMatrix(2, (BitVector(2, 0b01), BitVector(2, 0b10)))
    qf = QuadraticFormState(basis, frozenset({(0, 1)}))
    assert dlc_feasible(qf) is None


def test_verify_dlu_pair_positive_and_negative():
    basis = BitMatrix(2, (BitVector(2, 0b11),))
    plain = QuadraticFormState(basis, frozenset())
    signed = QuadraticFormState(basis, frozenset({(0, 1)}))
    u = DiagonalLocalUnitary((math.pi / 4, 3 * math.pi / 4))
    assert verify_dlu_pair(plain, signed, u)
    assert not verify_dlu_pair(plain, signed, DiagonalLocalUnitary((0.0, 0.0)))
    other = QuadraticFormState(BitMatrix(2, (BitVector(2, 0b01),)),
                               frozenset())
    with pytest.raises(PreconditionError, match="share"):
        verify_dlu_pair(plain, other, u)


def test_reduce_to_css_pair_cancels_common_terms():
    basis = BitMatrix(3, (BitVector(3, 0b011), BitVector(3, 0b100)))
    a = QuadraticFormState(basis, frozenset({(0, 1), (1, 2)}))
    b = QuadraticFormState(basis, frozenset({(1, 2), (0, 2)}))
    zero, diff = reduce_to_css_pair(a, b)
    assert zero.coeffs == frozenset()
    assert diff.coeffs == frozenset({(0, 1), (0, 2)})


def test_dlu_helpers():
    u = DiagonalLocalUnitary((0.0, math.pi / 4, math.pi / 2))
    assert u.non_clifford_qubits() == (1,)
    assert not u.all_non_clifford()
    assert u.drop_qubit(1).thetas == (0.0, math.pi / 2)
    assert u.extend((1.0,)).n == 4


# -- text format ---------------------------------------------------------------------

def test_quadratic_form_round_trip():
    basis = BitMatrix(3, (BitVector(3, 0b011), BitVector(3, 0b100)))
    qf = QuadraticFormState(basis, frozenset({(0, 2), (1, 2)}))
    back = parse_quadratic_form(format_quadratic_form(qf))
    assert back.same_subspace(qf) and back.coeffs == qf.coeffs


def test_parse_quadratic_form_diagnostics():
    with pytest.raises(FormatError):
        parse_quadratic_form("")
    with pytest.raises(FormatError, match="out of range"):
        parse_quadratic_form("2\n11\nq:\n1 5\n")
    # q pairs are 1-based; i == j is rejected
    with pytest.raises(FormatError):
        parse_quadratic_form("2\n11\nq:\n1 1\n")


def test_parse_quadratic_form_rejects_a_repeated_pair():
    # Two copies of x_1 x_2 cancel over GF(2), so a repeat is not one term.
    with pytest.raises(FormatError, match=r"line 5: duplicate pair '1 2'"
                                          r" \(first on line 4\)"):
        parse_quadratic_form("3\n111\nq:\n1 2\n1 2\n")


def test_parse_quadratic_form_requires_i_below_j():
    with pytest.raises(FormatError, match=r"line 4: pair must have i < j,"
                                          r" got '2 1'"):
        parse_quadratic_form("2\n11\nq:\n2 1\n")
