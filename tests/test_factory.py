"""Counterexample factory: codes, transversal phases, encoding, lengths."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_feasible_seed
from stablulc.errors import CapExceeded, FormatError, PreconditionError
from stablulc.factory import (BASE_LENGTH, BUILTIN_CODES, CounterexampleSeed,
                              LengthPlan, diag_action_oracle_phase,
                              encode_pair, enumerate_lengths,
                              find_non_clifford_angle, format_css_code,
                              format_seed, length_plan, make_css_code,
                              match_logical_angle, parse_css_code,
                              parse_seed, pullback_assignment,
                              reachable_without_rep, rep2, rm15, rm31,
                              transversal_diag_action)
from stablulc.gf2 import BitMatrix, BitVector
from stablulc.oracle import DiagonalLocalUnitary, dlc_feasible

PI = math.pi


def bv(s):
    return BitVector.from_string(s)


def bm(*rows):
    return BitMatrix(len(rows[0]), tuple(bv(r) for r in rows))


def cis(a):
    return complex(math.cos(a), math.sin(a))


# |00> + |11| with a sign flip on |11>, relatable by diag phases
TOY = CounterexampleSeed(bm("11"), frozenset({(0, 1)}),
                         DiagonalLocalUnitary((PI / 4, 3 * PI / 4)))

# the CZ pair: full space with q = x0 x1, not DLU-relatable at all
CZ = CounterexampleSeed(bm("10", "01"), frozenset({(0, 1)}),
                        DiagonalLocalUnitary((0.0, 0.0)))


# -- the built-in codes ----------------------------------------------------------

def test_code_parameters():
    r2, r15, r31 = rep2(), rm15(), rm31()
    assert (r2.m, r2.dim_c, r2.d_x, r2.d_z, r2.distance) == (2, 0, 2, 1, 1)
    assert (r15.m, r15.dim_c, r15.d_x, r15.d_z) == (15, 4, 7, 3)
    assert (r31.m, r31.dim_c, r31.d_x, r31.d_z) == (31, 5, 15, 3)
    assert r15.distance == r31.distance == 3
    assert sorted(BUILTIN_CODES) == ["rep2", "rm15", "rm31"]


def test_rep2_logical_pair():
    r2 = rep2()
    assert r2.x_e == bv("11")
    assert r2.z_e == bv("10")


def test_simplex_codewords_are_equidistant():
    r15 = rm15()
    words = list(r15.codewords_c())
    assert len(words) == 16 and len(set(words)) == 16
    assert {w.bit_count() for w in words} == {0, 8}


def test_logical_operators_anticommute_symbolically():
    for code in (rep2(), rm15(), rm31()):
        assert code.z_e.dot(code.x_e) == 1
        assert all(code.z_e.dot(r) == 0 for r in code.c_mat.rows)


def test_make_css_code_validation():
    with pytest.raises(PreconditionError, match="one dimension"):
        make_css_code("x", 2, [], [bv("10"), bv("01")], bv("10"))
    with pytest.raises(PreconditionError, match="subcode"):
        make_css_code("x", 3, [bv("100")], [bv("010"), bv("001")],
                      bv("010"))
    with pytest.raises(PreconditionError, match="X_e"):
        make_css_code("x", 3, [bv("110")], [bv("110"), bv("001")],
                      bv("110"))
    with pytest.raises(PreconditionError, match="oddly"):
        make_css_code("x", 2, [], [bv("11")], bv("11"), z_e=bv("11"))
    with pytest.raises(PreconditionError, match="orthogonal to C"):
        base = rm15()
        make_css_code("x", 15, base.c_mat.rows, base.d_mat.rows,
                      base.x_e, z_e=bv("100000000000000"))
    with pytest.raises(PreconditionError, match="self-check"):
        make_css_code("x", 2, [], [bv("11")], bv("11"),
                      expected_distance=3)


# -- transversal diagonal action --------------------------------------------------

def test_rep2_is_always_preserved_with_doubled_phase():
    report = transversal_diag_action(rep2(), PI / 8)
    assert report.preserved
    assert abs(report.phi - PI / 4) < 1e-12
    assert report.non_clifford()


@given(st.floats(-PI, PI, allow_nan=False))
def test_rep2_phase_formula(theta):
    report = transversal_diag_action(rep2(), theta)
    assert report.preserved
    assert abs(cis(report.phi) - cis(2 * theta)) < 1e-9


def test_rm15_transversal_t_gives_t_dagger():
    report = transversal_diag_action(rm15(), PI / 4)
    assert report.preserved and report.non_clifford()
    assert abs(report.phi - (-PI / 4)) < 1e-12
    assert set(report.weights_zero) == {0, 8}
    assert set(report.weights_one) == {7, 15}


def test_rm31_transversal_root_t():
    report = transversal_diag_action(rm31(), PI / 8)
    assert report.preserved and report.non_clifford()
    assert abs(report.phi - (-PI / 8)) < 1e-12


def test_off_grid_angles_are_not_preserved():
    for theta in (0.3, PI / 8, PI / 16):
        report = transversal_diag_action(rm15(), theta)
        assert not report.preserved
        assert report.phi is None and not report.non_clifford()


def test_find_non_clifford_angle():
    assert abs(find_non_clifford_angle(rep2()).theta - PI / 16) < 1e-12
    assert abs(find_non_clifford_angle(rm15()).theta - PI / 4) < 1e-12
    assert abs(find_non_clifford_angle(rm31()).theta - PI / 8) < 1e-12


def test_match_logical_angle():
    got = match_logical_angle(rm15(), PI / 4)
    assert abs(got.theta - 7 * PI / 4) < 1e-12
    assert abs(got.phi - PI / 4) < 1e-12
    assert abs(match_logical_angle(rep2(), PI / 4).theta - PI / 8) < 1e-12
    assert match_logical_angle(rep2(), 0.0).theta == 0.0
    # rm15 cannot make an off-grid-multiple-of-pi/4 logical phase
    assert match_logical_angle(rm15(), PI / 16) is None


def test_oracle_agrees_with_the_weight_enumerator():
    for theta in (PI / 16, 0.3, 1.234):
        report = transversal_diag_action(rep2(), theta)
        measured = diag_action_oracle_phase(rep2(), theta)
        assert abs(cis(measured) - cis(report.phi)) < 1e-8

    report = transversal_diag_action(rm15(), PI / 4)
    measured = diag_action_oracle_phase(rm15(), PI / 4)
    assert abs(cis(measured) - cis(report.phi)) < 1e-8

    assert diag_action_oracle_phase(rm15(), 0.3) is None


def test_oracle_guards_large_codes():
    with pytest.raises(CapExceeded):
        diag_action_oracle_phase(rm31(), PI / 8)


# -- seeds and the encoding step ---------------------------------------------------

def test_toy_seed_is_valid_and_dlc_feasible():
    assert TOY.n == 2
    assert TOY.verify_dlu()
    first, second = TOY.members()
    assert first.coeffs == frozenset() and second.coeffs == TOY.coeffs
    a = TOY.dlc_status()
    assert a is not None
    assert sum(a[j] for j in (0, 1)) % 4 == 2     # matches q(11) = 1


def test_cz_seed_is_dlc_infeasible():
    assert CZ.dlc_status() is None
    assert not CZ.verify_dlu()


def test_encoding_golden_shapes():
    out = encode_pair(CZ, 1, rep2(), code_angle=0.0)
    assert out.n == 3
    assert set(r.to_string() for r in out.basis.rows) == {"100", "011"}
    assert out.coeffs == frozenset({(0, 1)})
    assert out.dlu.thetas == (0.0, 0.0, 0.0)
    assert out.provenance == "encode(j=1,code=rep2)"


def test_encoding_preserves_the_relating_dlu():
    for j in (0, 1):
        out = encode_pair(TOY, j, rep2())
        assert out.n == 3
        assert out.verify_dlu()


def test_chained_encodings():
    once = encode_pair(TOY, 0, rep2())
    twice = encode_pair(once, 2, rep2())
    assert twice.n == 4
    assert twice.verify_dlu()
    assert twice.provenance == "encode(j=0,code=rep2);encode(j=2,code=rep2)"


def test_encoding_into_rm15():
    out = encode_pair(TOY, 0, rm15())
    assert out.n == 16
    assert abs(out.dlu.thetas[-1] - 7 * PI / 4) < 1e-12
    assert out.verify_dlu()


def test_encoding_error_cases():
    with pytest.raises(PreconditionError, match="out of range"):
        encode_pair(TOY, 2, rep2())
    with pytest.raises(PreconditionError, match="does not realize"):
        encode_pair(TOY, 0, rep2(), code_angle=0.0)
    constant = CounterexampleSeed(bm("10"), frozenset(),
                                  DiagonalLocalUnitary((0.0, 0.0)))
    with pytest.raises(PreconditionError, match="constant"):
        encode_pair(constant, 1, rep2())
    off_grid = CounterexampleSeed(bm("11"), frozenset({(0, 1)}),
                                  DiagonalLocalUnitary((0.3, 0.0)))
    with pytest.raises(PreconditionError, match="no transversal angle"):
        encode_pair(off_grid, 0, rep2())


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 4))
def test_random_seeds_encode_correctly(rng, n):
    seed = random_feasible_seed(rng, n)
    assert seed.verify_dlu()
    movable = [j for j in range(n)
               if any(r[j] for r in seed.basis.rows)]
    j = rng.choice(movable)
    out = encode_pair(seed, j, rep2())
    assert out.verify_dlu()


def test_pullback_recovers_a_seed_assignment():
    out = encode_pair(TOY, 0, rep2())
    a_bar = dlc_feasible(out.members()[1])
    assert a_bar is not None
    a = pullback_assignment(a_bar, TOY, 0, rep2())
    # the folded assignment satisfies the seed equation on x = 11
    assert (a[0] + a[1]) % 4 == 2


def test_infeasibility_survives_encoding():
    out = encode_pair(CZ, 0, rep2(), code_angle=0.0)
    assert dlc_feasible(out.members()[1]) is None
    deeper = encode_pair(out, 2, rep2(), code_angle=0.0)
    assert dlc_feasible(deeper.members()[1]) is None


# -- length arithmetic --------------------------------------------------------------

def test_plan_shapes():
    assert length_plan(26) is None
    assert length_plan(BASE_LENGTH).describe() == "(i=0,j=0,t=0)"
    for n, desc in [(41, "(i=1,j=0,t=0)"), (57, "(i=0,j=1,t=0)"),
                    (28, "(i=0,j=0,t=1)")]:
        plan = length_plan(n)
        assert plan.describe() == desc and plan.n == n
    assert length_plan(41).distance_class == "d>=3"
    assert length_plan(28).distance_class == "d=2"


def test_rep_free_plans():
    assert length_plan(31, allow_rep=False) is None
    assert length_plan(31).describe() == "(i=0,j=0,t=4)"
    # 110 - 27 = 83, the largest value 14i + 30j misses
    assert length_plan(110, allow_rep=False) is None
    assert length_plan(71, allow_rep=False).describe() == "(i=1,j=1,t=0)"


def test_rep_free_reachability_boundary():
    assert reachable_without_rep(27)
    assert not reachable_without_rep(193)
    for n in range(195, 501, 2):
        assert reachable_without_rep(n)


def test_plan_agreement_with_reachability():
    for n in range(27, 200):
        plan = length_plan(n, allow_rep=False)
        assert (plan is not None) == reachable_without_rep(n)
        if plan is not None:
            assert plan.t == 0


@given(st.integers(27, 300))
def test_plan_minimizes_encoding_count(n):
    plan = length_plan(n)
    rest = n - BASE_LENGTH
    best = min(i + j + (rest - 14 * i - 30 * j)
               for i in range(rest // 14 + 1)
               for j in range((rest - 14 * i) // 30 + 1))
    assert plan.i + plan.j + plan.t == best


def _plan_by_double_loop(n, allow_rep):
    """The (i, j, t) of the smallest key (i + j + t, t, j), by trying every
    i and j: the reference for length_plan's one loop over j."""
    rest = n - BASE_LENGTH
    keys = [(i + j + t, t, j, i)
            for i in range(rest // 14 + 1)
            for j in range((rest - 14 * i) // 30 + 1)
            for t in [rest - 14 * i - 30 * j]
            if allow_rep or not t]
    if rest < 0 or not keys:
        return None
    _, t, j, i = min(keys)
    return (i, j, t)


@pytest.mark.parametrize("allow_rep", [True, False])
def test_plan_matches_the_double_loop(allow_rep):
    for n in range(0, 700):
        plan = length_plan(n, allow_rep)
        got = None if plan is None else (plan.i, plan.j, plan.t)
        assert got == _plan_by_double_loop(n, allow_rep), n


def test_enumerate_lengths():
    plans = enumerate_lengths(60)
    assert [p.n for p in plans] == list(range(27, 61))
    for p in plans:
        assert (p.t == 0) == reachable_without_rep(p.n)


def test_plan_consistency_is_checked():
    with pytest.raises(AssertionError):
        LengthPlan(0, 0, 0, 28)


# -- file formats --------------------------------------------------------------------

def test_seed_round_trip():
    text = format_seed(TOY)
    again = parse_seed(text)
    assert again.basis.rows == TOY.basis.rows
    assert again.coeffs == TOY.coeffs
    assert all(abs(cis(a) - cis(b)) < 1e-12
               for a, b in zip(again.dlu.thetas, TOY.dlu.thetas))
    assert again.verify_dlu()


def test_seed_provenance_round_trip():
    noted = encode_pair(TOY, 0, rep2())
    again = parse_seed(format_seed(noted))
    assert again.provenance == "encode(j=0,code=rep2)"


def test_format_seed_requires_grid_angles():
    bad = CounterexampleSeed(bm("11"), frozenset(),
                             DiagonalLocalUnitary((0.3, 0.0)))
    with pytest.raises(ValueError, match="grid"):
        format_seed(bad)


def test_parse_seed_diagnostics():
    base = "2\n11\nq:\n"
    with pytest.raises(FormatError, match="missing dlu"):
        parse_seed(base)
    with pytest.raises(FormatError, match="duplicate dlu"):
        parse_seed(base + "dlu: 0 0\ndlu: 0 0\n")
    with pytest.raises(FormatError, match="integers"):
        parse_seed(base + "dlu: 0.5 0\n")
    with pytest.raises(FormatError, match="expected 2 angles"):
        parse_seed(base + "dlu: 0\n")


def test_css_code_round_trip():
    for code in (rep2(), rm15()):
        again = parse_css_code(format_css_code(code))
        assert again.name == code.name
        assert again.c_mat.rows == code.c_mat.rows
        assert again.d_mat.rows == code.d_mat.rows
        assert (again.x_e, again.z_e) == (code.x_e, code.z_e)
        assert (again.d_x, again.d_z) == (code.d_x, code.d_z)


def test_parse_css_code_diagnostics():
    with pytest.raises(FormatError, match="needs a D block"):
        parse_css_code("C:\n11\n")
    with pytest.raises(FormatError, match="outside any section"):
        parse_css_code("11\nD:\n11\nXe: 11\n")
    with pytest.raises(FormatError, match="length"):
        parse_css_code("D:\n11\nXe: 111\n")
    with pytest.raises(FormatError, match="unrecognized"):
        parse_css_code("D:\n11\nXe: 11\nwhat\n")
