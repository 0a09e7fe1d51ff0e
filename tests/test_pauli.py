"""Pauli algebra and stabilizer-group support machinery."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablulc.errors import CapExceeded, FormatError
from stablulc.pauli import (MscCertificate, PauliOperator, StabilizerGroup,
                            format_stabilizer, parse_stabilizer)

P = PauliOperator.from_string


def graph_group(n: int, edges) -> StabilizerGroup:
    """Graph-state generators K_v = X_v prod Z_u over neighbours u."""
    gens = []
    for v in range(n):
        letters = ["I"] * n
        letters[v] = "X"
        for a, b in edges:
            if v == a:
                letters[b] = "Z"
            elif v == b:
                letters[a] = "Z"
        gens.append(P("".join(letters)))
    return StabilizerGroup(n, gens)


def random_group(rng: random.Random, n: int) -> StabilizerGroup:
    """A random graph-state group, possibly conjugated qubit-wise.

    Local conjugation permutes each qubit's letters by a random
    transposition-free relabeling (swap X/Z, or X/Y via the Y = XZ rule is
    messy symbolically, so only the X/Z swap — a Hadamard — is applied).
    """
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if rng.random() < 0.5]
    group = graph_group(n, edges)
    flip = [rng.random() < 0.5 for _ in range(n)]
    gens = []
    for g in group.generators:
        xb, zb = g.x, g.z
        nx, nz = 0, 0
        for i in range(n):
            xi, zi = (xb >> i) & 1, (zb >> i) & 1
            if flip[i]:
                xi, zi = zi, xi
            nx |= xi << i
            nz |= zi << i
        gens.append(PauliOperator.from_xz_phase(
            n, nx, nz, 0 if g.sign == 1 else 2))
    return StabilizerGroup(n, gens)


# -- operator algebra -----------------------------------------------------------

def test_string_round_trip():
    for s in ("+XIZ", "-YYX", "+IIII", "-Z"):
        assert P(s).to_string() == s
    assert P("XZ").to_string() == "+XZ"  # sign defaults to +


def test_letters_and_support():
    g = P("-IXYZ")
    assert [g.letter(i) for i in range(4)] == ["I", "X", "Y", "Z"]
    assert g.support() == (1, 2, 3)
    assert g.weight() == 3 and g.sign == -1


def test_product_sign_algebra():
    assert (P("XX") * P("ZZ")).to_string() == "-YY"
    assert (P("Y") * P("Y")).to_string() == "+I"
    assert (P("XIX") * P("IXX")).to_string() == "+XXI"
    assert (P("-XX") * P("-ZZ")).to_string() == "-YY"
    with pytest.raises(ValueError, match="anticommuting"):
        P("X") * P("Z")


def test_from_xz_phase():
    assert PauliOperator.from_xz_phase(1, 1, 1, 1).to_string() == "+Y"
    assert PauliOperator.from_xz_phase(1, 1, 1, 3).to_string() == "-Y"
    with pytest.raises(ValueError, match="imaginary"):
        PauliOperator.from_xz_phase(1, 1, 0, 1)


def test_commutation():
    assert not P("X").commutes_with(P("Z"))
    assert P("XX").commutes_with(P("ZZ"))
    assert P("Y").commutes_with(P("Y"))


@given(*[st.integers(0, 3)] * 6)
def test_commutation_form_is_bilinear(ax, az, bx, bz, cx, cz):
    a, b = PauliOperator(2, ax, az), PauliOperator(2, bx, bz)
    c = PauliOperator(2, cx, cz)
    ab = PauliOperator(2, ax ^ bx, az ^ bz)
    assert (ab.commutes_with(c)
            == (a.commutes_with(c) == b.commutes_with(c)))


@pytest.mark.parametrize("text", ["", "   ", "+", "XQ"],
                         ids=["empty", "blank", "sign-only", "bad-letter"])
def test_from_string_rejects_non_pauli_text(text):
    with pytest.raises(ValueError, match="not a Pauli string"):
        P(text)


# -- group construction and enumeration -------------------------------------------

def test_group_rejects_bad_generators():
    with pytest.raises(ValueError, match="commute"):
        StabilizerGroup(1, (P("X"), P("Z")))
    with pytest.raises(ValueError, match="independent"):
        StabilizerGroup(2, (P("XX"), P("ZZ"), P("-YY")))
    with pytest.raises(ValueError, match="identity"):
        StabilizerGroup(2, (P("II"),))


def test_enumeration_is_complete_and_deterministic():
    g = graph_group(3, [(0, 1), (1, 2)])
    elems = g.elements()
    assert len(elems) == 8
    assert elems[0].is_identity()
    assert len({e.to_string() for e in elems}) == 8
    assert [e.to_string() for e in g.elements()] == \
        [e.to_string() for e in elems]
    with pytest.raises(CapExceeded):
        g.elements(cap=4)


@given(st.integers(0, 10 ** 9))
def test_subgroup_supported_in_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    group = random_group(rng, n)
    omega = tuple(i for i in range(n) if rng.random() < 0.6)
    mask = sum(1 << i for i in omega)
    sub = group.subgroup_supported_in(omega)
    brute = {g.to_string() for g in group.elements()
             if g.support_mask() & ~mask == 0}
    assert {g.to_string() for g in sub.elements()} == brute
    assert group.count_support_in(omega) == len(brute)


@given(st.integers(0, 10 ** 9))
def test_count_support_eq_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    group = random_group(rng, n)
    omega = tuple(i for i in range(n) if rng.random() < 0.6)
    mask = sum(1 << i for i in omega)
    brute = sum(1 for g in group.elements() if g.support_mask() == mask)
    assert group.count_support_eq(omega) == brute


def test_distance():
    assert graph_group(3, [(0, 1), (1, 2)]).distance() == 2
    ghz = StabilizerGroup(3, (P("XXX"), P("ZZI"), P("IZZ")))
    assert ghz.distance() == 2  # ZZI


# -- structure probes -----------------------------------------------------------

def test_bell_pair_detection():
    bell = StabilizerGroup(2, (P("XX"), P("ZZ")))
    assert bell.is_bell_pair_free() == (False, (0, 1))
    ghz = StabilizerGroup(3, (P("XXX"), P("ZZI"), P("IZZ")))
    assert ghz.is_bell_pair_free() == (True, None)
    # two fixed qubits also trip the check (by design: soundness first)
    prod = StabilizerGroup(2, (P("ZI"), P("IZ")))
    assert prod.is_bell_pair_free()[0] is False


@given(st.integers(0, 10 ** 9))
def test_minimal_elements_match_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    group = random_group(rng, n)
    masks = {g.support_mask() for g in group.elements()} - {0}
    minimal = {m for m in masks
               if not any(s != m and s & m == s for s in masks)}
    elems = group.minimal_elements()
    assert {g.support_mask() for g in elems} == minimal
    # canonically sorted, and every element's support is minimal
    keys = [g.sort_key() for g in elems]
    assert keys == sorted(keys)


def test_css_split():
    css = StabilizerGroup(3, (P("XXI"), P("IIZ")))
    xs, zs = css.css_split()
    assert [g.to_string() for g in xs.generators] == ["+XXI"]
    assert [g.to_string() for g in zs.generators] == ["+IIZ"]
    ghz = StabilizerGroup(3, (P("XXX"), P("ZZI"), P("IZZ")))
    assert ghz.is_css()
    ring = graph_group(3, [(0, 1), (1, 2), (0, 2)])
    assert ring.css_split() is None


def test_msc_certificate_verdicts():
    ring5 = graph_group(5, [(i, (i + 1) % 5) for i in range(5)])
    cert = ring5.msc_certificate()
    assert cert.certified and cert.line() == \
        "CERTIFIED theorem=msc details=qubits=5"
    assert cert.hypothesis == "bell_pair_free"

    bell = StabilizerGroup(2, (P("XX"), P("ZZ")))
    cert = bell.msc_certificate()
    assert not cert.certified and cert.reason == "bell_pair"
    assert cert.witness == (0, 1)
    assert "INCONCLUSIVE" in cert.line()

    ghz = StabilizerGroup(3, (P("XXX"), P("ZZI"), P("IZZ")))
    cert = ghz.msc_certificate()
    assert not cert.certified and cert.reason == "coverage"
    q, missing = cert.witness
    assert missing == "XY"  # only ZZ pairs are minimal in GHZ


def test_msc_accepts_external_minimal_elements():
    ring5 = graph_group(5, [(i, (i + 1) % 5) for i in range(5)])
    elems = ring5.minimal_elements()
    assert ring5.msc_certificate(minimal_elems=elems).certified


# -- text format -------------------------------------------------------------------

def test_stabilizer_round_trip():
    g = graph_group(4, [(0, 1), (2, 3), (1, 2)])
    assert [x.to_string() for x in
            parse_stabilizer(format_stabilizer(g)).generators] == \
        [x.to_string() for x in g.generators]


def test_parse_stabilizer_diagnostics():
    with pytest.raises(FormatError, match="no generators"):
        parse_stabilizer("# only a comment\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_stabilizer("+XX\nquux\n")
    with pytest.raises(FormatError, match="expected 2 letters"):
        parse_stabilizer("+XX\n+ZZZ\n")
    with pytest.raises(FormatError, match="commute"):
        parse_stabilizer("+XI\n+ZI\n")
