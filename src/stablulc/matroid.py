"""Binary matroids: minors, duality, graphicness, and the CSS screen.

A binary matroid is the column-dependence structure of a GF(2) matrix,
so it is determined by the matrix's null space; representations are
stored in canonical reduced row-echelon form over an ordered ground set
of labels.  Graphicness is decided by brute-force excluded-minor search
(desk scale, capped), which is all the CSS counterexample screen needs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import embedding
from .errors import CapExceeded, FormatError, PreconditionError, invariant
from .gf2 import (BitMatrix, BitVector, Span, minimal_supports, nullspace,
                  parse_matrix, row_space_contains, rref, span_elements)

ISO_CAP = 12
MINOR_CAP = 15


class BinaryMatroid:
    """Vector matroid of a GF(2) matrix with labelled columns."""

    def __init__(self, representation: BitMatrix, labels):
        self.labels: tuple[str, ...] = tuple(str(l) for l in labels)
        if len(self.labels) != representation.cols:
            raise ValueError("label count must match column count")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        self.representation, self._rank, _ = rref(representation)

    @staticmethod
    def from_matrix(m: BitMatrix, labels=None) -> "BinaryMatroid":
        if labels is None:
            labels = [str(i) for i in range(m.cols)]
        return BinaryMatroid(m, labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def rank(self) -> int:
        return self._rank

    def __repr__(self):
        return f"BinaryMatroid(size={self.size}, rank={self.rank})"

    def _index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown element {label!r}") from None

    def column(self, j: int) -> int:
        bits = 0
        for i, row in enumerate(self.representation.rows):
            if row[j]:
                bits |= 1 << i
        return bits

    def loop_labels(self) -> tuple[str, ...]:
        return tuple(l for j, l in enumerate(self.labels)
                     if self.column(j) == 0)

    # -- minors and duality ------------------------------------------------

    def delete(self, label: str) -> "BinaryMatroid":
        j = self._index(label)
        return BinaryMatroid(self.representation.delete_column(j),
                             self.labels[:j] + self.labels[j + 1:])

    def contract(self, label: str) -> "BinaryMatroid":
        j = self._index(label)
        rows = list(self.representation.rows)
        pivot = next((i for i, r in enumerate(rows) if r[j]), None)
        if pivot is None:          # loop: contraction and deletion agree
            return self.delete(label)
        for i, r in enumerate(rows):
            if i != pivot and r[j]:
                rows[i] = r ^ rows[pivot]
        del rows[pivot]
        reduced = BitMatrix(self.representation.cols, tuple(rows))
        return BinaryMatroid(reduced.delete_column(j),
                             self.labels[:j] + self.labels[j + 1:])

    def delete_all(self, labels) -> "BinaryMatroid":
        m = self
        for l in labels:
            m = m.delete(l)
        return m

    def contract_all(self, labels) -> "BinaryMatroid":
        m = self
        for l in labels:
            m = m.contract(l)
        return m

    def dual(self) -> "BinaryMatroid":
        return BinaryMatroid(nullspace(self.representation), self.labels)

    # -- identity ------------------------------------------------------------

    def _aligned_to(self, order: tuple[str, ...]) -> BitMatrix:
        perm = [self._index(l) for l in order]
        rows = []
        for r in self.representation.rows:
            bits = 0
            for i, j in enumerate(perm):
                if r[j]:
                    bits |= 1 << i
            rows.append(BitVector(len(order), bits))
        return BitMatrix(len(order), tuple(rows))

    def equals(self, other: "BinaryMatroid") -> bool:
        """Same matroid on the same labels (null spaces coincide)."""
        if set(self.labels) != set(other.labels):
            raise ValueError("ground sets differ")
        aligned, _, _ = rref(other._aligned_to(self.labels))
        return aligned.rows == self.representation.rows

    # -- circuits ------------------------------------------------------------

    def circuits(self, cap: int | None = None) -> tuple[frozenset[int], ...]:
        """Inclusion-minimal dependent sets, as column-index sets."""
        kernel = nullspace(self.representation).row_ints()
        return tuple(frozenset(BitVector(self.size, m).support())
                     for m in minimal_supports(span_elements(kernel, cap)))


# -- isomorphism --------------------------------------------------------------

def _element_signatures(m: BinaryMatroid, circuits) -> list[tuple]:
    sigs = []
    for j in range(m.size):
        counts = Counter(len(c) for c in circuits if j in c)
        sigs.append(tuple(sorted(counts.items())))
    return sigs


def is_isomorphic(a: BinaryMatroid, b: BinaryMatroid) -> bool:
    """Exhaustive label-bijection search with invariant pruning."""
    if a.size > ISO_CAP or b.size > ISO_CAP:
        raise CapExceeded(f"isomorphism test capped at {ISO_CAP} elements")
    if a.size != b.size or a.rank != b.rank:
        return False
    ca, cb = a.circuits(), b.circuits()
    if sorted(map(len, ca)) != sorted(map(len, cb)):
        return False
    sa, sb = _element_signatures(a, ca), _element_signatures(b, cb)
    if sorted(sa) != sorted(sb):
        return False
    n = a.size
    cols_a = [a.column(j) for j in range(n)]
    cols_b = [b.column(j) for j in range(n)]
    # scarcer signatures first shrink the branching factor
    order = sorted(range(n), key=lambda j: (sa.count(sa[j]), j))
    cands = [[j for j in range(n) if sb[j] == sa[i]] for i in range(n)]

    a_rows = {r.bits for r in a.representation.rows}

    def verify(mapping) -> bool:
        rows = []
        for r in b.representation.rows:
            bits = 0
            for i in range(n):
                if r[mapping[i]]:
                    bits |= 1 << i
            rows.append(BitVector(n, bits))
        reduced, _, _ = rref(BitMatrix(n, tuple(rows)))
        return {r.bits for r in reduced.rows} == a_rows

    mapping = [-1] * n
    used = [False] * n

    def backtrack(depth, picked_a, picked_b) -> bool:
        if depth == n:
            return verify(mapping)
        i = order[depth]
        for j in cands[i]:
            if used[j]:
                continue
            na, nb = picked_a + [cols_a[i]], picked_b + [cols_b[j]]
            if Span(na).rank != Span(nb).rank:
                continue
            mapping[i] = j
            used[j] = True
            if backtrack(depth + 1, na, nb):
                return True
            used[j] = False
            mapping[i] = -1
        return False

    return backtrack(0, [], [])


# -- minor search ---------------------------------------------------------------

def has_minor(m: BinaryMatroid, target: BinaryMatroid):
    """Search for target as a minor; returns (found, (deleted, contracted)).

    Every minor has a form m\\D/C with C independent, so contraction sets
    range over independent sets of the forced size rank(m) - rank(target);
    the witness is the lexicographically least, in sorted label order.
    """
    if m.size > MINOR_CAP:
        raise CapExceeded(f"minor search capped at {MINOR_CAP} elements")
    need_c = m.rank - target.rank
    need_d = m.size - target.size - need_c
    if need_c < 0 or need_d < 0:
        return False, None
    ground = tuple(sorted(m.labels))
    for C in itertools.combinations(ground, need_c):
        if Span(m.column(m._index(l)) for l in C).rank != need_c:
            continue
        mc = m.contract_all(C)
        rest = tuple(sorted(set(ground) - set(C)))
        for D in itertools.combinations(rest, need_d):
            if is_isomorphic(mc.delete_all(D), target):
                return True, (D, C)
    return False, None


# -- the excluded-minor catalog ----------------------------------------------

@dataclass(frozen=True)
class ExcludedMinorCatalog:
    f7: BinaryMatroid
    f7_dual: BinaryMatroid
    mk5: BinaryMatroid
    mk5_dual: BinaryMatroid
    mk33: BinaryMatroid
    mk33_dual: BinaryMatroid

    @property
    def graphic_excluded(self) -> tuple[BinaryMatroid, ...]:
        return (self.f7, self.f7_dual, self.mk5_dual, self.mk33_dual)

    def named(self) -> dict[str, BinaryMatroid]:
        return {"F7": self.f7, "F7*": self.f7_dual,
                "MK5": self.mk5, "MK5*": self.mk5_dual,
                "MK33": self.mk33, "MK33*": self.mk33_dual}


@lru_cache(maxsize=1)
def excluded_minor_catalog() -> ExcludedMinorCatalog:
    # Fano: the seven nonzero vectors of F2^3 as columns.
    rows = []
    for i in range(3):
        bits = 0
        for j in range(7):
            if ((j + 1) >> i) & 1:
                bits |= 1 << j
        rows.append(BitVector(7, bits))
    f7 = BinaryMatroid(BitMatrix(7, tuple(rows)),
                       [f"p{j}" for j in range(7)])
    k5 = embedding.complete_graph(5)
    k33 = embedding.complete_bipartite(3, 3)
    mk5 = BinaryMatroid(k5.incidence_matrix(), k5.edge_order())
    mk33 = BinaryMatroid(k33.incidence_matrix(), k33.edge_order())
    cat = ExcludedMinorCatalog(f7, f7.dual(), mk5, mk5.dual(),
                               mk33, mk33.dual())
    shapes = [(m.rank, m.size) for m in (f7, cat.f7_dual, mk5, mk33)]
    invariant(shapes == [(3, 7), (4, 7), (4, 10), (5, 9)],
              f"excluded-minor catalog has wrong (rank, size): {shapes}")
    return cat


def is_graphic(m: BinaryMatroid) -> bool:
    """True iff no minor is F7, F7*, M*(K5) or M*(K3,3)."""
    return not any(has_minor(m, t)[0]
                   for t in excluded_minor_catalog().graphic_excluded)


def is_cographic(m: BinaryMatroid) -> bool:
    return is_graphic(m.dual())


# -- surface-code matroids -----------------------------------------------------

def surface_code_matroid(g: embedding.EmbeddedGraph,
                         chosen_cocycles=()) -> BinaryMatroid:
    """Vector matroid of the X side: incidence rows plus chosen cocycles.

    With no cocycles chosen this is the cycle matroid of the graph.  Each
    chosen vector must be a cocycle (orthogonal to all faces) that is not
    a combination of vertex stars, i.e. homologically nontrivial.
    """
    inc = g.incidence_matrix()
    cocycles = nullspace(g.face_matrix())
    cuts = g.cut_space()
    rows = list(inc.rows)
    for c in chosen_cocycles:
        if c.length != g.num_edges:
            raise PreconditionError("cocycle length mismatch")
        if not row_space_contains(cocycles, c):
            raise PreconditionError(f"{c.to_string()} is not a cocycle")
        if row_space_contains(cuts, c):
            raise PreconditionError(
                f"{c.to_string()} is a trivial (cut) cocycle")
        rows.append(c)
    return BinaryMatroid(BitMatrix(g.num_edges, tuple(rows)), g.edge_order())


def _restricted_choice(g_minor: embedding.EmbeddedGraph, routed,
                       col: int) -> list[BitVector]:
    """Drop coordinate col and keep only still-nontrivial cocycles."""
    cuts = g_minor.cut_space()
    out = []
    for c in routed:
        c2 = c.delete(col)
        if not c2.is_zero() and not row_space_contains(cuts, c2):
            out.append(c2)
    return out


def minor_closure_check(g: embedding.EmbeddedGraph, e: str,
                        chosen_cocycles=()) -> bool:
    """Check matroid minors of the X side match graph minors.

    Both identities — deletion against the deleted graph and contraction
    against the contracted graph — are verified by constructing each side
    independently and comparing null spaces.  A chosen cocycle through e
    is first re-routed by adding the star of an endpoint of e (a trivial
    adjustment, so the row space modulo stars is unchanged).
    """
    if g.num_edges < 2:
        raise PreconditionError("need at least two edges")
    order = g.edge_order()
    col = order.index(e)
    u, v = g.edges[e]
    routed = []
    for c in chosen_cocycles:
        if c[col]:
            if u == v:
                raise PreconditionError(
                    "chosen cocycle through a loop cannot be re-routed")
            c = c ^ g.star(u)
            invariant(not c[col], "re-routed cocycle still uses the edge")
        routed.append(c)
    m = surface_code_matroid(g, chosen_cocycles)

    gd = g.delete_edge(e)
    side_d = surface_code_matroid(gd, _restricted_choice(gd, routed, col))
    ok_d = m.delete(e).equals(side_d)

    gc = g.contract_edge(e)
    side_c = surface_code_matroid(gc, _restricted_choice(gc, routed, col))
    ok_c = m.contract(e).equals(side_c)
    return ok_d and ok_c


# -- the CSS counterexample screen ---------------------------------------------

@dataclass(frozen=True)
class ScreenResult:
    status: str                # RULED_OUT | INCONCLUSIVE
    reason: str | None         # graphic | cographic
    n: int
    d: int
    d_dual: int

    @property
    def ruled_out(self) -> bool:
        return self.status == "RULED_OUT"

    def line(self) -> str:
        if self.ruled_out:
            return f"RULED_OUT {self.reason}"
        return "INCONCLUSIVE"


def _min_weight(m: BitMatrix, cap: int | None) -> int:
    return min((w.bit_count() for w in span_elements(m.row_ints(), cap) if w),
               default=m.cols + 1)


def css_counterexample_screen(g_mat: BitMatrix, h_mat: BitMatrix,
                              cap: int | None = None) -> ScreenResult:
    """Screen a CSS state, given by generator and parity-check matrices.

    A state whose X-side matroid is graphic or cographic has the
    local-unitary = local-Clifford property, so it cannot be a
    counterexample; the hypotheses (orthogonal rows, complementary ranks,
    both distances at least 3) are enforced, not assumed.
    """
    n = g_mat.cols
    if h_mat.cols != n:
        raise PreconditionError("generator/check length mismatch")
    for grow in g_mat.rows:
        for hrow in h_mat.rows:
            if grow.dot(hrow):
                raise PreconditionError("generator not orthogonal to checks")
    rg, _, _ = rref(g_mat)
    rh, _, _ = rref(h_mat)
    if rg.num_rows + rh.num_rows != n:
        raise PreconditionError(
            f"ranks {rg.num_rows}+{rh.num_rows} do not sum to {n}")
    d = _min_weight(rg, cap)
    d_dual = _min_weight(rh, cap)
    if d < 3:
        raise PreconditionError(f"distance {d} < 3")
    if d_dual < 3:
        raise PreconditionError(f"dual distance {d_dual} < 3")
    m = BinaryMatroid.from_matrix(g_mat)
    if is_graphic(m):
        return ScreenResult("RULED_OUT", "graphic", n, d, d_dual)
    if is_cographic(m):
        return ScreenResult("RULED_OUT", "cographic", n, d, d_dual)
    return ScreenResult("INCONCLUSIVE", None, n, d, d_dual)


# -- text format -----------------------------------------------------------------

def parse_matroid(text: str) -> BinaryMatroid:
    """Matrix file plus an optional "labels:" line."""
    labels = None
    matrix_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("labels:"):
            if labels is not None:
                raise FormatError("duplicate labels line", lineno)
            labels = line[len("labels:"):].split()
        else:
            matrix_lines.append(raw)
    m = parse_matrix("\n".join(matrix_lines))
    if labels is not None and len(labels) != m.cols:
        raise FormatError(
            f"{len(labels)} labels for {m.cols} columns")
    return BinaryMatroid.from_matrix(m, labels)


def format_matroid(m: BinaryMatroid) -> str:
    rep = m.representation
    lines = [f"{rep.num_rows} {rep.cols}"]
    lines += rep.to_strings()
    lines.append("labels: " + " ".join(m.labels))
    return "\n".join(lines) + "\n"
