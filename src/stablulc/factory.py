"""CSS codes with diagonal transversal gates, and pair concatenation.

The building blocks are one-logical-qubit CSS codes given by a nested
classical pair C < D: punctured Reed-Muller codes of lengths 15 and 31,
and the two-qubit repetition code.  Applying diag(1, e^{i theta}) on
every physical qubit acts logically as diag(1, e^{i phi}) whenever the
codeword weights are phase-constant on C and on D \\ C; that is what
lets a diagonal local unitary on one qubit of a state pair be pushed
through an encoding of that qubit, growing equivalent state pairs to
new lengths (27 + 14i + 30j + t when seeded at length 27).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapExceeded, FormatError, PreconditionError, invariant
from .gf2 import BitMatrix, BitVector, row_space_contains, rref, span_elements
from .oracle import (ORACLE_MAX_QUBITS, PHASE_TOL, DenseState,
                     DiagonalLocalUnitary, QuadraticFormState, apply_dlu,
                     dlc_feasible, format_quadratic_form,
                     parse_quadratic_form, verify_dlu_pair)

GRID = 8          # file angles are integers in units of pi/8
SEARCH_DENOMINATOR = 16


@dataclass(frozen=True)
class CssCode:
    """[[m, 1, d]] CSS code from classical codes C < D with dim D/C = 1."""

    name: str
    m: int
    c_mat: BitMatrix
    d_mat: BitMatrix
    x_e: BitVector
    z_e: BitVector
    d_x: int
    d_z: int

    @property
    def distance(self) -> int:
        return min(self.d_x, self.d_z)

    @property
    def dim_c(self) -> int:
        return self.c_mat.num_rows

    def codewords_c(self):
        """All elements of C, as ints."""
        return span_elements(self.c_mat.row_ints())


def _coset_weights(c_mat: BitMatrix, x_e: BitVector
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Weights occurring in C and in the coset X_e + C = D \\ C."""
    wc, w1 = set(), set()
    for c in span_elements(c_mat.row_ints()):
        wc.add(c.bit_count())
        w1.add((c ^ x_e.bits).bit_count())
    return tuple(sorted(wc)), tuple(sorted(w1))


def make_css_code(name: str, m: int, c_rows, d_rows, x_e: BitVector,
                  z_e: BitVector | None = None,
                  expected_distance: int | None = None) -> CssCode:
    """Validate the classical pair and measure both distances exactly.

    The X distance is the minimum weight over D \\ C, which the checks
    (C < D, X_e in D \\ C, one more dimension) make the coset X_e + C,
    a walk over 2^dim C words; the Z distance is the smallest weight of
    a vector orthogonal to C with odd overlap with X_e (searched in
    increasing weight).  When z_e is omitted the first Z-distance
    witness is kept.
    """
    c_mat, rank_c, _ = rref(BitMatrix(m, tuple(c_rows)))
    d_mat, rank_d, _ = rref(BitMatrix(m, tuple(d_rows)))
    if rank_d != rank_c + 1:
        raise PreconditionError("D must extend C by exactly one dimension")
    for row in c_mat.rows:
        if not row_space_contains(d_mat, row):
            raise PreconditionError("C must be a subcode of D")
    if not row_space_contains(d_mat, x_e) or row_space_contains(c_mat, x_e):
        raise PreconditionError("X_e must lie in D but not in C")
    d_x = _coset_weights(c_mat, x_e)[1][0]

    d_z = None
    witness = None
    for t in range(1, m + 1):
        for combo in itertools.combinations(range(m), t):
            w = BitVector.from_support(m, combo)
            if w.dot(x_e) == 1 and all(w.dot(r) == 0 for r in c_mat.rows):
                d_z = t
                witness = w
                break
        if d_z is not None:
            break
    invariant(d_z is not None, "Z side has no logical representative")

    if z_e is None:
        z_e = witness
    if z_e.dot(x_e) != 1:
        raise PreconditionError("Z_e must overlap X_e oddly")
    if any(z_e.dot(r) for r in c_mat.rows):
        raise PreconditionError("Z_e must be orthogonal to C")

    code = CssCode(name, m, c_mat, d_mat, x_e, z_e, d_x, d_z)
    if expected_distance is not None and code.distance != expected_distance:
        raise PreconditionError(
            f"distance self-check failed: {code.distance} != "
            f"{expected_distance}")
    return code


def _evaluation_rows(nvars: int) -> list[BitVector]:
    """Rows x_1 .. x_nvars evaluated on the nonzero points of F2^nvars.

    Point p (1 <= p < 2^nvars) sits at coordinate p - 1, so row i has a
    one exactly where bit i of the point is set.
    """
    m = (1 << nvars) - 1
    rows = []
    for i in range(nvars):
        bits = 0
        for p in range(1, m + 1):
            if (p >> i) & 1:
                bits |= 1 << (p - 1)
        rows.append(BitVector(m, bits))
    return rows


def rm15() -> CssCode:
    """[[15,1,3]]: C = even subcode [15,4,8], D = punctured RM(1,4)."""
    rows = _evaluation_rows(4)
    ones = BitVector(15, (1 << 15) - 1)
    return make_css_code("rm15", 15, rows, rows + [ones], ones,
                         expected_distance=3)


def rm31() -> CssCode:
    """[[31,1,3]]: C = even subcode [31,5,16], D = punctured RM(1,5)."""
    rows = _evaluation_rows(5)
    ones = BitVector(31, (1 << 31) - 1)
    return make_css_code("rm31", 31, rows, rows + [ones], ones,
                         expected_distance=3)


def rep2() -> CssCode:
    """[[2,1,1]] repetition code: stabilizer ZZ, logical X = XX, Z = ZI."""
    return make_css_code("rep2", 2, [], [BitVector(2, 0b11)],
                         BitVector(2, 0b11), expected_distance=1)


BUILTIN_CODES = {"rm15": rm15, "rm31": rm31, "rep2": rep2}


# -- transversal diagonal action ---------------------------------------------

@dataclass(frozen=True)
class DiagActionReport:
    """Logical effect of diag(1, e^{i theta}) applied on every qubit.

    ``phi`` is reported exactly as computed, in (-pi, pi]; a logically
    conjugate convention would flip its sign, so it is not normalized.
    """

    theta: float
    preserved: bool
    phi: float | None
    weights_zero: tuple[int, ...]
    weights_one: tuple[int, ...]

    def non_clifford(self, tol: float = PHASE_TOL) -> bool:
        if not self.preserved:
            return False
        q = self.phi / (math.pi / 2)
        return abs(q - round(q)) > tol


def transversal_diag_action(code: CssCode, theta: float,
                            tol: float = PHASE_TOL) -> DiagActionReport:
    """Return the logical phase, or a non-preserving report.

    The action preserves the codespace with a diagonal logical effect
    exactly when e^{i theta w} is constant over the weights w of C and,
    separately, of D \\ C; the two constants differ by e^{i phi}.
    """
    wc, w1 = _coset_weights(code.c_mat, code.x_e)

    def constant(ws):
        return all(abs(_cis(theta * (w - ws[0])) - 1.0) <= tol for w in ws)

    if not (constant(wc) and constant(w1)):
        return DiagActionReport(theta, False, None, wc, w1)
    phi = math.remainder((w1[0] - wc[0]) * theta, math.tau)
    return DiagActionReport(theta, True, phi, wc, w1)


def _cis(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


def find_non_clifford_angle(code: CssCode,
                            denominator: int = SEARCH_DENOMINATOR
                            ) -> DiagActionReport | None:
    """Smallest angle k*pi/denominator acting as a non-Clifford logical."""
    for k in range(1, 2 * denominator):
        report = transversal_diag_action(code, k * math.pi / denominator)
        if report.non_clifford():
            return report
    return None


def match_logical_angle(code: CssCode, target: float,
                        denominator: int = SEARCH_DENOMINATOR,
                        tol: float = PHASE_TOL) -> DiagActionReport | None:
    """Angle on the pi/denominator grid whose logical phase is ``target``."""
    for k in range(0, 2 * denominator):
        report = transversal_diag_action(code, k * math.pi / denominator)
        if report.preserved and abs(_cis(report.phi) - _cis(target)) <= tol:
            return report
    return None


def diag_action_oracle_phase(code: CssCode, theta: float,
                             tol: float = PHASE_TOL) -> float | None:
    """Measure the logical phase on dense codewords (small codes only)."""
    if code.m > ORACLE_MAX_QUBITS:
        raise CapExceeded(f"{code.m} qubits exceed the dense-oracle limit")
    size = 1 << code.m
    import numpy as np
    ratios = []
    for shift in (0, code.x_e.bits):
        amps = np.zeros(size, dtype=complex)
        for c in code.codewords_c():
            amps[c ^ shift] = 1.0
        amps /= math.sqrt(1 << code.dim_c)
        out = apply_dlu(DiagonalLocalUnitary((theta,) * code.m),
                        DenseState(code.m, amps))
        nz = np.flatnonzero(np.abs(amps) > tol)
        ratio = out.amplitudes[nz] / amps[nz]
        if np.max(np.abs(ratio - ratio[0])) > tol:
            return None
        ratios.append(complex(ratio[0]))
    return float(np.angle(ratios[1] / ratios[0]))


# -- state-pair seeds and the encoding step -----------------------------------

@dataclass(frozen=True)
class CounterexampleSeed:
    """A state pair (S, 0) vs (S, q) with a claimed relating DLU.

    The claim is oracle-checkable at small sizes via verify_dlu; genuine
    counterexample seeds additionally have dlc_status() is None, meaning
    no diagonal local Clifford can relate the pair.
    """

    basis: BitMatrix
    coeffs: frozenset
    dlu: DiagonalLocalUnitary
    provenance: str = ""

    def __post_init__(self):
        if self.dlu.n != self.basis.cols:
            raise ValueError("DLU size must match the qubit count")

    @property
    def n(self) -> int:
        return self.basis.cols

    def members(self) -> tuple[QuadraticFormState, QuadraticFormState]:
        return (QuadraticFormState(self.basis, frozenset()),
                QuadraticFormState(self.basis, self.coeffs))

    def verify_dlu(self, tol: float = PHASE_TOL) -> bool:
        first, second = self.members()
        return verify_dlu_pair(first, second, self.dlu, tol)

    def dlc_status(self):
        return dlc_feasible(QuadraticFormState(self.basis, self.coeffs))


def encode_pair(seed: CounterexampleSeed, j: int, code: CssCode,
                code_angle: float | None = None,
                tol: float = PHASE_TOL) -> CounterexampleSeed:
    """Encode qubit j of the pair into the code, preserving equivalence.

    The subspace splits along x_j: rows with x_j = 0 keep a zero code
    block, and one representative E with E_j = 1 carries the logical
    X_e; q's terms through j are rewritten against Z_e . y, which reads
    the encoded value of x_j off the code block.  The local unitary on j
    is replaced by a transversal angle with the same logical phase.
    """
    n = seed.n
    if not 0 <= j < n:
        raise PreconditionError(f"qubit {j} out of range")
    theta_j = seed.dlu.thetas[j]
    if code_angle is None:
        report = match_logical_angle(code, theta_j, tol=tol)
        if report is None:
            raise PreconditionError(
                f"no transversal angle of {code.name} realizes the local"
                f" phase {theta_j}")
        code_angle = report.theta
    else:
        report = transversal_diag_action(code, code_angle, tol)
        if not report.preserved or abs(_cis(report.phi)
                                       - _cis(theta_j)) > tol:
            raise PreconditionError("given angle does not realize the"
                                    " local phase")

    rows = list(seed.basis.rows)
    pivot = next((i for i, r in enumerate(rows) if r[j]), None)
    if pivot is None:
        raise PreconditionError(
            f"qubit {j} is constant over the subspace; encoding degenerates")
    e_row = rows[pivot]
    s0 = [(r ^ e_row if r[j] else r).delete(j)
          for i, r in enumerate(rows) if i != pivot]
    e_bar = e_row.delete(j)

    m = code.m
    zero_m = BitVector.zeros(m)
    zero_old = BitVector.zeros(n - 1)
    new_rows = [r.concat(zero_m) for r in s0]
    new_rows += [zero_old.concat(c) for c in code.c_mat.rows]
    new_rows.append(e_bar.concat(code.x_e))

    def shift(a: int) -> int:
        return a if a < j else a - 1

    new_coeffs = set()
    for a, b in seed.coeffs:
        if j not in (a, b):
            new_coeffs.add(tuple(sorted((shift(a), shift(b)))))
        else:
            other = shift(a if b == j else b)
            for k in code.z_e.support():
                new_coeffs.add((other, n - 1 + k))

    new_dlu = seed.dlu.drop_qubit(j).extend((code_angle,) * m)
    note = f"{seed.provenance};encode(j={j},code={code.name})".lstrip(";")
    return CounterexampleSeed(BitMatrix(n - 1 + m, tuple(new_rows)),
                              frozenset(new_coeffs), new_dlu, note)


def pullback_assignment(encoded_assignment, seed: CounterexampleSeed,
                        j: int, code: CssCode) -> list[int]:
    """Fold a mod-4 assignment of the encoded pair back onto the seed.

    Old qubits keep their values; the folded value at j is the X_e-
    weighted sum over the code block, which is what the encoded system's
    equations reduce to on lifted subspace points.
    """
    n = seed.n
    a = []
    for i in range(n):
        if i == j:
            total = sum(encoded_assignment[n - 1 + k]
                        for k in code.x_e.support())
            a.append(total % 4)
        else:
            a.append(encoded_assignment[i if i < j else i - 1] % 4)
    return a


# -- length arithmetic ---------------------------------------------------------

BASE_LENGTH = 27
STEP_15 = 14          # net growth of one length-15 encoding
STEP_31 = 30
STEP_2 = 1


@dataclass(frozen=True)
class LengthPlan:
    i: int      # length-15 encodings
    j: int      # length-31 encodings
    t: int      # length-2 encodings
    n: int

    def __post_init__(self):
        invariant(self.n == BASE_LENGTH + STEP_15 * self.i
                  + STEP_31 * self.j + STEP_2 * self.t,
                  "plan lengths do not add up to n")

    @property
    def distance_class(self) -> str:
        return "d>=3" if self.t == 0 else "d=2"

    def describe(self) -> str:
        return f"(i={self.i},j={self.j},t={self.t})"


def length_plan(n: int, allow_rep: bool = True) -> LengthPlan | None:
    """Fewest-encodings plan reaching length n, if any.

    With allow_rep=False only t = 0 plans count, so the result (when it
    exists) composes to a pair of distance at least 3.
    """
    if n < BASE_LENGTH:
        return None
    best = None
    rest = n - BASE_LENGTH
    for j in range(rest // STEP_31 + 1):
        # For a fixed j the encoding count i + j + t = rest - 13 i - 29 j
        # and t both fall as i grows, so only the largest i can win.
        i, t = divmod(rest - STEP_31 * j, STEP_15)
        if t and not allow_rep:
            continue
        key = (i + j + t, t, j)
        if best is None or key < best[0]:
            best = (key, i, j, t)
    return LengthPlan(*best[1:], n) if best else None


def reachable_without_rep(n: int) -> bool:
    """Is n reachable with t = 0 (so the composite keeps distance >= 3)?"""
    rest = n - BASE_LENGTH
    if rest < 0:
        return False
    return any((rest - STEP_15 * i) % STEP_31 == 0
               for i in range(rest // STEP_15 + 1))


def enumerate_lengths(max_n: int) -> list[LengthPlan]:
    """One plan per reachable length, preferring distance-preserving ones."""
    out = []
    for n in range(BASE_LENGTH, max_n + 1):
        plan = length_plan(n, allow_rep=False) or length_plan(n)
        if plan is not None:
            out.append(plan)
    return out


# -- file formats ----------------------------------------------------------------

def parse_seed(text: str) -> CounterexampleSeed:
    """Seed file: quadratic-form block, then "dlu:" angles in pi/8 units."""
    qf = parse_quadratic_form(text)
    thetas = None
    provenance = "file"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("# provenance:"):
            provenance = line[len("# provenance:"):].strip()
        if line.startswith("dlu:"):
            if thetas is not None:
                raise FormatError("duplicate dlu line", lineno)
            parts = line[len("dlu:"):].split()
            try:
                ks = [int(p) for p in parts]
            except ValueError:
                raise FormatError(
                    "dlu angles must be integers in units of pi/8",
                    lineno) from None
            if len(ks) != qf.n:
                raise FormatError(
                    f"expected {qf.n} angles, got {len(ks)}", lineno)
            thetas = tuple(k * math.pi / GRID for k in ks)
    if thetas is None:
        raise FormatError("missing dlu: line")
    return CounterexampleSeed(qf.basis, qf.coeffs,
                              DiagonalLocalUnitary(thetas), provenance)


def format_seed(seed: CounterexampleSeed) -> str:
    ks = []
    for theta in seed.dlu.thetas:
        k = round(theta / (math.pi / GRID))
        if abs(k * math.pi / GRID - theta) > 1e-9:
            raise ValueError("seed angles must sit on the pi/8 grid")
        ks.append(k % (2 * GRID))
    lines = []
    if seed.provenance:
        lines.append(f"# provenance: {seed.provenance}")
    lines.append(format_quadratic_form(
        QuadraticFormState(seed.basis, seed.coeffs)).rstrip("\n"))
    lines.append("dlu: " + " ".join(str(k) for k in ks))
    return "\n".join(lines) + "\n"


def parse_css_code(text: str) -> CssCode:
    """Code file: optional name, "C:"/"D:" row blocks, "Xe:"/"Ze:" rows."""
    name = "file"
    section = None
    blocks: dict[str, list[str]] = {"C": [], "D": []}
    x_e = z_e = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("name:"):
            name = line[len("name:"):].strip()
        elif line in ("C:", "D:"):
            section = line[0]
        elif line.startswith("Xe:"):
            x_e = line[len("Xe:"):].strip()
        elif line.startswith("Ze:"):
            z_e = line[len("Ze:"):].strip()
        elif set(line) <= {"0", "1"}:
            if section is None:
                raise FormatError("row outside any section", lineno)
            blocks[section].append(line)
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno)
    if not blocks["D"] or x_e is None:
        raise FormatError("code file needs a D block and an Xe line")
    m = len(blocks["D"][0])
    for row in blocks["C"] + blocks["D"] + [x_e] + ([z_e] if z_e else []):
        if len(row) != m:
            raise FormatError(f"row length {len(row)} != {m}")
    return make_css_code(
        name, m,
        [BitVector.from_string(r) for r in blocks["C"]],
        [BitVector.from_string(r) for r in blocks["D"]],
        BitVector.from_string(x_e),
        BitVector.from_string(z_e) if z_e else None)


def format_css_code(code: CssCode) -> str:
    lines = [f"name: {code.name}", "C:"]
    lines += code.c_mat.to_strings()
    lines.append("D:")
    lines += code.d_mat.to_strings()
    lines.append(f"Xe: {code.x_e.to_string()}")
    lines.append(f"Ze: {code.z_e.to_string()}")
    return "\n".join(lines) + "\n"
