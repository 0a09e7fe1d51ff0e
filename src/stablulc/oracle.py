"""Dense-vector oracle for quadratic-form states and diagonal unitaries.

States here are full complex amplitude vectors (qubit i is bit i of the
index), so anything up to ORACLE_MAX_QUBITS can be checked against exact
linear-algebra claims numerically.  Quadratic-form states are the real
objects of interest: sums of (-1)^q(x) |x> over a GF(2) subspace, with q
a strictly quadratic form (no linear or constant part).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, PreconditionError, invariant
from .gf2 import (BitMatrix, BitVector, Mod4Eliminator, gray_steps,
                  left_kernel, nullspace, rref, solve)
from .pauli import PauliOperator, StabilizerGroup

ORACLE_MAX_QUBITS = 20
PHASE_TOL = 1e-8
NORM_TOL = 1e-10


@dataclass(frozen=True)
class DiagonalLocalUnitary:
    """Tensor product of diag(1, e^{i theta_j}) over qubits."""

    thetas: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.thetas)

    def drop_qubit(self, j: int) -> "DiagonalLocalUnitary":
        return DiagonalLocalUnitary(self.thetas[:j] + self.thetas[j + 1:])

    def extend(self, extra) -> "DiagonalLocalUnitary":
        return DiagonalLocalUnitary(self.thetas + tuple(extra))

    def non_clifford_qubits(self, tol: float = PHASE_TOL) -> tuple[int, ...]:
        """Qubits whose local gate is not Clifford (theta off the pi/2 grid)."""
        out = []
        for j, t in enumerate(self.thetas):
            q = t / (math.pi / 2)
            if abs(q - round(q)) > tol:
                out.append(j)
        return tuple(out)

    def all_non_clifford(self, tol: float = PHASE_TOL) -> bool:
        return len(self.non_clifford_qubits(tol)) == self.n


@dataclass(frozen=True)
class QuadraticFormState:
    """(subspace S, strictly quadratic form q) defining sum (-1)^q(x) |x>.

    ``coeffs`` lists the pairs {i, j}, i < j, with q_ij = 1.
    """

    basis: BitMatrix
    coeffs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           frozenset(tuple(sorted(p)) for p in self.coeffs))
        reduced, r, _ = rref(self.basis)
        if r != self.basis.num_rows:
            raise ValueError("basis rows must be independent")
        for i, j in self.coeffs:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad coefficient pair ({i}, {j})")

    @property
    def n(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.num_rows

    def _polar_masks(self, rows: list[int]) -> list[int]:
        """Per packed row r, the mask p with B(x, r) = parity(x & p).

        B is the polarization q(x + r) - q(x) - q(r) of the form.
        """
        sym = [0] * self.n
        for i, j in self.coeffs:
            sym[i] |= 1 << j
            sym[j] |= 1 << i
        out = []
        for r in rows:
            p = 0
            for j in BitVector(self.n, r).support():
                p ^= sym[j]
            out.append(p)
        return out

    def q(self, x: BitVector | int) -> int:
        """Evaluate the form at x (0/1 result)."""
        bits = x.bits if isinstance(x, BitVector) else x
        total = 0
        for i, j in self.coeffs:
            total ^= (bits >> i) & (bits >> j) & 1
        return total

    def elements(self, cap: int | None = None):
        """All subspace elements as (bits, q value), Gray-code order."""
        steps = gray_steps(self.dim, cap)
        rows = self.basis.row_ints()
        row_q = [self.q(r) for r in rows]
        polar = self._polar_masks(rows)
        x, qx = 0, 0
        yield x, qx
        for i in steps:
            # q(x + r) = q(x) + q(r) + B(x, r) with B the polarization.
            qx ^= row_q[i] ^ ((x & polar[i]).bit_count() & 1)
            x ^= rows[i]
            yield x, qx

    def canonical_basis(self) -> BitMatrix:
        return rref(self.basis)[0]

    def same_subspace(self, other: "QuadraticFormState") -> bool:
        return (self.n == other.n
                and self.canonical_basis() == other.canonical_basis())


@dataclass
class DenseState:
    """Normalized amplitude vector on n qubits."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError("amplitude vector has wrong length")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized (norm {norm})")

    def amplitude(self, bits) -> complex:
        """Amplitude of the basis state given by a bit tuple or integer."""
        if isinstance(bits, BitVector):
            idx = bits.bits
        elif isinstance(bits, int):
            idx = bits
        else:
            idx = sum(b << i for i, b in enumerate(bits))
        return complex(self.amplitudes[idx])


def _check_oracle_size(n: int) -> None:
    if n > ORACLE_MAX_QUBITS:
        raise PreconditionError(
            f"dense oracle is limited to {ORACLE_MAX_QUBITS} qubits, got {n}")


def state_from_quadratic_form(qf: QuadraticFormState) -> DenseState:
    _check_oracle_size(qf.n)
    amps = np.zeros(1 << qf.n, dtype=np.complex128)
    count = 0
    for bits, qx in qf.elements():
        amps[bits] = -1.0 if qx else 1.0
        count += 1
    amps /= math.sqrt(count)
    return DenseState(qf.n, amps)


def _parity(values: np.ndarray, mask: int) -> np.ndarray:
    return np.bitwise_count(values & mask).astype(np.int64) & 1


def _apply_pauli_raw(g: PauliOperator, amps: np.ndarray) -> np.ndarray:
    idx = np.arange(len(amps), dtype=np.int64)
    y = (g.x & g.z).bit_count()
    phase = g.sign * (1j ** y) * np.where(_parity(idx, g.z), -1.0, 1.0)
    out = np.empty_like(amps)
    out[idx ^ g.x] = phase * amps
    return out


def apply_pauli(g: PauliOperator, state: DenseState) -> DenseState:
    """Exact dense action of a Pauli operator."""
    return DenseState(state.n, _apply_pauli_raw(g, state.amplitudes))


def state_from_stabilizer(group: StabilizerGroup) -> DenseState:
    """The unique state fixed by a full-rank (dim = n) stabilizer group."""
    n = group.n
    if group.dim != n:
        raise PreconditionError("state requires dim = n generators")
    _check_oracle_size(n)
    b = _support_point(group)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[b] = 1.0
    for g in group.generators:
        amps = (amps + _apply_pauli_raw(g, amps)) / 2.0
    norm = np.linalg.norm(amps)
    invariant(norm > 1e-9, "projector annihilated the seed basis state")
    return DenseState(n, amps / norm)


def _support_point(group: StabilizerGroup) -> int:
    """A basis state with nonzero amplitude: solve the Z-only constraints."""
    rows, rhs = [], []
    for c in left_kernel([g.x for g in group.generators], group.n):
        g = group.product(c)
        rows.append(BitVector(group.n, g.z))
        rhs.append(0 if g.sign == 1 else 1)
    if not rows:
        return 0
    sol = solve(BitMatrix(group.n, tuple(rows)), BitVector.from_bits(rhs))
    invariant(sol is not None, "inconsistent Z constraints in a valid group")
    return sol.bits


def stabilizer_from_quadratic_form(qf: QuadraticFormState) -> StabilizerGroup:
    """Exact stabilizer group of the quadratic-form state.

    For each basis row r the generator is (-1)^q(r) X^r Z^(Qsym r); the
    dual space of S contributes plain Z generators.
    """
    n = qf.n
    rows = qf.basis.row_ints()
    gens = []
    for r, zmask in zip(rows, qf._polar_masks(rows)):
        phase = 2 * qf.q(r)  # (-1)^q(r) = i^(2 q(r))
        gens.append(PauliOperator.from_xz_phase(n, r, zmask, phase))
    for v in nullspace(qf.basis).row_ints():
        gens.append(PauliOperator(n, 0, v))
    return StabilizerGroup(n, gens)


def apply_dlu(u: DiagonalLocalUnitary, state: DenseState) -> DenseState:
    if u.n != state.n:
        raise ValueError("qubit count mismatch")
    # The phase of basis state x is the product of e^{i theta_j} over the
    # set bits of x; doubling the table once per qubit builds all 2^n
    # phases in O(2^n) multiplications, with no per-element exp.
    phases = np.ones(1, dtype=np.complex128)
    for theta in u.thetas:
        phases = np.concatenate((phases, phases * cmath.exp(1j * theta)))
    return DenseState(state.n, state.amplitudes * phases)


def equal_up_to_global_phase(a: DenseState, b: DenseState,
                             tol: float = PHASE_TOL) -> bool:
    if a.n != b.n:
        return False
    k = int(np.argmax(np.abs(a.amplitudes)))
    ak, bk = a.amplitudes[k], b.amplitudes[k]
    if abs(bk) < tol:
        return False
    phase = bk / ak
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a.amplitudes * phase - b.amplitudes)) <= tol)


def dlc_feasible(qf: QuadraticFormState) -> list[int] | None:
    """Diagonal-local-Clifford feasibility of (S, 0) vs (S, q).

    Searches for a in Z4^n with sum_j a_j x_j = 2 q(x) (mod 4) for every
    x in S.  Write g(x) = sum_j a_j x_j - 2 q(x) mod 4.  Since
    [x + y]_j = x_j + y_j - 2 x_j y_j over the integers,
    g(x + y) = g(x) + g(y) - 2 beta(x, y) with
    beta(x, y) = sum_j (a_j mod 2) x_j y_j + B(x, y) bilinear mod 2 and B
    the polarization of q.  g = 0 at the basis rows b_i forces
    beta(b_i, b_i) = 0, and g = 0 at b_i + b_j then forces
    beta(b_i, b_j) = 0, so beta vanishes on S and g is additive there.
    Hence the k(k+1)/2 equations at the basis rows and their pairwise
    sums are equivalent to all 2^k.  Returns an assignment or None
    (exact infeasibility).
    """
    rows = qf.basis.row_ints()
    row_q = [qf.q(r) for r in rows]
    polar = qf._polar_masks(rows)
    elim = Mod4Eliminator(qf.n)
    for i, (r, qr, p) in enumerate(zip(rows, row_q, polar)):
        if not elim.add(r, 2 * qr):
            return None
        for j in range(i):
            # q(b_i + b_j) = q(b_i) + q(b_j) + B(b_j, b_i).
            qij = qr ^ row_q[j] ^ ((rows[j] & p).bit_count() & 1)
            if not elim.add(r ^ rows[j], 2 * qij):
                return None
    return elim.solution()


def dlc_assignment_to_dlu(a) -> DiagonalLocalUnitary:
    """Interpret a Z4 assignment as the diagonal Clifford layer diag(1, i^a_j)."""
    return DiagonalLocalUnitary(tuple((v % 4) * math.pi / 2 for v in a))


def verify_dlu_pair(psi: QuadraticFormState, psi2: QuadraticFormState,
                    u: DiagonalLocalUnitary, tol: float = PHASE_TOL) -> bool:
    """Check u |psi> = |psi2> up to global phase on the dense oracle."""
    if not psi.same_subspace(psi2):
        raise PreconditionError("states must share the subspace S")
    if u.n != psi.n:
        raise PreconditionError("DLU size mismatch")
    lhs = apply_dlu(u, state_from_quadratic_form(psi))
    rhs = state_from_quadratic_form(psi2)
    return equal_up_to_global_phase(lhs, rhs, tol)


def reduce_to_css_pair(psi: QuadraticFormState, psi2: QuadraticFormState
                       ) -> tuple[QuadraticFormState, QuadraticFormState]:
    """Map (q1, q2) on a shared S to the normalized pair (0, q1 + q2)."""
    if not psi.same_subspace(psi2):
        raise PreconditionError("states must share the subspace S")
    diff = psi.coeffs.symmetric_difference(psi2.coeffs)
    return (QuadraticFormState(psi.basis, frozenset()),
            QuadraticFormState(psi.basis, diff))


def parse_quadratic_form(text: str) -> QuadraticFormState:
    """Parse: a line "n", basis rows as 0/1 strings, then "q:" and "i j" pairs.

    Pair indices are 1-based in the file.  Lines after an optional "dlu:"
    marker are left for the seed parser and ignored here.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if not lines:
        raise FormatError("empty quadratic-form input")
    lineno, header = lines[0]
    if not header.isdigit():
        raise FormatError(f"expected qubit count, got {header!r}", lineno)
    n = int(header)
    rows: list[BitVector] = []
    coeffs: dict[tuple[int, int], int] = {}   # pair -> line it was read on
    mode = "basis"
    for lineno, line in lines[1:]:
        if line == "q:":
            mode = "pairs"
            continue
        if line.startswith("dlu:"):
            break
        if mode == "basis":
            if len(line) != n or not all(c in "01" for c in line):
                raise FormatError(
                    f"expected {n} characters of 0/1, got {line!r}", lineno)
            rows.append(BitVector.from_string(line))
        else:
            parts = line.split()
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise FormatError(f"expected 'i j' pair, got {line!r}", lineno)
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            if not (0 <= i < n and 0 <= j < n):
                raise FormatError(f"pair out of range: {line!r}", lineno)
            if i >= j:
                raise FormatError(f"pair must have i < j, got {line!r}",
                                  lineno)
            # Over GF(2) two copies of x_i x_j cancel; a repeat is an error.
            if (i, j) in coeffs:
                raise FormatError(f"duplicate pair {line!r} (first on line"
                                  f" {coeffs[i, j]})", lineno)
            coeffs[i, j] = lineno
    try:
        return QuadraticFormState(BitMatrix(n, tuple(rows)), frozenset(coeffs))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_quadratic_form(qf: QuadraticFormState) -> str:
    lines = [str(qf.n)]
    lines.extend(r.to_string() for r in qf.basis.rows)
    lines.append("q:")
    for i, j in sorted(qf.coeffs):
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
