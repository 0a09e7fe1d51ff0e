"""Exact linear algebra over GF(2) and Z4.

Vectors and matrices are bit-packed into Python integers, so every
operation here is exact.  Bit i of a vector's integer is coordinate i.
The Z4 solver handles the zero divisors that make mod-4 systems unlike
field systems: unit pivots are eliminated first and the leftover all-even
rows become exact GF(2) constraints after halving.  Every enumeration
of a span in the package runs on the one Gray-code walk here, which
enforces the enumeration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import enum_cap
from .errors import CapExceeded, FormatError, invariant


@dataclass(frozen=True)
class BitVector:
    """Vector over GF(2) with a fixed length."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside declared length")

    @staticmethod
    def zeros(length: int) -> "BitVector":
        return BitVector(length, 0)

    @staticmethod
    def from_bits(values) -> "BitVector":
        values = list(values)
        bits = 0
        for i, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError(f"bit value {v!r} is not 0/1")
            bits |= v << i
        return BitVector(len(values), bits)

    @staticmethod
    def from_string(text: str) -> "BitVector":
        if not all(c in "01" for c in text):
            raise ValueError(f"not a 0/1 string: {text!r}")
        return BitVector(len(text), int(text[::-1], 2) if text else 0)

    @staticmethod
    def from_support(length: int, support) -> "BitVector":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise ValueError(f"index {i} out of range")
            bits |= 1 << i
        return BitVector(length, bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.length, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.length, self.bits & other.bits)

    def _check(self, other: "BitVector") -> None:
        if self.length != other.length:
            raise ValueError("length mismatch")

    def dot(self, other: "BitVector") -> int:
        """Parity of the coordinatewise product."""
        self._check(other)
        return (self.bits & other.bits).bit_count() & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.length + other.length,
                         self.bits | (other.bits << self.length))

    def restrict(self, indices) -> "BitVector":
        """Subvector at the given coordinate indices, in the given order."""
        return BitVector.from_bits([self[i] for i in indices])

    def delete(self, i: int) -> "BitVector":
        """Drop coordinate i, shifting the higher coordinates down."""
        low = self.bits & ((1 << i) - 1)
        return BitVector(self.length - 1, low | ((self.bits >> (i + 1)) << i))

    def to_string(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0"
                       for i in range(self.length))

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2), stored as a tuple of BitVector rows."""

    cols: int
    rows: tuple[BitVector, ...]

    def __post_init__(self):
        for r in self.rows:
            if r.length != self.cols:
                raise ValueError("row length does not match cols")

    @staticmethod
    def from_rows(rows) -> "BitMatrix":
        rows = tuple(rows)
        if not rows:
            raise ValueError("cannot infer cols from zero rows; "
                             "use BitMatrix(cols, ())")
        return BitMatrix(rows[0].length, rows)

    @staticmethod
    def identity(n: int) -> "BitMatrix":
        return BitMatrix(n, tuple(BitVector(n, 1 << i) for i in range(n)))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def row_ints(self) -> list[int]:
        return [r.bits for r in self.rows]

    def mul_vector(self, v: BitVector) -> BitVector:
        """Matrix times column vector."""
        if v.length != self.cols:
            raise ValueError("dimension mismatch")
        return BitVector.from_bits([r.dot(v) for r in self.rows])

    def transpose(self) -> "BitMatrix":
        return BitMatrix(
            self.num_rows,
            tuple(BitVector.from_bits([r[c] for r in self.rows])
                  for c in range(self.cols)))

    def delete_column(self, c: int) -> "BitMatrix":
        keep = [i for i in range(self.cols) if i != c]
        return BitMatrix(self.cols - 1,
                         tuple(r.restrict(keep) for r in self.rows))

    def to_strings(self) -> list[str]:
        return [r.to_string() for r in self.rows]

    def __str__(self) -> str:
        return "\n".join(self.to_strings())


def _rref_ints(rows: list[int]) -> tuple[list[int], list[int]]:
    """Row reduce integer-packed rows; returns (nonzero rows, pivot columns).

    Deterministic: pivots take the lowest available column, scanning rows
    top to bottom, so the result is canonical for the row space.
    """
    rows = list(rows)
    pivots: list[int] = []
    out: list[int] = []
    for row in rows:
        for p, c in zip(out, pivots):
            if (row >> c) & 1:
                row ^= p
        if row == 0:
            continue
        c = (row & -row).bit_length() - 1
        # Insert keeping pivot columns sorted, and reduce earlier rows.
        out = [r ^ row if (r >> c) & 1 else r for r in out]
        k = 0
        while k < len(pivots) and pivots[k] < c:
            k += 1
        out.insert(k, row)
        pivots.insert(k, c)
    return out, pivots


def rref(m: BitMatrix) -> tuple[BitMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form: (matrix without zero rows, rank, pivot cols)."""
    out, pivots = _rref_ints(m.row_ints())
    reduced = BitMatrix(m.cols, tuple(BitVector(m.cols, r) for r in out))
    return reduced, len(out), tuple(pivots)


def rank(m: BitMatrix) -> int:
    return len(_rref_ints(m.row_ints())[0])


def row_space_contains(m: BitMatrix, v: BitVector) -> bool:
    if v.length != m.cols:
        raise ValueError("dimension mismatch")
    out, pivots = _rref_ints(m.row_ints())
    x = v.bits
    for p, c in zip(out, pivots):
        if (x >> c) & 1:
            x ^= p
    return x == 0


def nullspace(m: BitMatrix) -> BitMatrix:
    """Canonical basis of {x : m @ x = 0}, returned in rref form."""
    out, pivots = _rref_ints(m.row_ints())
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = 1 << f
        for p, c in zip(out, pivots):
            if (p >> f) & 1:
                v |= 1 << c
        basis.append(v)
    reduced, _ = _rref_ints(basis)
    return BitMatrix(m.cols, tuple(BitVector(m.cols, r) for r in reduced))


class Span:
    """Incrementally maintained row space of bit-packed GF(2) vectors."""

    def __init__(self, vectors=()):
        self.rows: list[int] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def _reduce(self, v: int) -> int:
        for r, c in zip(self.rows, self.pivots):
            if (v >> c) & 1:
                v ^= r
        return v

    def contains(self, v: int) -> bool:
        return self._reduce(v) == 0

    def add(self, v: int) -> bool:
        """Add a vector; True when it enlarged the span."""
        v = self._reduce(v)
        if v == 0:
            return False
        c = (v & -v).bit_length() - 1
        self.rows = [r ^ v if (r >> c) & 1 else r for r in self.rows]
        self.rows.append(v)
        self.pivots.append(c)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def left_kernel(rows: list[int], width: int) -> list[int]:
    """Canonical basis of the coefficient masks c whose rows XOR to zero.

    Bit i of c selects rows[i], a packed row of ``width`` bits.  Each row
    is tagged with bit width + i and eliminated once; the reduced rows
    whose low ``width`` bits vanish carry the kernel in their tags.  The
    result is the rref basis, sorted by pivot, so it equals the nullspace
    of the transposed matrix.
    """
    span = Span(r | 1 << (width + i) for i, r in enumerate(rows))
    return [r >> width for c, r in sorted(zip(span.pivots, span.rows))
            if c >= width]


def gray_steps(k: int, cap: int | None = None):
    """Row indices toggled by the Gray-code walk over a k-row span.

    The walk starts at the zero combination and reaches all 2^k, each
    step toggling the row at the lowest set bit of the step number.
    Callers that carry state (a sign, a form value) fold over these
    indices.  The cap is checked here, before the first step.
    """
    limit = enum_cap(cap)
    if 1 << k > limit:
        raise CapExceeded(f"enumerating 2^{k} elements exceeds the cap of"
                          f" {limit} (STABLULC_ENUM_CAP)")
    return ((m & -m).bit_length() - 1 for m in range(1, 1 << k))


def span_elements(rows: list[int], cap: int | None = None):
    """Yield every combination of the packed rows, zero first, Gray order."""
    steps = gray_steps(len(rows), cap)
    cur = 0
    yield cur
    for i in steps:
        cur ^= rows[i]
        yield cur


def minimal_supports(masks) -> list[int]:
    """The inclusion-minimal nonzero masks, in (weight, value) order."""
    minimal: list[int] = []
    for s in sorted({s for s in masks if s}, key=lambda s: (s.bit_count(), s)):
        if not any(t & s == t for t in minimal):
            minimal.append(s)
    return minimal


def invert(m: BitMatrix) -> BitMatrix | None:
    """Inverse of a square matrix, or None when singular."""
    n = m.cols
    if m.num_rows != n:
        raise ValueError("not square")
    aug = [r.bits | (1 << (n + i)) for i, r in enumerate(m.rows)]
    out, pivots = _rref_ints(aug)
    if len(out) != n or any(c >= n for c in pivots):
        return None
    mask = (1 << n) - 1
    inv_rows = [BitVector(n, r >> n) for r in out]
    invariant(all((r & mask) == (1 << c) for r, c in zip(out, pivots)),
              "inverse rows do not reduce to the identity")
    return BitMatrix(n, tuple(inv_rows))


def solve(m: BitMatrix, target: BitVector) -> BitVector | None:
    """One solution x of m @ x = target over GF(2), or None."""
    if target.length != m.num_rows:
        raise ValueError("dimension mismatch")
    aug = [r.bits | (target[i] << m.cols) for i, r in enumerate(m.rows)]
    out, pivots = _rref_ints(aug)
    x = 0
    for p, c in zip(out, pivots):
        if c == m.cols:
            return None
        if (p >> m.cols) & 1:
            x |= 1 << c
    return BitVector(m.cols, x)


class Mod4Eliminator:
    """Incremental Gaussian elimination over Z4.

    Maintains two reduced layers: rows with a unit pivot (full Z4
    information) and residual rows whose coefficients are all even, stored
    halved as exact GF(2) constraints.  Feeding equations one at a time
    keeps huge systems cheap when most rows are redundant.
    """

    def __init__(self, n: int):
        self.n = n
        self.unit_rows: list[list[int]] = []   # coeff list + [target]
        self.unit_pivots: list[int] = []
        self.even_rows: list[int] = []         # GF(2) packed: bit n = target
        self.even_pivots: list[int] = []
        self.feasible = True

    def add(self, coeff_bits: int, target: int) -> bool:
        """Insert one equation; returns False once infeasibility is proven."""
        if not self.feasible:
            return False
        row = [(coeff_bits >> i) & 1 for i in range(self.n)]
        row.append(target & 3)
        self._reduce_by_units(row)
        col = self._unit_column(row)
        if col is not None:
            self._install_unit(row, col)
            return self.feasible
        # All coefficients even: halve into a GF(2) constraint.
        if row[self.n] & 1:
            self.feasible = False
            return False
        packed = 0
        for i in range(self.n):
            packed |= (row[i] >> 1) << i
        packed |= (row[self.n] >> 1) << self.n
        self._install_even(packed)
        return self.feasible

    def _reduce_by_units(self, row: list[int]) -> None:
        for r, c in zip(self.unit_rows, self.unit_pivots):
            f = row[c]
            if f:
                for i in range(self.n + 1):
                    row[i] = (row[i] - f * r[i]) & 3

    def _unit_column(self, row: list[int]) -> int | None:
        for i in range(self.n):
            if row[i] & 1:
                return i
        return None

    def _install_unit(self, row: list[int], col: int) -> None:
        if row[col] == 3:  # 3 is its own inverse mod 4
            row = [(3 * v) & 3 for v in row]
        # Clear this column from existing unit rows.
        for r in self.unit_rows:
            f = r[col]
            if f:
                for i in range(self.n + 1):
                    r[i] = (r[i] - f * row[i]) & 3
        # Substitute the pivot variable's parity into even rows:
        # a_col = t - sum(other coeffs * a) mod 4, so mod 2 as well.
        parity = 0
        for i in range(self.n):
            if i != col and row[i] & 1:
                parity |= 1 << i
        parity |= (row[self.n] & 1) << self.n
        for k, er in enumerate(self.even_rows):
            if (er >> col) & 1:
                self.even_rows[k] = (er & ~(1 << col)) ^ parity
        # Re-reduce even rows that may have lost their pivot structure.
        stale = self.even_rows
        self.even_rows, self.even_pivots = [], []
        self.unit_rows.append(row)
        self.unit_pivots.append(col)
        for er in stale:
            self._install_even(er)

    def _install_even(self, packed: int) -> None:
        for r, c in zip(self.even_rows, self.even_pivots):
            if (packed >> c) & 1:
                packed ^= r
        if packed == 0:
            return
        if packed == 1 << self.n:
            self.feasible = False
            return
        c = (packed & -packed).bit_length() - 1
        self.even_rows = [r ^ packed if (r >> c) & 1 else r
                          for r in self.even_rows]
        self.even_rows.append(packed)
        self.even_pivots.append(c)

    def solution(self) -> list[int] | None:
        """An assignment in Z4^n satisfying every inserted equation."""
        if not self.feasible:
            return None
        a = [0] * self.n
        # Parities of non-pivot variables from the even layer (free bits 0).
        for r, c in zip(self.even_rows, self.even_pivots):
            val = (r >> self.n) & 1
            for i in range(self.n):
                if i != c and (r >> i) & 1:
                    val ^= a[i] & 1
            a[c] = val
        for r, c in zip(self.unit_rows, self.unit_pivots):
            val = r[self.n]
            for i in range(self.n):
                if i != c and r[i]:
                    val -= r[i] * a[i]
            a[c] = val & 3
        return a


def parse_matrix(text: str) -> BitMatrix:
    """Parse the matrix text format: a "rows cols" line, then 0/1 rows.

    Blank lines and lines starting with '#' are ignored.
    """
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty matrix input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise FormatError(f"expected 'rows cols' header, got {header!r}", lineno)
    nrows, ncols = int(parts[0]), int(parts[1])
    body = lines[1:]
    if len(body) != nrows:
        raise FormatError(f"expected {nrows} rows, found {len(body)}")
    rows = []
    for lineno, line in body:
        if len(line) != ncols or not all(c in "01" for c in line):
            raise FormatError(
                f"expected {ncols} characters of 0/1, got {line!r}", lineno)
        rows.append(BitVector.from_string(line))
    return BitMatrix(ncols, tuple(rows))


def format_matrix(m: BitMatrix) -> str:
    return "\n".join([f"{m.num_rows} {m.cols}"] + m.to_strings()) + "\n"


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped content) for non-blank, non-comment lines."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out
