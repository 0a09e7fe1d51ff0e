"""Hermitian Pauli operators and stabilizer groups with exact signs.

An operator is stored as packed x and z ints (bit i is qubit i) plus a
sign in {+1, -1}; imaginary phases cannot be represented and multiplying
anticommuting operators raises.  Stabilizer groups validate commutation and
independence at construction, which also rules out -I as a product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormatError, PreconditionError
from .gf2 import Span, gray_steps, left_kernel, minimal_supports

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_BITS = {v: k for k, v in _LETTERS.items()}


@dataclass(frozen=True)
class PauliOperator:
    """sign * (tensor product of I/X/Y/Z letters) on n qubits."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if min(self.n, self.x, self.z) < 0 or (self.x | self.z) >> self.n:
            raise ValueError("x/z bits outside the n qubits")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @staticmethod
    def identity(n: int) -> "PauliOperator":
        return PauliOperator(n, 0, 0)

    @staticmethod
    def from_string(text: str) -> "PauliOperator":
        text = text.strip()
        sign = 1
        if text[:1] in ("+", "-", "−"):
            if text[0] != "+":
                sign = -1
            text = text[1:]
        if not text or any(c not in "IXYZ" for c in text):
            raise ValueError(f"not a Pauli string: {text!r}")
        x = z = 0
        for i, c in enumerate(text):
            bx, bz = _LETTER_BITS[c]
            x |= bx << i
            z |= bz << i
        return PauliOperator(len(text), x, z, sign)

    @staticmethod
    def from_xz_phase(n: int, x: int, z: int, phase_exp: int) -> "PauliOperator":
        """Build i^phase_exp * X^x Z^z; requires the result to be Hermitian."""
        y = (x & z).bit_count()
        e = (phase_exp - y) % 4
        if e % 2:
            raise ValueError("operator has an imaginary phase")
        return PauliOperator(n, x, z, 1 if e == 0 else -1)

    def letter(self, i: int) -> str:
        return _LETTERS[((self.x >> i) & 1, (self.z >> i) & 1)]

    def support(self) -> tuple[int, ...]:
        m = self.x | self.z
        return tuple(i for i in range(self.n) if (m >> i) & 1)

    def support_mask(self) -> int:
        return self.x | self.z

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def symplectic(self) -> int:
        """(x | z) packed into one 2n-bit int, z above x."""
        return self.x | self.z << self.n

    def commutes_with(self, other: "PauliOperator") -> bool:
        """Whether the symplectic form x1.z2 + z1.x2 vanishes mod 2."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return ((self.x & other.z).bit_count()
                + (self.z & other.x).bit_count()) % 2 == 0

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        x1, z1, x2, z2 = self.x, self.z, other.x, other.z
        x, z = x1 ^ x2, z1 ^ z2
        # Writing each factor as sign * i^y X^x Z^z and commuting Z^z1 past
        # X^x2 costs (-1)^(z1.x2); the y-counts rebalance the i's.
        e = ((x1 & z1).bit_count() + (x2 & z2).bit_count()
             - (x & z).bit_count() + 2 * (z1 & x2).bit_count()) % 4
        if e % 2:
            raise ValueError("product of anticommuting operators is not Hermitian")
        sign = self.sign * other.sign * (1 if e == 0 else -1)
        return PauliOperator(self.n, x, z, sign)

    def to_string(self) -> str:
        body = "".join(self.letter(i) for i in range(self.n))
        return ("+" if self.sign == 1 else "-") + body

    def __str__(self) -> str:
        return self.to_string()

    def sort_key(self) -> tuple[int, int, int]:
        return (self.x, self.z, 0 if self.sign == 1 else 1)


class StabilizerGroup:
    """Abelian group of Hermitian Paulis given by independent generators.

    Construction checks pairwise commutation and GF(2) independence of the
    (x | z) rows; independence of signed Hermitian generators implies the
    group never contains -I.
    """

    def __init__(self, n: int, generators):
        self.n = n
        self.generators: tuple[PauliOperator, ...] = tuple(generators)
        for g in self.generators:
            if g.n != n:
                raise ValueError("generator qubit count mismatch")
            if g.is_identity():
                raise ValueError("identity is not a valid generator")
        for a, b in itertools.combinations(self.generators, 2):
            if not a.commutes_with(b):
                raise ValueError("generators must commute")
        if Span(g.symplectic() for g in self.generators).rank != self.dim:
            raise ValueError("generators must be independent over GF(2)")

    @property
    def dim(self) -> int:
        """log2 of the group order (number of independent generators)."""
        return len(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def enumerate_elements(self, cap: int | None = None):
        """Yield all 2^dim elements, identity first, in Gray-code order."""
        steps = gray_steps(self.dim, cap)
        cur = PauliOperator.identity(self.n)
        yield cur
        for i in steps:
            cur = cur * self.generators[i]
            yield cur

    def elements(self, cap: int | None = None) -> list[PauliOperator]:
        return list(self.enumerate_elements(cap))

    def product(self, coeffs: int) -> PauliOperator:
        """Product of the generators selected by the bits of ``coeffs``."""
        g = PauliOperator.identity(self.n)
        for i, h in enumerate(self.generators):
            if (coeffs >> i) & 1:
                g = g * h
        return g

    def _products(self, coeff_masks) -> "StabilizerGroup":
        """The group generated by the products the masks select."""
        return StabilizerGroup(self.n, [self.product(c) for c in coeff_masks])

    def _outside_rows(self, omega) -> list[int]:
        """Generators' packed (x | z) rows masked to qubits outside omega."""
        keep = 0
        for i in omega:
            if not 0 <= i < self.n:
                raise ValueError(f"qubit {i} out of range")
            keep |= 1 << i
        comp = ((1 << self.n) - 1) & ~keep
        return [(g.x & comp) | (g.z & comp) << self.n for g in self.generators]

    def supported_dim(self, omega) -> int:
        """dim of the subgroup of elements supported inside omega."""
        return self.dim - Span(self._outside_rows(omega)).rank

    def subgroup_supported_in(self, omega) -> "StabilizerGroup":
        """The subgroup S_omega of elements with support inside omega."""
        return self._products(left_kernel(self._outside_rows(omega),
                                          2 * self.n))

    def distance(self, cap: int | None = None) -> int:
        """Minimum weight over non-identity elements (enumerative)."""
        best = self.n + 1
        for g in self.enumerate_elements(cap):
            if not g.is_identity():
                best = min(best, g.weight())
        if best > self.n:
            raise ValueError("group is trivial; distance undefined")
        return best

    def count_support_in(self, omega) -> int:
        """Number of elements supported inside omega (2^dim of S_omega)."""
        return 1 << self.supported_dim(omega)

    def count_support_eq(self, omega, cap: int | None = None) -> int:
        """Number of elements whose support is exactly omega."""
        mask = 0
        for i in omega:
            mask |= 1 << i
        sub = self.subgroup_supported_in(omega)
        return sum(1 for g in sub.enumerate_elements(cap)
                   if g.support_mask() == mask)

    def is_bell_pair_free(self) -> tuple[bool, tuple[int, int] | None]:
        """False with a witness pair {i,j} when dim S_{i,j} = 2.

        A rank-2 subgroup on two qubits means those qubits carry a full
        two-qubit stabilizer factor (Bell-like or a product of two fixed
        qubits); either way the minimal-support criterion is inapplicable.
        """
        for i, j in itertools.combinations(range(self.n), 2):
            if self.supported_dim((i, j)) == 2:
                return False, (i, j)
        return True, None

    def minimal_elements(self, cap: int | None = None
                         ) -> tuple[PauliOperator, ...]:
        """Elements of inclusion-minimal nonempty support, sorted by sort_key."""
        supports: dict[int, list[PauliOperator]] = {}
        for g in self.enumerate_elements(cap):
            supports.setdefault(g.support_mask(), []).append(g)
        elems = [g for m in minimal_supports(supports) for g in supports[m]]
        return tuple(sorted(elems, key=PauliOperator.sort_key))

    def css_split(self) -> tuple["StabilizerGroup", "StabilizerGroup"] | None:
        """(X-type subgroup, Z-type subgroup) when they generate S, else None."""
        x_coeffs = left_kernel([g.z for g in self.generators], self.n)
        z_coeffs = left_kernel([g.x for g in self.generators], self.n)
        if len(x_coeffs) + len(z_coeffs) != self.dim:
            return None
        return self._products(x_coeffs), self._products(z_coeffs)

    def is_css(self) -> bool:
        return self.css_split() is not None

    def msc_certificate(self, minimal_elems=None,
                        cap: int | None = None) -> "MscCertificate":
        """Minimal-support certificate for LU equivalence implying LC.

        CERTIFIED when the state is free of Bell pairs and X, Y and Z all
        occur on every qubit within the group generated by minimal-support
        elements.  ``minimal_elems`` may supply externally proven minimal
        elements as a fast path; otherwise they are enumerated.  The
        theorem is about states, so the group must have full rank.
        """
        if self.dim != self.n:
            raise PreconditionError(
                f"the minimal-support certificate needs a state:"
                f" {self.dim} generators on {self.n} qubits")
        free, witness = self.is_bell_pair_free()
        if not free:
            return MscCertificate("INCONCLUSIVE", "bell_pair", witness, ())
        if minimal_elems is None:
            minimal_elems = self.minimal_elements(cap)
        letters = _letters_of_generated_group(self.n, minimal_elems)
        for q, ls in enumerate(letters):
            if ls != frozenset("XYZ"):
                missing = "".join(sorted(set("XYZ") - ls))
                return MscCertificate("INCONCLUSIVE", "coverage",
                                      (q, missing), letters)
        return MscCertificate("CERTIFIED", None, None, letters)


def _letters_of_generated_group(n: int,
                                elems) -> tuple[frozenset[str], ...]:
    """Per-qubit letters occurring in the group generated by ``elems``.

    The letter at a fixed qubit is a homomorphism into Z2 x Z2, so the
    letters realized by the generated group are exactly the subgroup
    generated by the generators' letters: two distinct non-identity
    letters already give all three.
    """
    out = []
    for q in range(n):
        seen = {g.letter(q) for g in elems} - {"I"}
        out.append(frozenset("XYZ") if len(seen) >= 2 else frozenset(seen))
    return tuple(out)


@dataclass(frozen=True)
class MscCertificate:
    """Outcome of the minimal-support check.

    ``hypothesis`` records the entanglement variant actually tested
    (freedom from Bell pairs rather than full entanglement).
    """

    status: str                      # CERTIFIED | INCONCLUSIVE
    reason: str | None
    witness: object
    letters: tuple[frozenset[str], ...]
    hypothesis: str = "bell_pair_free"

    @property
    def certified(self) -> bool:
        return self.status == "CERTIFIED"

    def line(self) -> str:
        if self.certified:
            return f"CERTIFIED theorem=msc details=qubits={len(self.letters)}"
        return (f"INCONCLUSIVE theorem=msc reason={self.reason}"
                f" witness={format_witness(self.witness)}")


def format_witness(w) -> str:
    """A witness as printed in verdict lines: tuples as (a,b,...)."""
    if isinstance(w, tuple):
        return "(" + ",".join(str(p) for p in w) + ")"
    return str(w)


def parse_stabilizer(text: str) -> StabilizerGroup:
    """Parse one generator per line: optional +/- sign then I/X/Y/Z letters."""
    gens = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            g = PauliOperator.from_string(line)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from exc
        if n is None:
            n = g.n
        elif g.n != n:
            raise FormatError(f"expected {n} letters, got {g.n}", lineno)
        gens.append(g)
    if n is None:
        raise FormatError("no generators found")
    try:
        return StabilizerGroup(n, gens)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_stabilizer(group: StabilizerGroup) -> str:
    return "\n".join(g.to_string() for g in group.generators) + "\n"
