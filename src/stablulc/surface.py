"""Surface codes on embedded graphs, and grid cluster states.

Qubits live on edges (in sorted label order).  Site operators put X on
the edges at a vertex, face operators put Z on a face boundary; genus-g
embeddings carry 2g logical pairs read off from homology.  The
certificates here turn the girth/cogirth >= 3 hypothesis into a checked
local-unitary = local-Clifford proof via minimal-support elements, and
do the analogous per-generator check for rectangular grid cluster
states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import PreconditionError, invariant
from .gf2 import BitMatrix, BitVector, Span, nullspace, row_space_contains
from .pauli import PauliOperator, StabilizerGroup, format_witness


def _x_on(n: int, bits: int) -> PauliOperator:
    return PauliOperator(n, bits, 0)


def _z_on(n: int, bits: int) -> PauliOperator:
    return PauliOperator(n, 0, bits)


@dataclass(frozen=True)
class SurfaceCode:
    """Stabilizer code of an embedded graph, one qubit per edge."""

    graph: EmbeddedGraph
    edge_order: tuple[str, ...]
    stabilizer: StabilizerGroup
    site_vertices: tuple[str, ...]       # vertices kept as generators
    face_indices: tuple[int, ...]        # faces kept as generators
    logical_pairs: tuple[tuple[PauliOperator, PauliOperator], ...]
    genus: int
    has_loops: bool

    @property
    def n(self) -> int:
        return len(self.edge_order)

    @property
    def num_logical_pairs(self) -> int:
        return len(self.logical_pairs)

    def site_operator(self, v: str) -> PauliOperator:
        return _x_on(self.n, self.graph.star(v).bits)

    def face_operator(self, index: int) -> PauliOperator:
        return _z_on(self.n, self.graph.face_matrix().rows[index].bits)

    def all_face_operators(self) -> dict[int, PauliOperator]:
        rows = self.graph.face_matrix().rows
        return {i: _z_on(self.n, rows[i].bits) for i in range(len(rows))}


def build_code(g: EmbeddedGraph) -> SurfaceCode:
    """Build the code: independent site/face operators plus logicals.

    One site and one face relation each force a dependent generator;
    iteration order is fixed (sorted vertices, face index order) so the
    dropped ones are deterministic.
    """
    if not g.is_connected():
        raise PreconditionError("surface code requires a connected graph")
    if not g.edges:
        raise PreconditionError("surface code requires at least one edge")
    n = g.num_edges
    genus = g.embedding_genus()
    has_loops = any(u == v for u, v in g.edges.values())

    gens: list[PauliOperator] = []
    span = Span()
    site_vertices = []
    for v in sorted(g.vertices):
        op = _x_on(n, g.star(v).bits)
        if not op.is_identity() and span.add(op.symplectic()):
            gens.append(op)
            site_vertices.append(v)
    face_rows = g.face_matrix().rows
    face_indices = []
    for i, row in enumerate(face_rows):
        op = _z_on(n, row.bits)
        if not op.is_identity() and span.add(op.symplectic()):
            gens.append(op)
            face_indices.append(i)

    stabilizer = StabilizerGroup(n, gens)
    pairs = []
    for x_rep, z_rep in g.homology_logical_supports():
        pairs.append((_x_on(n, x_rep.bits), _z_on(n, z_rep.bits)))

    for xo, zo in pairs:
        for s in stabilizer.generators:
            invariant(xo.commutes_with(s) and zo.commutes_with(s),
                      "logical operator anticommutes with a generator")
    for i, (xi, _) in enumerate(pairs):
        for j, (_, zj) in enumerate(pairs):
            invariant(xi.commutes_with(zj) == (i != j),
                      "logical pairs are not symplectically paired")
    invariant(has_loops or stabilizer.dim == n - 2 * genus,
              "stabilizer dimension is not n - 2 * genus")

    return SurfaceCode(g, g.edge_order(), stabilizer, tuple(site_vertices),
                       tuple(face_indices), tuple(pairs), genus, has_loops)


@dataclass(frozen=True)
class SurfaceCodeState:
    """One code state: stabilizer completed by l X-logicals, rest Z."""

    code: SurfaceCode
    l: int
    group: StabilizerGroup


def build_state(code: SurfaceCode, l: int) -> SurfaceCodeState:
    k = code.num_logical_pairs
    if not 0 <= l <= k:
        raise PreconditionError(f"l must be in [0, {k}], got {l}")
    gens = list(code.stabilizer.generators)
    gens += [code.logical_pairs[i][0] for i in range(l)]
    gens += [code.logical_pairs[i][1] for i in range(l, k)]
    group = StabilizerGroup(code.n, gens)
    if group.dim != code.n:
        raise PreconditionError(
            "stabilizer does not reach full rank (loops in the graph)")
    return SurfaceCodeState(code, l, group)


# -- centralizer structure -----------------------------------------------

def z_only_centralizer_check(code: SurfaceCode):
    """Check pure-Z centralizer supports are cycles, pure-X ones cocycles.

    The Z side is solved from the actual generators' X parts and tested
    against the graph's cycle space; the X side against the dual graph's
    cycle space, making both directions independent cross-checks.
    Returns (True, None) or (False, violating support).
    """
    g = code.graph
    girth, cogirth = g.girth_and_cogirth()
    if girth < 2:
        raise PreconditionError("graph has a loop")
    if cogirth < 2:
        raise PreconditionError("graph has a bridge")
    n = code.n
    gens = code.stabilizer.generators
    x_rows = BitMatrix(n, tuple(BitVector(n, s.x) for s in gens))
    z_rows = BitMatrix(n, tuple(BitVector(n, s.z) for s in gens))
    cycles = g.cycle_space()
    dual_cycles = g.dual().cycle_space()   # same sorted edge labels
    for s in nullspace(x_rows).rows:
        if not row_space_contains(cycles, s):
            return False, s
    for s in nullspace(z_rows).rows:
        if not row_space_contains(dual_cycles, s):
            return False, s
    return True, None


# -- minimal decompositions ------------------------------------------------

@dataclass(frozen=True)
class MinimalDecomposition:
    """A site/face operator written as a product of minimal elements."""

    kind: str                      # "site" | "face"
    label: str
    operator: PauliOperator
    parts: tuple[PauliOperator, ...]
    uniqueness_counts: tuple[int, ...]

    def __post_init__(self):
        union = 0
        for p in self.parts:
            union |= p.support_mask()
            if self.kind == "site":
                invariant(not p.z, "site parts must be X-only")
            else:
                invariant(not p.x, "face parts must be Z-only")
        invariant(union == self.operator.support_mask(),
                  "parts do not cover the operator's support")
        invariant(all(c == 1 for c in self.uniqueness_counts),
                  "a part's support carries more than one element")


def _require_girth_hypothesis(g: EmbeddedGraph) -> tuple[float, float]:
    girth, cogirth = g.girth_and_cogirth()
    if girth < 3:
        raise PreconditionError(f"cycle of length {int(girth)} present")
    if cogirth < 3:
        raise PreconditionError(f"cocycle of length {int(cogirth)} present")
    return girth, cogirth


def _peel_minimal(group: StabilizerGroup, op: PauliOperator, want_x: bool,
                  cap: int | None) -> tuple[list[PauliOperator], list[int]]:
    """Write op as a product of minimal same-type elements of the group.

    Repeatedly finds a minimal-support element inside the remainder's
    support and multiplies it out; each step shrinks the support, and
    every produced part is verified globally minimal (any strictly
    smaller support would itself lie in the enumerated subgroup).
    """
    parts: list[PauliOperator] = []
    counts: list[int] = []
    remainder = op
    while not remainder.is_identity():
        omega = remainder.support()
        sub = group.subgroup_supported_in(omega)
        pool = [h for h in sub.minimal_elements(cap)
                if not (h.z if want_x else h.x)]
        if not pool:
            raise PreconditionError(
                f"no pure-type minimal element inside {omega}")
        part = min(pool, key=lambda h: (h.weight(),) + h.sort_key())
        parts.append(part)
        counts.append(group.count_support_eq(part.support(), cap))
        remainder = remainder * part
    return parts, counts


def minimal_decompositions(code: SurfaceCode,
                           group: StabilizerGroup | None = None,
                           cap: int | None = None
                           ) -> tuple[MinimalDecomposition, ...]:
    """Decompose every site and face operator into minimal elements.

    Requires girth and cogirth >= 3.  ``group`` defaults to the code
    stabilizer; pass a full state group to decompose within the state.
    """
    _require_girth_hypothesis(code.graph)
    if group is None:
        group = code.stabilizer
    out = []
    for v in sorted(code.graph.vertices):
        op = code.site_operator(v)
        parts, counts = _peel_minimal(group, op, True, cap)
        out.append(MinimalDecomposition("site", v, op, tuple(parts),
                                        tuple(counts)))
    for i, op in sorted(code.all_face_operators().items()):
        parts, counts = _peel_minimal(group, op, False, cap)
        out.append(MinimalDecomposition("face", f"f{i}", op, tuple(parts),
                                        tuple(counts)))
    return tuple(out)


# -- the LU = LC certificate ------------------------------------------------

@dataclass(frozen=True)
class SurfaceCertificate:
    status: str                    # CERTIFIED | HYPOTHESIS_FAILED
    reason: str | None
    n: int
    genus: int
    l: int
    girth: float
    cogirth: float

    @property
    def certified(self) -> bool:
        return self.status == "CERTIFIED"

    def line(self) -> str:
        if self.certified:
            return (f"CERTIFIED theorem=surfaceCode details=qubits={self.n},"
                    f"genus={self.genus},l={self.l},girth={_fmt(self.girth)},"
                    f"cogirth={_fmt(self.cogirth)}")
        return f"HYPOTHESIS_FAILED theorem=surfaceCode reason={self.reason}"


def _fmt(v: float) -> str:
    return "inf" if v == float("inf") else str(int(v))


def lulc_certificate(state: SurfaceCodeState,
                     cap: int | None = None) -> SurfaceCertificate:
    """Certify that every local-unitary equivalence is local-Clifford.

    The hypothesis is the absence of cycles and cocycles of length <= 2.
    When it holds, the site/face decompositions yield verified minimal
    elements covering every qubit with both an X-type and a Z-type part,
    and the minimal-support certificate re-verifies the conclusion.
    """
    code = state.code
    girth, cogirth = code.graph.girth_and_cogirth()

    def fail(reason):
        return SurfaceCertificate("HYPOTHESIS_FAILED", reason, code.n,
                                  code.genus, state.l, girth, cogirth)

    if girth < 3:
        return fail(f"girth={_fmt(girth)}")
    if cogirth < 3:
        return fail(f"cogirth={_fmt(cogirth)}")
    decos = minimal_decompositions(code, group=state.group, cap=cap)
    parts = {p for d in decos for p in d.parts}
    msc = state.group.msc_certificate(minimal_elems=parts, cap=cap)
    if not msc.certified:
        return fail(f"msc:{msc.reason}")
    return SurfaceCertificate("CERTIFIED", None, code.n, code.genus,
                              state.l, girth, cogirth)


# -- transversal-gate preconditions -----------------------------------------

@dataclass(frozen=True)
class SupportReport:
    """Subgroup data on a fixed support set.

    ``b_omega`` counts elements supported inside omega.  When omega is a
    minimal support carried by exactly one element, any tensor-product
    logical gate must conjugate that element to itself, so the element is
    listed in ``fixed_elements``.
    """

    omega: tuple[int, ...]
    dim_s_omega: int
    b_omega: int
    fixed_elements: tuple[PauliOperator, ...]


def transversal_precondition_report(code: SurfaceCode, omega,
                                    group: StabilizerGroup | None = None,
                                    cap: int | None = None) -> SupportReport:
    if group is None:
        group = code.stabilizer
    omega = tuple(sorted(set(omega)))
    dim = group.supported_dim(omega)
    fixed: tuple[PauliOperator, ...] = ()
    if omega:
        mask = 0
        for i in omega:
            mask |= 1 << i
        sub = group.subgroup_supported_in(omega)
        elems = [h for h in sub.elements(cap) if not h.is_identity()]
        eq = [h for h in elems if h.support_mask() == mask]
        strictly_inside = [h for h in elems
                           if h.support_mask() & mask == h.support_mask()
                           and h.support_mask() != mask]
        if len(eq) == 1 and not strictly_inside:
            fixed = (eq[0],)
    return SupportReport(omega, dim, 1 << dim, fixed)


@dataclass(frozen=True)
class TransversalConclusion:
    """Per-qubit Clifford forcing from fixed minimal elements."""

    n: int
    forced: tuple[bool, ...]
    reports: tuple[SupportReport, ...]

    @property
    def all_forced(self) -> bool:
        return all(self.forced)

    def line(self) -> str:
        k = sum(self.forced)
        verdict = ("no transversal non-Clifford logical gate"
                   if self.all_forced else "inconclusive")
        return (f"FORCED_CLIFFORD qubits={k}/{self.n}"
                f" conclusion={verdict.replace(' ', '_')}")


def transversal_clifford_conclusion(code: SurfaceCode,
                                    cap: int | None = None
                                    ) -> TransversalConclusion:
    """Force every local factor of a transversal logical gate Clifford.

    A qubit is forced once some fixed minimal X-type element and some
    fixed minimal Z-type element both touch it: conjugation preserves
    each of them, which pins the local unitary to the Clifford group.
    """
    decos = minimal_decompositions(code, cap=cap)
    x_cover = 0
    z_cover = 0
    reports = []
    seen: set[tuple[int, ...]] = set()
    for d in decos:
        for p in d.parts:
            omega = p.support()
            if omega in seen:
                continue
            seen.add(omega)
            rep = transversal_precondition_report(code, omega, cap=cap)
            reports.append(rep)
            if rep.fixed_elements:
                h = rep.fixed_elements[0]
                if not h.z:
                    x_cover |= h.support_mask()
                if not h.x:
                    z_cover |= h.support_mask()
    forced = tuple(bool((x_cover >> j) & 1 and (z_cover >> j) & 1)
                   for j in range(code.n))
    return TransversalConclusion(code.n, forced, tuple(reports))


# -- grid cluster states ------------------------------------------------------

def graph_state_group(num_vertices: int, edges) -> StabilizerGroup:
    """Graph state: per vertex, X there and Z on its neighbours."""
    nbr = [0] * num_vertices
    for u, v in edges:
        if u == v or not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"bad edge ({u}, {v})")
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    gens = [PauliOperator(num_vertices, 1 << v, nbr[v])
            for v in range(num_vertices)]
    return StabilizerGroup(num_vertices, gens)


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Nearest-neighbour edges of a rows x cols grid, row-major indices."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def grid_cluster_state(rows: int, cols: int) -> StabilizerGroup:
    return graph_state_group(rows * cols, grid_edges(rows, cols))


@dataclass(frozen=True)
class GridCertificate:
    status: str                    # CERTIFIED | FAILED
    reason: str | None
    witness: object
    rows: int
    cols: int

    @property
    def certified(self) -> bool:
        return self.status == "CERTIFIED"

    def line(self) -> str:
        if self.certified:
            return (f"CERTIFIED theorem=grid details=rows={self.rows},"
                    f"cols={self.cols},qubits={self.rows * self.cols}")
        return (f"FAILED theorem=grid reason={self.reason}"
                f" witness={format_witness(self.witness)}")


def grid_minimality_certificate(rows: int, cols: int,
                                cap: int | None = None) -> GridCertificate:
    """Prove each grid generator minimal, then run the minimal-support check.

    Any group element supported inside supp(K_v) can only use generators
    K_x with x in the closed neighbourhood of v (its X part equals the
    generator-index set), so enumerating those 2^(1+deg) products (under
    the enumeration cap) is a complete minimality test.  With all
    generators minimal, Bell-freedom plus full letter coverage certifies
    LU = LC.
    """
    group = grid_cluster_state(rows, cols)
    n = rows * cols
    for v, kv in enumerate(group.generators):
        kv_mask = kv.support_mask()
        nbar = StabilizerGroup(n, [group.generators[u] for u in range(n)
                                   if u == v or (kv.z >> u) & 1])
        for h in nbar.enumerate_elements(cap):
            m = h.support_mask()
            if m and m != kv_mask and m & kv_mask == m:
                return GridCertificate("FAILED", "nonminimal_generator",
                                       v, rows, cols)
    msc = group.msc_certificate(minimal_elems=group.generators, cap=cap)
    if not msc.certified:
        return GridCertificate("FAILED", msc.reason, msc.witness, rows, cols)
    return GridCertificate("CERTIFIED", None, None, rows, cols)


def simple_graph_girth(num_vertices: int, edges) -> float:
    """Shortest cycle length of a simple graph; inf for forests."""
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = float("inf")
    for s in range(num_vertices):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w == parent[u]:
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                else:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def short_cycle_free(num_vertices: int, edges) -> bool:
    """True when the graph has no cycle of length 3 or 4.

    Graph states on such graphs are known to satisfy LU = LC; grids fail
    this hypothesis (4-cycles), which is what the per-vertex certificate
    above is for.
    """
    return simple_graph_girth(num_vertices, edges) >= 5
