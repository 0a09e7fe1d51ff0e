"""Multigraphs embedded in orientable surfaces via rotation systems.

A graph is vertices, labelled edges, and one cyclic order of half-edges
(darts) per vertex; that data determines the faces and hence the genus.
Darts are (edge_label, end) pairs with end in {0, 1}.  Everything is
immutable: deletion, contraction and dualization return new graphs, and
duality acts on edge labels one to one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import FormatError, PreconditionError, invariant
from .gf2 import BitMatrix, BitVector, Span, invert, nullspace, rref

Half = tuple[str, int]


def _other(h: Half) -> Half:
    return (h[0], 1 - h[1])


class EmbeddedGraph:
    """Immutable embedded multigraph."""

    def __init__(self, vertices, edges, rotations):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: dict[str, tuple[str, str]] = {
            label: (str(u), str(v)) for label, (u, v) in dict(edges).items()}
        self.rotations: dict[str, tuple[Half, ...]] = {
            v: tuple((str(e), int(i)) for e, i in rotations.get(v, ()))
            for v in self.vertices}
        self._validate()

    def _validate(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        vset = set(self.vertices)
        expected: dict[Half, str] = {}
        for e, (u, v) in self.edges.items():
            if u not in vset or v not in vset:
                raise ValueError(f"edge {e} has undeclared endpoint")
            expected[(e, 0)] = u
            expected[(e, 1)] = v
        seen: set[Half] = set()
        for v, rot in self.rotations.items():
            for h in rot:
                if h in seen:
                    raise ValueError(f"half-edge {h} appears twice")
                if h not in expected:
                    raise ValueError(f"half-edge {h} has no declared edge")
                if expected[h] != v:
                    raise ValueError(
                        f"half-edge {h} placed at {v}, expected {expected[h]}")
                seen.add(h)
        if seen != set(expected):
            missing = sorted(set(expected) - seen)
            raise ValueError(f"half-edges missing from rotations: {missing}")

    # -- basic structure -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_order(self) -> tuple[str, ...]:
        """Canonical qubit/column order: edge labels sorted."""
        return tuple(sorted(self.edges))

    def vertex_of(self, h: Half) -> str:
        e, i = h
        return self.edges[e][i]

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges.values():
            adj[u].add(v)
            adj[v].add(u)
        seen = {self.vertices[0]}
        queue = deque(seen)
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)

    def _next_dart(self) -> dict[Half, Half]:
        nxt: dict[Half, Half] = {}
        for rot in self.rotations.values():
            for i, h in enumerate(rot):
                nxt[h] = rot[(i + 1) % len(rot)]
        return nxt

    # -- faces, genus, dual ----------------------------------------------

    def trace_faces(self) -> tuple[tuple[Half, ...], ...]:
        """Face boundary walks: orbits of dart -> next(other_end(dart)).

        Each face is rotated to start at its smallest dart and the faces
        are sorted, so the result is canonical.
        """
        nxt = self._next_dart()
        faces = []
        visited: set[Half] = set()
        for start in sorted(nxt):
            if start in visited:
                continue
            walk = []
            h = start
            while True:
                walk.append(h)
                visited.add(h)
                h = nxt[_other(h)]
                if h == start:
                    break
            k = walk.index(min(walk))
            faces.append(tuple(walk[k:] + walk[:k]))
        return tuple(sorted(faces))

    def embedding_genus(self) -> int:
        if not self.is_connected():
            raise PreconditionError("genus requires a connected graph")
        f = len(self.trace_faces()) if self.edges else 1
        euler = self.num_vertices - self.num_edges + f
        invariant(euler % 2 == 0, "odd Euler characteristic")
        g = (2 - euler) // 2
        invariant(g >= 0, "negative genus")
        return g

    def dual(self) -> "EmbeddedGraph":
        """Dual embedded graph; edge labels carry over one to one."""
        faces = self.trace_faces()
        name = {}
        for i, face in enumerate(faces):
            for h in face:
                name[h] = f"f{i}"
        vertices = [f"f{i}" for i in range(len(faces))]
        edges = {e: (name[(e, 0)], name[(e, 1)]) for e in self.edges}
        rotations = {f"f{i}": face for i, face in enumerate(faces)}
        return EmbeddedGraph(vertices, edges, rotations)

    # -- minor operations --------------------------------------------------

    def delete_edge(self, e: str) -> "EmbeddedGraph":
        if e not in self.edges:
            raise ValueError(f"no edge {e}")
        edges = {k: v for k, v in self.edges.items() if k != e}
        rotations = {v: tuple(h for h in rot if h[0] != e)
                     for v, rot in self.rotations.items()}
        return EmbeddedGraph(self.vertices, edges, rotations)

    def contract_edge(self, e: str) -> "EmbeddedGraph":
        """Contract e, splicing rotations; contracting a loop deletes it."""
        if e not in self.edges:
            raise ValueError(f"no edge {e}")
        u, v = self.edges[e]
        if u == v:
            return self.delete_edge(e)
        ru, rv = self.rotations[u], self.rotations[v]
        i, j = ru.index((e, 0)), rv.index((e, 1))
        merged = ru[i + 1:] + ru[:i] + rv[j + 1:] + rv[:j]
        vertices = [w for w in self.vertices if w != v]
        edges = {}
        for k, (a, b) in self.edges.items():
            if k == e:
                continue
            edges[k] = (u if a == v else a, u if b == v else b)
        rotations = {w: rot for w, rot in self.rotations.items()
                     if w not in (u, v)}
        rotations[u] = merged
        return EmbeddedGraph(vertices, edges, rotations)

    # -- GF(2) spaces ------------------------------------------------------

    def incidence_matrix(self) -> BitMatrix:
        """Vertex-edge incidence over GF(2); loops contribute zero."""
        order = self.edge_order()
        col = {e: i for i, e in enumerate(order)}
        rows = []
        for v in self.vertices:
            bits = 0
            for e, (a, b) in self.edges.items():
                if (a == v) != (b == v):
                    bits |= 1 << col[e]
            rows.append(BitVector(len(order), bits))
        return BitMatrix(len(order), tuple(rows))

    def face_matrix(self) -> BitMatrix:
        """Face-edge incidence: edges appearing an odd number of times."""
        order = self.edge_order()
        col = {e: i for i, e in enumerate(order)}
        rows = []
        for face in self.trace_faces():
            bits = 0
            for h in face:
                bits ^= 1 << col[h[0]]
            rows.append(BitVector(len(order), bits))
        return BitMatrix(len(order), tuple(rows))

    def cut_space(self) -> BitMatrix:
        """Canonical basis of the cut space (row space of the incidence)."""
        return rref(self.incidence_matrix())[0]

    def cycle_space(self) -> BitMatrix:
        """Canonical basis of the cycle space (null space of the incidence)."""
        return nullspace(self.incidence_matrix())

    def star(self, v: str) -> BitVector:
        """Incidence row of one vertex (its elementary cocycle)."""
        order = self.edge_order()
        bits = 0
        for i, e in enumerate(order):
            a, b = self.edges[e]
            if (a == v) != (b == v):
                bits |= 1 << i
        return BitVector(len(order), bits)

    def cocycle_space(self) -> BitMatrix:
        """Cycles of the dual graph, on the shared edge coordinates."""
        return nullspace(self.face_matrix())

    # -- girth / cogirth -----------------------------------------------------

    def girth(self) -> float:
        """Length of a shortest cycle; loops count 1, parallel pairs 2."""
        for u, v in self.edges.values():
            if u == v:
                return 1
        pair_seen = set()
        for u, v in self.edges.values():
            key = (min(u, v), max(u, v))
            if key in pair_seen:
                return 2
            pair_seen.add(key)
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
        for e, (u, v) in self.edges.items():
            adj[u].append((v, e))
            adj[v].append((u, e))
        best = math.inf
        for s in self.vertices:
            dist = {s: 0}
            via = {s: None}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w, e in adj[u]:
                    if e == via[u]:
                        continue
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        via[w] = e
                        queue.append(w)
                    else:
                        best = min(best, dist[u] + dist[w] + 1)
        return best

    def girth_and_cogirth(self) -> tuple[float, float]:
        """(shortest cycle, shortest cocycle); cocycles are dual cycles."""
        if not self.is_connected():
            raise PreconditionError("cogirth requires a connected graph")
        return self.girth(), self.dual().girth()

    # -- homology ------------------------------------------------------------

    def homology_logical_supports(self) -> tuple[tuple[BitVector, BitVector], ...]:
        """Paired (cocycle class rep, cycle class rep) supports.

        Returns 2g pairs (X_i, Z_i) with X_i a homologically nontrivial
        cocycle, Z_i a nontrivial cycle, and |X_i & Z_j| = delta_ij mod 2.
        """
        if not self.is_connected():
            raise PreconditionError("homology requires a connected graph")
        ne = self.num_edges
        z_reps = _quotient_reps(self.cycle_space(),
                                self.face_matrix().row_ints())
        x_reps = _quotient_reps(self.cocycle_space(),
                                self.incidence_matrix().row_ints())
        k = len(z_reps)
        invariant(len(x_reps) == k == 2 * self.embedding_genus(),
                  "homology ranks do not match the genus")
        if k == 0:
            return ()
        pairing = BitMatrix(k, tuple(
            BitVector.from_bits([(x & z).bit_count() & 1 for z in z_reps])
            for x in x_reps))
        inv = invert(pairing)
        invariant(inv is not None, "degenerate intersection pairing")
        pairs = []
        for j in range(k):
            zj = 0
            for i in range(k):
                if inv.rows[i][j]:
                    zj ^= z_reps[i]
            pairs.append((BitVector(ne, x_reps[j]), BitVector(ne, zj)))
        return tuple(pairs)


def _quotient_reps(space: BitMatrix, boundary_rows) -> list[int]:
    """Rows of ``space`` extending the span of ``boundary_rows``."""
    span = Span(boundary_rows)
    return [r.bits for r in space.rows if span.add(r.bits)]


# -- isomorphism ------------------------------------------------------------

def is_isomorphic(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    """Label-preserving isomorphism of embedded graphs.

    Edge labels must match exactly; vertices may be renamed.  Since every
    dart (e, i) can only map to (e, i) or (e, 1-i), the map is determined
    by one flip bit per edge, propagated along rotations.
    """
    if set(a.edges) != set(b.edges) or a.num_vertices != b.num_vertices:
        return False
    if not a.edges:
        return True
    comps_a = _edge_components(a)
    comps_b = _edge_components(b)
    if {frozenset(c) for c in comps_a} != {frozenset(c) for c in comps_b}:
        return False
    iso_vertices_a = a.num_vertices - sum(
        len({a.vertex_of((e, i)) for e in c for i in (0, 1)})
        for c in comps_a)
    iso_vertices_b = b.num_vertices - sum(
        len({b.vertex_of((e, i)) for e in c for i in (0, 1)})
        for c in comps_b)
    if iso_vertices_a != iso_vertices_b:
        return False
    return all(_component_isomorphic(a, b, comp) for comp in comps_a)


def _edge_components(g: EmbeddedGraph) -> list[set[str]]:
    seen: set[str] = set()
    comps = []
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e, (u, v) in g.edges.items():
        adj[u].add(e)
        adj[v].add(e)
    for e0 in sorted(g.edges):
        if e0 in seen:
            continue
        comp = {e0}
        queue = deque([e0])
        while queue:
            e = queue.popleft()
            u, v = g.edges[e]
            for w in (u, v):
                for e2 in adj[w]:
                    if e2 not in comp:
                        comp.add(e2)
                        queue.append(e2)
        seen |= comp
        comps.append(comp)
    return comps


def _component_isomorphic(a: EmbeddedGraph, b: EmbeddedGraph,
                          comp: set[str]) -> bool:
    nxt_a, nxt_b = a._next_dart(), b._next_dart()
    e0 = min(comp)
    for anchor_flip in (0, 1):
        flips = {e0: anchor_flip}
        queue = deque([(e0, 0), (e0, 1)])
        ok = True
        while queue and ok:
            h = queue.popleft()
            succ = nxt_a[h]
            succ_img = nxt_b[(h[0], h[1] ^ flips[h[0]])]
            if succ[0] != succ_img[0]:
                ok = False
                break
            f = succ[1] ^ succ_img[1]
            if succ[0] in flips:
                ok = flips[succ[0]] == f
            else:
                flips[succ[0]] = f
                queue.append(succ)
                queue.append(_other(succ))
        if ok and set(flips) == comp:
            return True
    return False


# -- builders ----------------------------------------------------------------

def toric_grid(rows: int, cols: int) -> EmbeddedGraph:
    """rows x cols grid on the torus (wrap-around), quadrilateral faces."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    vertices = [f"v{r}_{c}" for r in range(rows) for c in range(cols)]
    edges = {}
    for r in range(rows):
        for c in range(cols):
            edges[f"h{r}_{c}"] = (f"v{r}_{c}", f"v{r}_{(c + 1) % cols}")
            edges[f"v{r}_{c}"] = (f"v{r}_{c}", f"v{(r + 1) % rows}_{c}")
    rotations = {}
    for r in range(rows):
        for c in range(cols):
            east = (f"h{r}_{c}", 0)
            south = (f"v{r}_{c}", 0)
            west = (f"h{r}_{(c - 1) % cols}", 1)
            north = (f"v{(r - 1) % rows}_{c}", 1)
            rotations[f"v{r}_{c}"] = (east, south, west, north)
    return EmbeddedGraph(vertices, edges, rotations)


def complete_graph(k: int) -> EmbeddedGraph:
    """K_k with an arbitrary (sorted-dart) rotation system."""
    vertices = [f"v{i}" for i in range(k)]
    edges = {f"e{i}_{j}": (f"v{i}", f"v{j}")
             for i in range(k) for j in range(i + 1, k)}
    return _with_sorted_rotations(vertices, edges)


def complete_bipartite(p: int, q: int) -> EmbeddedGraph:
    vertices = [f"a{i}" for i in range(p)] + [f"b{j}" for j in range(q)]
    edges = {f"e{i}_{j}": (f"a{i}", f"b{j}")
             for i in range(p) for j in range(q)}
    return _with_sorted_rotations(vertices, edges)


def _with_sorted_rotations(vertices, edges) -> EmbeddedGraph:
    rotations = {v: [] for v in vertices}
    for e in sorted(edges):
        u, v = edges[e]
        rotations[u].append((e, 0))
        rotations[v].append((e, 1))
    return EmbeddedGraph(vertices, edges, rotations)


def double_edge(g: EmbeddedGraph, e: str, label: str) -> EmbeddedGraph:
    """Add a parallel copy of e, embedded alongside it.

    The copy's end 0 goes right after (e, 0) and its end 1 right before
    (e, 1), so the two edges bound a bigon and the genus is unchanged.
    """
    if label in g.edges:
        raise ValueError(f"label {label} already used")
    u, v = g.edges[e]
    rotations = {}
    for w, rot in g.rotations.items():
        out = []
        for h in rot:
            if h == (e, 1):
                out.append((label, 1))
            out.append(h)
            if h == (e, 0):
                out.append((label, 0))
        rotations[w] = tuple(out)
    edges = dict(g.edges)
    edges[label] = (u, v)
    return EmbeddedGraph(g.vertices, edges, rotations)


# -- text format --------------------------------------------------------------

def parse_graph(text: str) -> EmbeddedGraph:
    """Parse the graph format: vertices:, edge, and rotation lines."""
    vertices: list[str] = []
    edges: dict[str, tuple[str, str]] = {}
    rotations: dict[str, tuple[Half, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            vertices.extend(line[len("vertices:"):].split())
        elif line.startswith("edge "):
            body = line[len("edge "):]
            if ":" not in body:
                raise FormatError("edge line needs '<label>: <u> <v>'", lineno)
            label, rest = body.split(":", 1)
            parts = rest.split()
            if len(parts) != 2:
                raise FormatError("edge line needs two endpoints", lineno)
            label = label.strip()
            if label in edges:
                raise FormatError(f"duplicate edge label {label}", lineno)
            edges[label] = (parts[0], parts[1])
        elif line.startswith("rotation "):
            body = line[len("rotation "):]
            if ":" not in body:
                raise FormatError("rotation line needs '<v>: h1 h2 ...'", lineno)
            v, rest = body.split(":", 1)
            v = v.strip()
            halves = []
            for tok in rest.split():
                if "." not in tok:
                    raise FormatError(f"bad half-edge {tok!r}", lineno)
                e, end = tok.rsplit(".", 1)
                if end not in ("0", "1"):
                    raise FormatError(f"bad half-edge end {tok!r}", lineno)
                halves.append((e, int(end)))
            rotations[v] = tuple(halves)
        else:
            raise FormatError(f"unrecognized line: {line!r}", lineno)
    if not vertices:
        raise FormatError("no vertices declared")
    try:
        return EmbeddedGraph(vertices, edges, rotations)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_graph(g: EmbeddedGraph) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    for e in sorted(g.edges):
        u, v = g.edges[e]
        lines.append(f"edge {e}: {u} {v}")
    for v in g.vertices:
        rot = " ".join(f"{e}.{i}" for e, i in g.rotations[v])
        lines.append(f"rotation {v}: {rot}".rstrip())
    return "\n".join(lines) + "\n"
