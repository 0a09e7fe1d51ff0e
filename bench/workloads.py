"""Seeded input generators, job lists and output checks for the benchmark.

Standard library only.  A workload is a sequence of identical-cost
*blocks*: every block holds the same slots (job kind and size), and the
seed decides what fills each slot -- which random instance, which
orientation, which logical sector, which pool member -- and the order of
the block's units.  Because a block's cost does not depend on the seed,
measuring a whole number of blocks gives the same job mix on every seed.

Each job's exit code and stdout are checked in one of three ways:

* ``exact``: the mathematics fixes the verdict, so the expected line is
  built here (grid and toric certificates by girth, the factory's ENCODED
  line, transversal forcing, graphic matroids, DLC infeasibility
  certificates);
* ``feasible``: a FEASIBLE assignment is re-checked against
  sum_j a_j x_j - 2 q(x) = 0 (mod 4) on every x of the subspace;
* ``recorded``: the stdout digest recorded at the commit that defined the
  benchmark (``expected.json``), for instances drawn from a finite pool.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

GRAPH_STATE_POOL = 8        # random graph states per qubit count
# Members of the random-code pools (indices for random_code), by length.
# Of 24 candidates per length, these had the per-job latencies closest to
# the candidates' medians when the benchmark was defined, so a screen block
# costs about the same whichever member the seed draws.  They are fixed
# here so that re-recording outputs never changes the job mix.  The 11-
# and 12-element codes are the slowest tenth of a screen block, so one
# code each keeps the block's tail from depending on the seed.
CODE_POOL = {8: (11, 20, 22), 9: (3, 6, 16), 10: (4, 5, 14), 11: (17,),
             12: (20,)}


@dataclass
class Job:
    """One command: argv for ``stablulc.cli.main`` (or a library call)."""

    kind: str                        # label used in reports
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    check: tuple = ()                # ("exact", code, stdout) | ("feasible", qf)
                                     # | ("recorded", key)
    library: tuple | None = None     # ("transversal", graph file) for non-CLI jobs
    ident: str = ""                  # digest of the canonical input, for "recorded"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- GF(2) helpers on int-packed rows -------------------------------------------

def _rref(rows):
    out = []
    for r in rows:
        for p in out:
            if r & (p & -p):
                r ^= p
        if r:
            low = r & -r
            out = [p ^ r if p & low else p for p in out]
            out.append(r)
    return out


def _nullspace(rows, ncols):
    red = _rref(rows)
    piv = {(p & -p).bit_length() - 1: p for p in red}
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        v = 1 << f
        for c, p in piv.items():
            if (p >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def _span(rows):
    """All 2^k combinations of the rows, Gray-code order, zero first."""
    cur = 0
    yield cur
    for m in range(1, 1 << len(rows)):
        cur ^= rows[(m & -m).bit_length() - 1]
        yield cur


def _min_weight(rows):
    return min(v.bit_count() for v in itertools.islice(_span(rows), 1, None))


def _bits(v, n):
    return "".join("1" if (v >> i) & 1 else "0" for i in range(n))


def _matrix_text(rows, n):
    return f"{len(rows)} {n}\n" + "".join(_bits(r, n) + "\n" for r in rows)


def _rebase(rng, rows):
    """A random basis of the same row space (same matroid, new bytes)."""
    rows = list(rows)
    for _ in range(3 * len(rows)):
        if len(rows) < 2:
            break
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return rows


# -- certify --------------------------------------------------------------------

def toric_graph_text(r: int, c: int) -> str:
    """The r x c torus grid in the graph file format, one qubit per edge."""
    lines = ["vertices: " + " ".join(f"v{i}_{j}" for i in range(r)
                                     for j in range(c))]
    edges = {}
    for i in range(r):
        for j in range(c):
            edges[f"h{i}_{j}"] = (f"v{i}_{j}", f"v{i}_{(j + 1) % c}")
            edges[f"v{i}_{j}"] = (f"v{i}_{j}", f"v{(i + 1) % r}_{j}")
    for e in sorted(edges):
        lines.append(f"edge {e}: {edges[e][0]} {edges[e][1]}")
    for i in range(r):
        for j in range(c):
            lines.append(f"rotation v{i}_{j}: h{i}_{j}.0 v{i}_{j}.0"
                         f" h{i}_{(j - 1) % c}.1 v{(i - 1) % r}_{j}.1")
    return "\n".join(lines) + "\n"


def _toric_girth(r: int, c: int) -> int:
    # Rows or columns of length 2 give parallel edges; otherwise the
    # shortest cycle is a face (4) or a non-contractible loop.
    return 2 if min(r, c) == 2 else min(r, c, 4)


def _pauli_text(n, x, z):
    return "+" + "".join("IXZY"[((x >> i) & 1) + 2 * ((z >> i) & 1)]
                         for i in range(n))


def graph_state_text(rng, n: int) -> str:
    """Stabilizer file of a random connected graph state on n qubits.

    Connected graphs have no two-qubit stabilizer factor, so the Bell
    check passes and analyze-state enumerates all 2^n elements.
    """
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {tuple(sorted((perm[i], perm[rng.randrange(i)])))
                 for i in range(1, n)}          # random spanning tree
        while len(edges) < (3 * n) // 2:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        nbr = [0] * n
        for u, v in edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        if all(nbr):
            return "".join(_pauli_text(n, 1 << v, nbr[v]) + "\n"
                           for v in range(n))


GRID_SLOTS = ((4, 4), (5, 5), (6, 6), (7, 7), (4, 6), (5, 6), (5, 8), (4, 8),
              (6, 8))
TORIC_SLOTS = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5),
               (4, 4), (4, 5), (5, 5))
TRANSVERSAL_SLOTS = ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5))
GRAPH_STATE_SLOTS = tuple(range(8, 16))


def _grid_job(r, c):
    return Job("grid-certify", ["grid-certify", "--rows", str(r),
                                "--cols", str(c)],
               check=("exact", 0, f"CERTIFIED theorem=grid details=rows={r},"
                                  f"cols={c},qubits={r * c}\n"))


def _toric_job(path, r, c, l):
    g = _toric_girth(r, c)
    if g < 3:
        expect = (2, f"HYPOTHESIS_FAILED theorem=surfaceCode reason=girth={g}\n")
    else:
        expect = (0, f"CERTIFIED theorem=surfaceCode details=qubits={2 * r * c},"
                     f"genus=1,l={l},girth={g},cogirth={g}\n")
    return Job("surface-certify", ["surface-certify", path, "--l", str(l)],
               files={path: toric_graph_text(r, c)}, check=("exact",) + expect)


def graph_state_job(path, n, i):
    text = graph_state_text(random.Random(f"graph-state:{n}:{i}"), n)
    return Job("analyze-state", ["analyze-state", path], files={path: text},
               check=("recorded", f"graph-state:{n}:{i}"), ident=digest(text))


def _transversal_job(path, r, c):
    return Job("transversal", [], files={path: toric_graph_text(r, c)},
               check=("exact", 0, f"FORCED_CLIFFORD qubits={2 * r * c}/{2 * r * c}"
                                  " conclusion=no_transversal_non-Clifford_"
                                  "logical_gate\n"),
               library=("transversal", path))


def certify_block(rng, work, tiny=False):
    units = []
    grids = GRID_SLOTS[:1] if tiny else GRID_SLOTS
    for r, c in grids:
        if rng.random() < 0.5:
            r, c = c, r
        units.append([_grid_job(r, c)])
    for k, (r, c) in enumerate(TORIC_SLOTS[3:5] if tiny else TORIC_SLOTS):
        if rng.random() < 0.5:
            r, c = c, r
        units.append([_toric_job(work(f"toric{k}.graph"), r, c,
                                 rng.randrange(3))])
    for n in GRAPH_STATE_SLOTS[:1] if tiny else GRAPH_STATE_SLOTS:
        units.append([graph_state_job(work(f"gs{n}.stab"), n,
                                      rng.randrange(GRAPH_STATE_POOL))])
    for k, (r, c) in enumerate(TRANSVERSAL_SLOTS[:1] if tiny
                               else TRANSVERSAL_SLOTS):
        if rng.random() < 0.5:
            r, c = c, r
        units.append([_transversal_job(work(f"trans{k}.graph"), r, c)])
    rng.shuffle(units)
    return units


# -- decide ---------------------------------------------------------------------

def _qf_text(n, rows, pairs):
    return (f"{n}\n" + "".join(_bits(r, n) + "\n" for r in rows) + "q:\n"
            + "".join(f"{i + 1} {j + 1}\n" for i, j in sorted(pairs)))


def feasible_form(rng, n, k):
    """A DLC-feasible form: every q term x_i x_j has a column l = i xor j.

    Over the integers 2 x_i x_j = x_i + x_j - (x_i xor x_j), so each term
    is linear on S and a Z4 assignment exists.  Returns (rows, pairs, a).
    """
    forms = [1 << i for i in range(k)]
    triples = []
    while len(forms) < n:
        i, j = rng.sample(range(len(forms)), 2)
        if forms[i] != forms[j] and rng.random() < 0.6:
            triples.append((i, j, len(forms)))
            forms.append(forms[i] ^ forms[j])
        else:
            forms.append(rng.randrange(1, 1 << k))
    perm = list(range(n))
    rng.shuffle(perm)                      # column p of the file holds forms[perm[p]]
    pos = {f: p for p, f in enumerate(perm)}
    rows = [sum(((forms[perm[p]] >> r) & 1) << p for p in range(n))
            for r in range(k)]
    a = [0] * n
    pairs = set()
    for i, j, l in rng.sample(triples, min(len(triples), max(3, n // 4))):
        pair = tuple(sorted((pos[i], pos[j])))
        if pair in pairs:
            continue
        pairs.add(pair)
        a[pos[i]] += 1
        a[pos[j]] += 1
        a[pos[l]] -= 1
    return rows, pairs, [v % 4 for v in a]


def infeasible_form(rng, n, k):
    """A form with a short infeasibility certificate.

    Basis rows p1 < p2 <= 2 have disjoint supports and B(r1, r2) = 1, where
    B is the polar form of q.  For disjoint x, y the equations at x, y and
    x + y force sum_j a_j x_j y_j = B(x, y) (mod 2), i.e. 0 = 1.
    """
    p1, p2 = sorted(rng.sample(range(3), 2))
    forms = [1 << i for i in range(k)]
    both = (1 << p1) | (1 << p2)
    while len(forms) < n:
        f = rng.randrange(1, 1 << k)
        if f & both == both:
            f ^= 1 << rng.choice((p1, p2))
        if f:
            forms.append(f)
    rng.shuffle(forms)
    rows = [sum(((forms[p] >> r) & 1) << p for p in range(n)) for r in range(k)]
    r1, r2 = rows[p1], rows[p2]
    pairs = set()
    while len(pairs) < max(3, n // 5):
        i, j = rng.sample(range(n), 2)
        pairs.add((min(i, j), max(i, j)))
    if _polar(pairs, r1, r2) == 0:
        i = rng.choice([b for b in range(n) if (r1 >> b) & 1])
        j = rng.choice([b for b in range(n) if (r2 >> b) & 1])
        pairs ^= {(min(i, j), max(i, j))}
    assert r1 & r2 == 0 and _polar(pairs, r1, r2) == 1
    return rows, pairs


def _polar(pairs, x, y):
    return sum(((x >> i) & (y >> j) ^ (x >> j) & (y >> i)) & 1
               for i, j in pairs) & 1


def check_dlc_witness(text: str, stdout: str) -> bool:
    """FEASIBLE assignment a satisfies sum a_j x_j = 2 q(x) mod 4 on all of S."""
    if not stdout.startswith("FEASIBLE assignment=") or not stdout.endswith("\n"):
        return False
    a = [int(v) for v in stdout[len("FEASIBLE assignment="):-1].split(",")]
    lines = [l.strip() for l in text.splitlines()
             if l.strip() and not l.startswith("#")]
    n = int(lines[0])
    rows, pairs, mode = [], [], "basis"
    for line in lines[1:]:
        if line == "q:":
            mode = "pairs"
        elif line.startswith("dlu:"):
            break
        elif mode == "basis":
            rows.append(int(line[::-1], 2))
        else:
            i, j = line.split()
            pairs.append((int(i) - 1, int(j) - 1))
    if len(a) != n or any(v not in (0, 1, 2, 3) for v in a):
        return False
    ones = sum(1 << j for j in range(n) if a[j] & 1)
    twos = sum(1 << j for j in range(n) if a[j] & 2)
    for x in _span(rows):
        lin = (x & ones).bit_count() + 2 * (x & twos).bit_count()
        q = sum((x >> i) & (x >> j) & 1 for i, j in pairs) & 1
        if (lin - 2 * q) % 4:
            return False
    return True


# No measured traffic fixes the mix, so each of the four job kinds gets
# six jobs per block, spread evenly over the sizes it is defined for: one
# feasible and one infeasible form per k in [10, 15] (n in [20, 40]), two
# chains of three encodes (each closed by a dlc-check), and six values of
# M in [200, 800].
DLC_SLOTS = ((20, 10), (40, 11), (24, 12), (36, 13), (28, 14), (31, 15))
CHAIN_SLOTS = (3, 5)             # qubits of the Clifford-DLU seed
LENGTH_SLOTS = (200, 320, 440, 560, 680, 800)
CHAIN_CODES = (("rep2", 2), ("rm15", 15), ("rm31", 31))
ORACLE_MAX_QUBITS = 20          # the program's dense-oracle limit for --verify


def _feasible_job(path, rows, pairs, n):
    text = _qf_text(n, rows, pairs)
    return Job("dlc-check", ["dlc-check", path], files={path: text},
               check=("feasible", path))


def chain_jobs(rng, work, tag, n0):
    """Encode a Clifford-DLU seed through rep2, rm15 and rm31, then decide it.

    The seed's local unitary diag(1, i^a_j) is Clifford, so the pair is
    related exactly as the factory requires; --verify replays each step on
    the dense oracle while the encoded pair has at most 20 qubits.
    """
    k0 = rng.randint(2, min(3, n0 - 1))
    rows, pairs, a = feasible_form(rng, n0, k0)
    seed_path = work(f"{tag}_0.seed")
    seed_text = (f"# provenance: bench-{tag}\n" + _qf_text(n0, rows, pairs)
                 + "dlu: " + " ".join(str(4 * v % 16) for v in a) + "\n")
    jobs = []
    n, src = n0, seed_path
    files = {seed_path: seed_text}
    for step, (code, m) in enumerate(CHAIN_CODES, start=1):
        out = work(f"{tag}_{step}.seed")
        qubit = rng.randint(1, n)
        n_out = n - 1 + m
        argv = ["factory-encode", "--seed", src, "--qubit", str(qubit),
                "--code", code, "--out", out]
        if n_out <= ORACLE_MAX_QUBITS:
            argv.append("--verify")
        jobs.append(Job("factory-encode", argv, files=files,
                        check=("exact", 0, f"ENCODED n={n_out} code={code}"
                                           f" qubit={qubit} out={out}\n")))
        files = {}
        n, src = n_out, out
    jobs.append(Job("dlc-check", ["dlc-check", src], check=("feasible", src)))
    return jobs


def lengths_job(m):
    argv = ["factory-lengths", "--max", str(m)]
    return Job("factory-lengths", argv, check=("recorded", f"lengths:{m}"),
               ident=digest(" ".join(argv)))


def decide_block(rng, work, tiny=False):
    units = []
    slots = DLC_SLOTS[:1] if tiny else DLC_SLOTS
    for k, (n, kk) in enumerate(slots):
        rows, pairs, _ = feasible_form(rng, n, kk)
        units.append([_feasible_job(work(f"feas{k}.qf"), rows, pairs, n)])
    for k, (n, kk) in enumerate(slots):
        rows, pairs = infeasible_form(rng, n, kk)
        path = work(f"infeas{k}.qf")
        units.append([Job("dlc-check", ["dlc-check", path],
                          files={path: _qf_text(n, rows, pairs)},
                          check=("exact", 2, "INFEASIBLE\n"))])
    for k, n0 in enumerate(CHAIN_SLOTS[:1] if tiny else CHAIN_SLOTS):
        units.append(chain_jobs(rng, work, f"chain{k}", n0))
    for m in LENGTH_SLOTS[:1] if tiny else LENGTH_SLOTS:
        units.append([lengths_job(m)])
    rng.shuffle(units)
    return units


# -- screen ---------------------------------------------------------------------

def _cycle(k, off=0):
    return [(off + i, off + (i + 1) % k) for i in range(k)]


# Simple, 3-edge-connected graphs with minimum degree >= 3 (so the code
# and its dual both have distance >= 3).  K5 and K3,3 are left out: their
# minor searches cost anywhere from 0.01 s to 15 s depending on labels.
# 12-edge graphs (the cube, W6) cost 7-9 s each and would leave too few
# repeats of a block in one run; 12-element inputs come from the codes.
SCREEN_GRAPHS = {
    "K4": (4, list(itertools.combinations(range(4), 2))),
    "W4": (5, _cycle(4) + [(i, 4) for i in range(4)]),
    "K5-e": (5, [p for p in itertools.combinations(range(5), 2)
                 if p != (0, 1)]),
    "prism": (6, _cycle(3) + _cycle(3, 3) + [(i, i + 3) for i in range(3)]),
    "W5": (6, _cycle(5) + [(i, 5) for i in range(5)]),
    "K33+e": (6, [(i, 3 + j) for i in range(3) for j in range(3)] + [(0, 1)]),
}
SCREEN_TARGETS = ("F7", "MK5", "MK33")
CODE_SLOTS = (8, 8, 9, 10, 11, 12)


def graph_matrices(name):
    """(cut-space basis, cycle-space basis, edge count) of a catalog graph."""
    nv, edges = SCREEN_GRAPHS[name]
    inc = [sum(1 << e for e, (a, b) in enumerate(edges) if v in (a, b))
           for v in range(nv)]
    return _rref(inc), _nullspace(inc, len(edges)), len(edges)


def random_code(n, i):
    """Pool member i of binary [n, k] codes with d and dual d at least 3."""
    rng = random.Random(f"code:{n}:{i}")
    while True:
        k = rng.randint(3, n - 3)
        g = _rref([rng.randrange(1, 1 << n) for _ in range(k)])
        if len(g) != k:
            continue
        h = _nullspace(g, n)
        if _min_weight(g) >= 3 and _min_weight(h) >= 3:
            return g, h


def hamming_code():
    checks = [int(s[::-1], 2) for s in ("1010101", "0110011", "0001111")]
    return _nullspace(checks, 7), checks


def _screen_jobs(rng, work, tag, g, h, n, expect):
    """Screen the code, its dual, and search its matroid for three minors.

    ``expect(what)`` gives the check for one job; what is "screen",
    "dual" or a minor target name.  The files hold a random basis of each
    row space: the program reduces it to the same canonical matroid, so
    the seed changes the bytes but neither the verdicts nor the cost.
    """
    gp, hp = work(f"{tag}_g.mat"), work(f"{tag}_h.mat")
    files = {gp: _matrix_text(_rebase(rng, g), n),
             hp: _matrix_text(_rebase(rng, h), n)}
    base = _matrix_text(g, n) + _matrix_text(h, n)
    jobs = [Job("matroid-screen", ["matroid-screen", "--g", gp, "--h", hp],
                files=files, check=expect("screen"),
                ident=digest("screen\n" + base)),
            Job("matroid-screen", ["matroid-screen", "--g", hp, "--h", gp],
                check=expect("dual"), ident=digest("dual\n" + base))]
    for t in SCREEN_TARGETS:
        jobs.append(Job("matroid-minor", ["matroid-minor", "--m", gp,
                                          "--target", t], check=expect(t),
                        ident=digest(f"minor {t}\n" + base)))
    return jobs


def graph_screen_jobs(rng, work, name):
    g, h, n = graph_matrices(name)

    def expect(what):
        # A cycle matroid is graphic and, being regular, has no F7 minor.
        if what == "screen":
            return ("exact", 0, "RULED_OUT graphic\n")
        if what == "F7":
            return ("exact", 0, "NO_MINOR target=F7\n")
        return ("recorded", f"graph:{name}:{what}")
    return _screen_jobs(rng, work, f"graph_{name}", g, h, n, expect)


def code_screen_jobs(rng, work, n, i, slot=0):
    g, h = hamming_code() if n == 7 else random_code(n, i)
    key = "hamming" if n == 7 else f"code:{n}:{i}"
    return _screen_jobs(rng, work, f"code{slot}_{n}", g, h, n,
                        lambda what: ("recorded", f"{key}:{what}"))


def screen_block(rng, work, tiny=False):
    units = []
    for name in ("K4",) if tiny else SCREEN_GRAPHS:
        units.append(graph_screen_jobs(rng, work, name))
    if not tiny:
        units.append(code_screen_jobs(rng, work, 7, 0))
    for k, n in enumerate(CODE_SLOTS[:1] if tiny else CODE_SLOTS):
        units.append(code_screen_jobs(rng, work, n,
                                      rng.choice(CODE_POOL[n]), k))
    rng.shuffle(units)
    return units


# -- workloads ------------------------------------------------------------------

BLOCKS = {"certify": certify_block, "decide": decide_block,
          "screen": screen_block}


def setup_job(workload, work):
    """The workload's smallest job, timed from a fresh interpreter."""
    if workload == "certify":
        argv = ["grid-certify", "--rows", "2", "--cols", "2"]
        return Job("grid-certify", argv, check=("recorded", "setup:certify"),
                   ident=digest(" ".join(argv)))
    if workload == "decide":
        path = work("setup.qf")
        return Job("dlc-check", ["dlc-check", path],
                   files={path: "2\n11\nq:\n1 2\n"}, check=("feasible", path))
    g, h, n = graph_matrices("K4")
    gp, hp = work("setup_g.mat"), work("setup_h.mat")
    return Job("matroid-screen", ["matroid-screen", "--g", gp, "--h", hp],
               files={gp: _matrix_text(g, n), hp: _matrix_text(h, n)},
               check=("exact", 0, "RULED_OUT graphic\n"))


def recorded_units(work):
    """Every unit with recorded outputs, for ``record.py``."""
    rng = random.Random(0)
    yield [setup_job("certify", work)]
    for n in GRAPH_STATE_SLOTS:
        for i in range(GRAPH_STATE_POOL):
            yield [graph_state_job(work("gs.stab"), n, i)]
    for m in LENGTH_SLOTS:
        yield [lengths_job(m)]
    for name in SCREEN_GRAPHS:
        yield graph_screen_jobs(rng, work, name)
    yield code_screen_jobs(rng, work, 7, 0)
    for n, members in CODE_POOL.items():
        for i in members:
            yield code_screen_jobs(rng, work, n, i)


# -- checking -------------------------------------------------------------------

class Checker:
    """Judges (exit code, stdout) of a job against its check.

    ``expected`` is the content of expected.json: {key: {"input", "code",
    "stdout"}}.
    """

    def __init__(self, expected=None):
        if expected is None:
            with open(EXPECTED_FILE, encoding="ascii") as fh:
                expected = json.load(fh)
        self.expected = expected
        self._witnesses = {}      # a job repeats, so check each witness once

    def ok(self, job: Job, code: int, stdout: str) -> bool:
        how = job.check[0]
        if how == "exact":
            return (code, stdout) == job.check[1:]
        if how == "feasible":
            path = job.check[1]
            with open(path, encoding="ascii") as fh:
                text = fh.read()
            key = (text, stdout)
            if key not in self._witnesses:
                self._witnesses[key] = check_dlc_witness(text, stdout)
            return code == 0 and self._witnesses[key]
        if how == "recorded":
            rec = self.expected.get(job.check[1])
            return (rec is not None and rec["input"] == job.ident
                    and rec["code"] == code and rec["stdout"] == digest(stdout))
        raise ValueError(f"unknown check {how!r}")
