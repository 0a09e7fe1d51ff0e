"""Outside-in layer tracing: wrap the program's public functions.

Nothing in the program is edited.  Each wrapped function is replaced
wherever a caller looks it up -- every ``stablulc`` module attribute bound
to it, or the class attribute for a method -- so ``gf2.rank`` and the
``rank`` that ``pauli`` imported are both wrapped.

Spans are measured with ``time.perf_counter``.  Self time is a span's
duration minus the time covered by wrapped child spans.  Calls into the
per-element hot paths would produce millions of span records, so spans
are kept in memory as aggregates keyed by (job id, parent layer, layer)
and written out when the run ends.  A generator's span is the sum of its
resumptions.
"""

from __future__ import annotations

import importlib
import json
import time

_clock = time.perf_counter

# layer name -> [(module, attribute path)]; "Class.method" patches the class.
TIMED = {
    "gf2.elim": [("gf2", "rank"), ("gf2", "rref"), ("gf2", "nullspace"),
                 ("gf2", "row_space_contains"), ("gf2", "solve"),
                 ("gf2", "invert")],
    "gf2.transpose": [("gf2", "BitMatrix.transpose")],
    "gf2.mod4_add": [("gf2", "Mod4Eliminator.add")],
    "pauli.supported_dim": [("pauli", "StabilizerGroup.supported_dim")],
    "pauli.bell_check": [("pauli", "StabilizerGroup.is_bell_pair_free")],
    "pauli.group_init": [("pauli", "StabilizerGroup.__init__")],
    "pauli.subgroup": [("pauli", "StabilizerGroup.subgroup_supported_in")],
    "pauli.minimal": [("pauli", "StabilizerGroup.minimal_elements")],
    "pauli.msc": [("pauli", "StabilizerGroup.msc_certificate")],
    "oracle.dlc": [("oracle", "dlc_feasible")],
    "oracle.dense": [("oracle", "verify_dlu_pair"),
                     ("oracle", "state_from_stabilizer")],
    "factory.code_build": [("factory", "make_css_code")],
    "factory.encode": [("factory", "encode_pair")],
    "factory.lengths": [("factory", "enumerate_lengths"),
                        ("factory", "length_plan")],
    "matroid.screen": [("matroid", "css_counterexample_screen")],
    "matroid.has_minor": [("matroid", "has_minor")],
    "matroid.iso": [("matroid", "is_isomorphic")],
    "matroid.minor_ops": [("matroid", "BinaryMatroid.delete"),
                          ("matroid", "BinaryMatroid.contract"),
                          ("matroid", "BinaryMatroid.dual")],
    "matroid.circuits": [("matroid", "BinaryMatroid.circuits")],
    "embedding.faces": [("embedding", "EmbeddedGraph.trace_faces")],
    "embedding.girth": [("embedding", "EmbeddedGraph.girth"),
                        ("embedding", "EmbeddedGraph.girth_and_cogirth")],
    "embedding.homology": [("embedding",
                            "EmbeddedGraph.homology_logical_supports")],
    "surface.build": [("surface", "build_code"), ("surface", "build_state")],
    "surface.decomp": [("surface", "minimal_decompositions")],
    "surface.lulc": [("surface", "lulc_certificate")],
    "surface.grid": [("surface", "grid_minimality_certificate")],
    "surface.transversal": [("surface", "transversal_clifford_conclusion")],
    "cli.parse": [("cli", "build_parser"), ("cli", "_Parser.parse_args"),
                  ("cli", "_read"), ("embedding", "parse_graph"),
                  ("pauli", "parse_stabilizer"), ("gf2", "parse_matrix"),
                  ("matroid", "parse_matroid"),
                  ("oracle", "parse_quadratic_form"),
                  ("factory", "parse_seed"), ("factory", "parse_css_code")],
    "cli.format": [("pauli", "MscCertificate.line"),
                   ("surface", "SurfaceCertificate.line"),
                   ("surface", "GridCertificate.line"),
                   ("matroid", "ScreenResult.line"),
                   ("factory", "format_seed")],
}
# Generators: one span per enumeration, summed over its resumptions.
GENERATORS = {
    "pauli.elements": ("pauli", "StabilizerGroup.enumerate_elements"),
    "oracle.qf_elements": ("oracle", "QuadraticFormState.elements"),
}
# Counted, not timed: the call itself is cheaper than a span.
COUNTED = {
    "pauli.mul": [("pauli", "PauliOperator.__mul__")],
    "gf2.span_add": [("gf2", "Span.add")],
    "factory.angle_search": [("factory", "match_logical_angle"),
                             ("factory", "find_non_clifford_angle")],
}
MODULES = ("gf2", "pauli", "oracle", "embedding", "surface", "matroid",
           "factory", "cli")


class Tracer:
    """Span aggregates for one run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.job = None
        self.stack = []                   # frames: [layer, start, child time]
        self.spans = {}                   # (job, parent, layer) -> [calls, dur, self]
        self.layers = {}                  # layer -> [calls, dur, self]
        self.counts = {}                  # counter name -> number
        self.cap_frac = {}                # layer -> max 2^k / cap
        self._patches = []
        self._mods = {}

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, layer):
        self.stack.append([layer, _clock(), 0.0])

    def exit(self, calls=1):
        layer, start, child = self.stack.pop()
        dur = _clock() - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += dur
        for agg in (self.spans.setdefault((self.job, parent, layer),
                                          [0, 0.0, 0.0]),
                    self.layers.setdefault(layer, [0, 0.0, 0.0])):
            agg[0] += calls
            agg[1] += dur
            agg[2] += dur - child

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def run_job(self, job_id, fn, layer=None):
        """Run one job, under a root span ``layer`` when one is given."""
        self.job = job_id
        if layer is None:
            return fn()
        self.enter(layer)
        try:
            return fn()
        finally:
            self.exit()

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, layer, fn):
        tracer = self
        extra = _EXTRA.get(layer)

        def wrapper(*args, **kwargs):
            before = extra[0](tracer, args) if extra and extra[0] else None
            result = None
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.exit()
                if extra and extra[1]:
                    extra[1](tracer, args, before, result)
        return wrapper

    def _generator(self, layer, fn):
        tracer = self

        def wrapper(self_, cap=None):
            k = self_.dim
            limit = tracer._enum_cap(cap)
            tracer.cap_frac[layer] = max(tracer.cap_frac.get(layer, 0.0),
                                         (1 << k) / limit)
            tracer.add(layer + ".enumerations")
            gen = fn(self_, cap)

            def resumptions():
                calls = 1
                while True:
                    tracer.enter(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer.exit(calls)
                        return
                    except BaseException:
                        tracer.exit(calls)
                        raise
                    tracer.exit(calls)
                    calls = 0
                    tracer.add(layer + ".yielded")
                    yield item
            return resumptions()
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -----------------------------------------------------------------

    def install(self):
        self._mods = {m: importlib.import_module(f"stablulc.{m}")
                      for m in MODULES}
        self._enum_cap = importlib.import_module("stablulc.caps").enum_cap
        for layer, targets in TIMED.items():
            for mod, path in targets:
                self._patch(mod, path, lambda fn, l=layer: self._timed(l, fn))
        for layer, (mod, path) in GENERATORS.items():
            self._patch(mod, path, lambda fn, l=layer: self._generator(l, fn))
        for name, targets in COUNTED.items():
            for mod, path in targets:
                self._patch(mod, path, lambda fn, n=name: self._counted(n, fn))

    def _patch(self, mod, path, make):
        module = self._mods[mod]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            self._patches.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, make(getattr(cls, attr)))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for m in self._mods.values():
            for name, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, name, original))
                    setattr(m, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            if original is None:          # the method was inherited
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches = []

    # -- results --------------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values, keyed by metric name (see BENCHMARK.json)."""
        out = {}
        for layer in ["cli.main"] + list(TIMED) + list(GENERATORS):
            calls, _, self_s = self.layers.get(layer, (0, 0.0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        c = self.counts
        out["gf2.elim.rows"] = c.get("gf2.elim.rows", 0)
        out["gf2.mod4_add.useful_ratio"] = _ratio(c.get("gf2.mod4_add.grew", 0),
                                                  out["gf2.mod4_add.calls"])
        for layer in GENERATORS:
            out[f"{layer}.yielded"] = c.get(layer + ".yielded", 0)
            out[f"{layer}.cap_frac"] = self.cap_frac.get(layer, 0.0)
        out["oracle.dlc.enum_frac"] = _ratio(c.get("oracle.dlc.visited", 0),
                                             c.get("oracle.dlc.space", 0))
        out["oracle.dense.bytes"] = c.get("oracle.dense.bytes", 0)
        out["matroid.iso.hit_ratio"] = _ratio(c.get("matroid.iso.hits", 0),
                                              out["matroid.iso.calls"])
        return out

    def dump(self, path, env):
        records = [{"job": job, "parent": parent, "layer": layer, "calls": v[0],
                    "dur_s": v[1], "self_s": v[2]}
                   for (job, parent, layer), v in self.spans.items()]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"env": env, "counts": self.counts, "spans": records},
                      fh, indent=0)


def _ratio(num, den):
    return num / den if den else 0.0


# -- layer-specific counters: (before(tracer, args), after(tracer, args,
#    before, result)); either may be None ------------------------------------

def _elim_rows(tracer, args):
    tracer.add("gf2.elim.rows", args[0].num_rows)


def _mod4_size(tracer, args):
    return len(args[0].unit_rows) + len(args[0].even_rows)


def _mod4_grew(tracer, args, before, result):
    if _mod4_size(tracer, args) > before:
        tracer.add("gf2.mod4_add.grew")


def _dlc_start(tracer, args):
    tracer.add("oracle.dlc.space", 1 << args[0].dim)
    return tracer.counts.get("oracle.qf_elements.yielded", 0)


def _dlc_visited(tracer, args, before, result):
    tracer.add("oracle.dlc.visited",
               tracer.counts.get("oracle.qf_elements.yielded", 0) - before)


def _dense_bytes(tracer, args):
    # verify_dlu_pair builds two state vectors and one rotated copy;
    # state_from_stabilizer builds one.  Each is 16 bytes per amplitude.
    vectors = 3 if len(args) >= 3 else 1
    tracer.add("oracle.dense.bytes", vectors * 16 * (1 << args[0].n))


def _iso_hit(tracer, args, before, result):
    if result:
        tracer.add("matroid.iso.hits")


_EXTRA = {
    "gf2.elim": (_elim_rows, None),
    "gf2.mod4_add": (_mod4_size, _mod4_grew),
    "oracle.dlc": (_dlc_start, _dlc_visited),
    "oracle.dense": (_dense_bytes, None),
    "matroid.iso": (None, _iso_hit),
}
