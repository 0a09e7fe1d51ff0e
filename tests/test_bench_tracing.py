"""The benchmark's layer tracer still finds every function it wraps.

``bench/tracing.py`` patches the program's functions by name, so a
refactor that renames or deletes one of them breaks the traced benchmark
run.  This check catches that in the fast suite.
"""

import importlib.util
import os

import stablulc.gf2 as gf2

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod, path):
    obj = importlib.import_module(f"stablulc.{mod}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_installs_on_every_target_and_restores():
    tracing = _load_tracing()
    targets = [t for ts in tracing.TIMED.values() for t in ts]
    targets += list(tracing.GENERATORS.values())
    targets += [t for ts in tracing.COUNTED.values() for t in ts]
    originals = [_resolve(mod, path) for mod, path in targets]
    rank = gf2.rank
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, path), original in zip(targets, originals):
            assert _resolve(mod, path) is not original, f"{mod}.{path}"
    finally:
        tracer.uninstall()
    assert gf2.rank is rank
    assert [_resolve(mod, path) for mod, path in targets] == originals
