"""Run one cyarith CLI call in-process with spans around each layer.

    PYTHONPATH=src python bench/tracer.py --spans OUT.json --op N -- ARGV...

The public functions listed in TARGETS are wrapped under every name a
cyarith module binds them to, so a call made through ``cyarith.zeta``'s
import of ``class_histogram`` is recorded as well as one through
``cyarith.counting``.  Each call becomes a span (name, start, end, parent,
operation id, the module that looked the name up, and a few size
attributes).  Names in COUNTED are only counted.  A target that a later
refactor removes or moves is listed as absent; it is not an error.

The spans stay in memory and are written as JSON once ``cyarith.cli.run``
returns, with the measured cost of one span and of one counted call.  The CLI's own stdout and stderr pass through untouched.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
import time


def _make_field_attrs(args, kwargs, result):
    return {"elements": result.q}


def _class_histogram_attrs(args, kwargs, result):
    v, f = args[0], args[1]
    return {"cells": (f.q - 1) ** (len(v.exponents) - 1)}


def _full_alpha_set_attrs(args, kwargs, result):
    return {"orbits": len(result.orbits)}


def _local_factor_attrs(args, kwargs, result):
    cap = kwargs.get("max_root_field", args[2] if len(args) > 2 else None)
    return {"capped": cap is not None}


def _ideal_sum_attrs(args, kwargs, result):
    ideal, a = args[0], args[1]
    return {"cells": (ideal.p - 1) ** (len(a) - 1)}


# (module, qualified name, size attributes taken from the call and its result)
TARGETS = (
    ("cyarith.ffield", "make_field", _make_field_attrs),
    ("cyarith.counting", "class_histogram", _class_histogram_attrs),
    ("cyarith.counting", "count_affine", None),
    ("cyarith.charsum", "full_alpha_set", _full_alpha_set_attrs),
    ("cyarith.charsum", "jacobi_sum", None),
    ("cyarith.zeta", "local_factor_middle", _local_factor_attrs),
    ("cyarith.zeta", "check_riemann_hypothesis", None),
    ("cyarith.zeta", "check_functional_equation", None),
    ("cyarith.zeta", "predicted_count", None),
    ("cyarith.hecke", "ideal_jacobi_sum", _ideal_sum_attrs),
    ("cyarith.hecke", "match_hasse_weil", None),
    ("cyarith.hecke", "HeckeCharacter.local_factor", None),
    ("cyarith.hecke", "dirichlet_coefficients", None),
    ("cyarith.cli", "run", None),
)

# (module, qualified name, counter name): counted per call, never timed
COUNTED = (
    ("cyarith.cyclo", "CycInt.__mul__", "cyclo.CycInt.mul"),
)


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str, via: str, attrs):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(rec.spans), "name": name, "via": via, "op": rec.op,
                    "parent": rec._stack[-1] if rec._stack else None}
            rec.spans.append(span)
            rec._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["end"] = time.perf_counter()
                span["error"] = True
                raise
            finally:
                rec._stack.pop()
            span["end"] = time.perf_counter()
            if attrs is not None:
                try:
                    span.update(attrs(args, kwargs, result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    span["attrs_missing"] = True
            return result

        return traced

    def counter(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _resolve(module: str, qualname: str):
    """The object at module.qualname, or None if it is absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a class's own __dict__, so an inherited method is not taken for the target
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def _rebind(obj, make) -> int:
    """Replace every cyarith module global and class attribute bound to obj
    with make(via); returns how many bindings were replaced."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("cyarith") or mod is None:
            continue
        for key, val in list(vars(mod).items()):
            if val is obj:
                setattr(mod, key, make(modname))
                n += 1
            elif isinstance(val, type) and val.__module__ == modname:
                for ckey, cval in list(val.__dict__.items()):
                    if cval is obj:
                        setattr(val, ckey, make(modname))
                        n += 1
    return n


def install(rec: Recorder) -> list[str]:
    """Wrap every target; returns the targets that could not be found."""
    importlib.import_module("cyarith.cli")
    absent = []
    for module, qualname, attrs in TARGETS:
        fn = _resolve(module, qualname)
        name = f"{module.removeprefix('cyarith.')}.{qualname}"
        if fn is None or not _rebind(fn, lambda via: rec.wrap(fn, name, via, attrs)):
            absent.append(name)
    for module, qualname, counter in COUNTED:
        fn = _resolve(module, qualname)
        if fn is None or not _rebind(fn, lambda via, c=rec.counter(fn, counter): c):
            absent.append(counter)
    return absent


def _noop():
    return None


def calibrate(calls: int = 2000, repeats: int = 5) -> dict[str, float]:
    """What one span and one counted call add, in seconds: the median over
    repeats of a wrapped no-op's time per call minus the bare no-op's.
    Times the wrappers in this process, so drift of the host between
    processes does not enter it."""
    rec = Recorder(-1)
    wrapped = rec.wrap(_noop, "calibration", "tracer", None)
    counted = rec.counter(_noop, "calibration")

    def per_call(fn):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t) / calls

    bare, span, count = ([], [], [])
    for _ in range(repeats):
        bare.append(per_call(_noop))
        span.append(per_call(wrapped))
        count.append(per_call(counted))
    base = statistics.median(bare)
    return {"span_s": max(0.0, statistics.median(span) - base),
            "count_s": max(0.0, statistics.median(count) - base)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="where to write the spans as JSON")
    ap.add_argument("--op", type=int, default=0, help="operation id stamped on each span")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    ns = ap.parse_args(argv)
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args

    rec = Recorder(ns.op)
    absent = install(rec)
    code = importlib.import_module("cyarith.cli").run(cli_args)
    sys.stdout.flush()
    with open(ns.spans, "w") as fh:
        json.dump({"exit": code, "absent": absent, "counts": rec.counts,
                   "spans": rec.spans, "calibration": calibrate()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
