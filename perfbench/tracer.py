"""Span tracing of the package from outside it.

``Tracer.install`` replaces every public function of the package's modules,
in every module namespace and dispatch table that holds it, and the public
and operator methods of ``FieldElement``, ``WPoint``, ``Conic`` and
``AffineMap``, with wrappers that record one span per call: id, name,
parent span, operation id, start and end.  Spans stay in memory in flat
arrays until the run ends.  ``uninstall`` restores every original.

A span's self time is its duration minus the durations of its child spans;
calls on one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import operator
import random
import struct
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("field", "linalg", "plane", "maps", "conics", "curve", "locus",
           "verify", "svgfig", "cli")
CLASSES = (("field", "FieldElement"), ("curve", "WPoint"), ("conics", "Conic"),
           ("maps", "AffineMap"))
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__", "__lt__",
             "__matmul__"}
# FieldElement methods counted per tower depth, by the kind they count as;
# __rsub__ and the divisions delegate to these, so they are not counted twice
FIELD_KINDS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
               "__sub__": "add", "inverse": "inverse", "sign": "sign", "sqrt": "sqrt"}
KERNELS = ("mul", "inverse", "sign", "sqrt")
DEPTHS = (0, 1, 2)
RESERVOIR = 128
COLUMNS = (("id", "i"), ("parent", "i"), ("name", "i"), ("op", "i"),
           ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self, seed: int):
        self.names: list[str] = []
        self.columns = {col: array(code) for col, code in COLUMNS}
        self.stack = [-1]
        self.op = -1
        self.counters: Counter = Counter()
        self.max_bits = 0
        self.samples: dict[tuple[str, int], list] = {}
        self._seen: Counter = Counter()
        self._rng = random.Random(seed)
        self._next_id = iter(range(1 << 31)).__next__
        self._patches: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def _wrap(self, fn, name: str, observe=None):
        nid = len(self.names)
        self.names.append(name)
        stack, next_id, clock = self.stack, self._next_id, time.perf_counter
        cols = self.columns
        add_id, add_parent, add_name = cols["id"].append, cols["parent"].append, cols["name"].append
        add_op, add_start, add_end = cols["op"].append, cols["start"].append, cols["end"].append
        tracer = self

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                add_id(sid)
                add_parent(parent)
                add_name(nid)
                add_op(tracer.op)
                add_start(start)
                add_end(end)
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr: str, original, value):
        """Replace one binding; ``original`` is the raw value, descriptors included."""
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("ceviangeo")
        modules = {m: importlib.import_module(f"ceviangeo.{m}") for m in MODULES}
        wrappers = {}
        for mname, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                defined_here = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                bound_here = (inspect.ismethod(obj) and inspect.isclass(obj.__self__)
                              and obj.__self__.__module__ == mod.__name__)
                if defined_here or bound_here:
                    wrappers[id(obj)] = self._wrap(obj, f"{mname}.{name}",
                                                   self._observer(mname, name))
        # every namespace and module-level dispatch table that holds a wrapped function
        for ns in [package, *modules.values()]:
            for name, obj in list(vars(ns).items()):
                if name.startswith("__"):
                    continue
                if id(obj) in wrappers:
                    self._patch(ns, name, obj, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patch(obj, key, value, wrappers[id(value)])
        for mname, cname in CLASSES:
            cls = getattr(modules[mname], cname)
            for name, raw in list(vars(cls).items()):
                if name.startswith("_") and name not in OPERATORS:
                    continue
                label = f"{mname}.{cname}.{name}"
                observe = self._method_observer(cname, name)
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(raw.__func__, label, observe))
                elif inspect.isfunction(raw):
                    new = self._wrap(raw, label, observe)
                else:
                    continue
                self._patch(cls, name, raw, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- observers: counts taken at the field, curve and locus boundaries ----

    def _bits(self, x):
        for c in x.coeffs:
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > self.max_bits:
                self.max_bits = b

    def _sample(self, key, operands):
        self._seen[key] += 1
        seen = self._seen[key]
        pool = self.samples.setdefault(key, [])
        if len(pool) < RESERVOIR:
            pool.append(operands)
        else:
            j = self._rng.randrange(seen)
            if j < RESERVOIR:
                pool[j] = operands

    def _observer(self, mname, name):
        counters = self.counters
        if (mname, name) == ("field", "factorize"):
            def observe(args, result):
                counters["factorize.max_bits"] = max(counters["factorize.max_bits"],
                                                     args[0].bit_length())
            return observe
        if (mname, name) == ("curve", "sample_translation_points"):
            def observe(args, result):
                counters["sample.points"] += len(result)
            return observe
        if (mname, name) == ("locus", "admissible"):
            def observe(args, result):
                counters["admissible.true"] += bool(result)
            return observe
        return None

    def _method_observer(self, cname, name):
        if cname != "FieldElement":
            return None
        from ceviangeo.field import FieldElement

        counters = self.counters
        kind = FIELD_KINDS.get(name)
        binary = name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__eq__")

        def observe(args, result):
            if result is NotImplemented:
                return
            x = args[0]
            if binary:
                other = args[1]
                tower = other.tower if isinstance(other, FieldElement) else ()
                if tower != x.tower:
                    counters["promotions"] += 1
            if kind is None:
                return
            depth = len(result.tower) if kind in ("mul", "add") else len(x.tower)
            counters[(kind, depth)] += 1
            if isinstance(result, FieldElement):
                self._bits(result)
            if kind in KERNELS:
                self._sample((kind, depth), args)

        return observe if (kind or binary) else None

    # -- results ------------------------------------------------------------

    def replay_kernels(self, budget_s: float = 0.05) -> dict[str, float]:
        """Mean microseconds per call of each sampled field kernel, replayed
        untraced on the operands seen at the field boundary."""
        from ceviangeo.field import FieldElement

        fns = {"mul": operator.mul, "inverse": FieldElement.inverse,
               "sign": FieldElement.sign, "sqrt": FieldElement.sqrt}
        out = {}
        for kind in KERNELS:
            for depth in DEPTHS:
                pool = self.samples.get((kind, depth))
                out[f"field.{kind}_us.d{depth}"] = (
                    _time_calls(fns[kind], pool, budget_s) if pool else 0.0)
        return out

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        cols = self.columns
        ids, parents, names = cols["id"], cols["parent"], cols["name"]
        starts, ends = cols["start"], cols["end"]
        n = len(ids)
        k = len(self.names)
        calls, self_s = [0] * k, [0.0] * k
        # ids count calls in start order and rows are appended in end order,
        # so every child row comes before its parent's row
        child = array("d", bytes(8 * n))
        name_of = array("i", bytes(4 * n))
        parent_of = array("i", bytes(4 * n))
        specials = []
        ids_by_name = {name: i for i, name in enumerate(self.names)}
        wanted = {ids_by_name[name] for name in
                  ("plane.point", "field.format_element", "cli.build_parser", "curve.w_to_bary")}
        for row in range(n):
            sid, nid, p = ids[row], names[row], parents[row]
            dur = ends[row] - starts[row]
            calls[nid] += 1
            self_s[nid] += dur - child[sid]
            name_of[sid] = nid
            parent_of[sid] = p
            if p >= 0:
                child[p] += dur
            if nid in wanted:
                specials.append((nid, p, dur))
        module = [name.split(".", 1)[0] for name in self.names]
        module_self: Counter = Counter()
        for nid in range(k):
            module_self[module[nid]] += self_s[nid]
        cli_time: Counter = Counter()
        sampler_calls = 0
        sampler = ids_by_name["curve.sample_translation_points"]
        for nid, p, dur in specials:
            name = self.names[nid]
            if name == "cli.build_parser":
                cli_time["parse"] += dur
            elif name == "curve.w_to_bary":
                while p >= 0 and name_of[p] != sampler:
                    p = parent_of[p]
                sampler_calls += p >= 0
            elif p >= 0 and module[name_of[p]] == "cli":
                cli_time["parse" if name == "plane.point" else "format"] += dur
        per = 1.0 / max(n_ops, 1)

        def count(name):
            return calls[ids_by_name[name]] * per

        def self_time(name):
            return self_s[ids_by_name[name]] * per

        m = {}
        c = self.counters
        for kind in ("mul", "add", "inverse", "sign", "sqrt"):
            for depth in DEPTHS:
                m[f"field.{kind}.calls.d{depth}"] = c[(kind, depth)] * per
        m["field.promotions"] = c["promotions"] * per
        m["field.max_bits"] = self.max_bits
        m["field.factorize.calls"] = count("field.factorize")
        m["field.factorize.max_bits"] = c["factorize.max_bits"]
        m["field.self_s"] = module_self["field"] * per
        m["linalg.nullspace.calls"] = count("linalg.nullspace")
        m["linalg.nullspace.self_s"] = self_time("linalg.nullspace")
        m["linalg.det3.calls"] = count("linalg.det3")
        m["plane.self_s"] = module_self["plane"] * per
        m["plane.point.calls"] = count("plane.point")
        m["maps.derive_configuration.calls"] = count("maps.derive_configuration")
        m["maps.derive_configuration.self_s"] = self_time("maps.derive_configuration")
        m["maps.classify_transfer.self_s"] = self_time("maps.classify_transfer")
        m["maps.cevian_map.calls"] = count("maps.cevian_map")
        m["conics.self_s"] = module_self["conics"] * per
        for name in ("nine_point_conic", "circumconic_for", "inconic", "conic_through",
                     "intersect_line"):
            m[f"conics.{name}.calls"] = count(f"conics.{name}")
        m["curve.self_s"] = module_self["curve"] * per
        m["curve.wpoint_add.calls"] = count("curve.WPoint.__add__")
        m["curve.w_to_bary.calls"] = count("curve.w_to_bary")
        m["curve.sample.accept_ratio"] = c["sample.points"] / sampler_calls if sampler_calls else 0.0
        m["locus.self_s"] = module_self["locus"] * per
        m["locus.orthocenter_vertex.calls"] = count("locus.orthocenter_vertex")
        m["locus.inscribed_triangle.calls"] = count("locus.inscribed_triangle")
        admissible = calls[ids_by_name["locus.admissible"]]
        m["locus.admissible_ratio"] = c["admissible.true"] / admissible if admissible else 0.0
        m["svgfig.conic_sweep.calls"] = count("svgfig.conic_sweep")
        m["svgfig.conic_sweep.self_s"] = self_time("svgfig.conic_sweep")
        m["svgfig.render.self_s"] = (module_self["svgfig"] - self_s[ids_by_name["svgfig.conic_sweep"]]) * per
        m["cli.self_s"] = module_self["cli"] * per
        m["cli.parse_s"] = cli_time["parse"] * per
        m["cli.format_s"] = cli_time["format"] * per
        return m

    def write(self, path: Path):
        """Write the spans: a length-prefixed JSON header, then each column raw."""
        header = {"names": self.names, "count": len(self.columns["id"]),
                  "columns": [[col, code] for col, code in COLUMNS]}
        blob = json.dumps(header).encode("utf-8")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(struct.pack("<Q", len(blob)))
            handle.write(blob)
            for col, _ in COLUMNS:
                self.columns[col].tofile(handle)


def _time_calls(fn, pool: list, budget_s: float) -> float:
    """Fastest of several passes over the pool, in microseconds per call."""
    best = float("inf")
    spent = 0.0
    passes = 0
    while passes < 3 or (spent < budget_s and passes < 50):
        start = time.perf_counter()
        for args in pool:
            fn(*args)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        passes += 1
    return best / len(pool) * 1e6
