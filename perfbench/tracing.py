"""Per-layer tracing for the benchmark, installed from outside the library.

Every public function and method of the layer modules is wrapped.  Most
wrappers record a span: name, start, end, parent span and check id.
Spans live in flat arrays while the pass runs and are written out at
the end.  A span's self time is its duration minus the part its child
spans cover.

Two kinds of work never get a span of their own: the scalar helpers in
``LEAVES``, called tens of millions of times, whose wrappers only count
calls, and stdlib ``fractions`` operators, which no wrapper sees.  A
sampling profiler (SIGPROF) runs alongside: each sample notes the
innermost span being run and the layer whose code was executing, with
stdlib ``fractions`` counted as ``fields``.  A span's self time is then
split among layers in proportion to those samples.
"""

from __future__ import annotations

import fractions
import functools
import gzip
import json
import os
import signal
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("fields", "linalg", "tensors", "finalg", "kernels", "quasihopf",
          "actions", "coactions", "products", "isomaps", "ydrep",
          "serialize", "cli")
TENSOR_FNS = ("slotwise_mul", "apply_at", "insert", "permute", "mul_slots")
# count-only: a span per call would cost more than the call itself
LEAVES = {"fields": None,
          "linalg": {"flat_index", "unflatten", "prod", "sparse_col"}}
SAMPLE_PERIOD_S = 0.002


def layer_modules():
    """{module: layer} for every loaded module of the library's layers."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        parts = modname.split(".")
        if parts[0] == "quasihopf" and len(parts) > 1 and parts[1] in LAYERS:
            out[mod] = parts[1]
    return out


def is_leaf(layer: str, attr: str) -> bool:
    return layer in LEAVES and (LEAVES[layer] is None
                                or attr in LEAVES[layer])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.code_name: dict = {}
        self.leaf_calls = Counter()
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.check = array("i")
        self.stack = [-1]
        self.check_id = -1
        self.counts = Counter()
        self.samples = Counter()
        self._patched = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, qualname: str, layer: str, attr: str):
        if is_leaf(layer, attr):
            calls = self.leaf_calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)

            return counted
        nid = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(layer)
        self.code_name[fn.__code__] = nid
        hook = self._hook_for(qualname)
        start, end, name, parent, check, stack = (
            self.start, self.end, self.name, self.parent, self.check,
            self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            check.append(self.check_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, res)
            return res

        return span

    def _hook_for(self, qualname: str):
        counts = self.counts
        if qualname.startswith("tensors."):
            from quasihopf.tensors import TensorElt

            def tensors_hook(args, res):
                if isinstance(res, TensorElt):
                    n = len(res.terms)
                    counts["tensors.terms_out"] += n
                    if n > counts["tensors.peak_terms"]:
                        counts["tensors.peak_terms"] = n
            return tensors_hook
        if qualname == "finalg.verify_associative_unital":
            def scan_hook(args, res):
                counts["finalg.triples_scanned"] += args[0].dim ** 3
            return scan_hook
        if qualname == "finalg.algebra_from_pair_fn":
            def pairs_hook(args, res):
                counts["products.pairs"] += res.dim ** 2
            return pairs_hook
        if qualname == "serialize.load_document":
            def doc_hook(args, res):
                counts["serialize.docs"] += 1
                counts["serialize.bytes_in"] += os.path.getsize(args[0])
            return doc_hook
        return None

    def install(self):
        """Wrap every public function and method of the layer modules and
        rebind every reference to them inside the library."""
        wrappers = {}
        for mod, layer in layer_modules().items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer,
                                               attr)
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("quasihopf"):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def _wrap_class(self, cls, layer: str):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                new = self._wrap(obj, qual, layer, attr)
            elif isinstance(obj, (staticmethod, classmethod)):
                new = type(obj)(self._wrap(obj.__func__, qual, layer, attr))
            else:
                continue
            self._patched.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- sampling profiler -------------------------------------------------

    def _sample(self, signum, frame):
        inner = None
        while frame is not None:
            code = frame.f_code
            if inner is None:
                if code.co_filename == self._fractions_file:
                    inner = "fields"
                else:
                    inner = self._layer_files.get(code.co_filename)
            nid = self.code_name.get(code)
            if nid is not None:
                self.samples[(nid, inner)] += 1
                return
            if code.co_filename in self._stop_files:
                return
            frame = frame.f_back

    def start_sampler(self, stop_files):
        self._fractions_file = fractions.__file__
        self._layer_files = {mod.__file__: layer
                             for mod, layer in layer_modules().items()}
        self._stop_files = set(stop_files)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop_sampler(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    # -- derived metrics ---------------------------------------------------

    def metrics(self) -> dict:
        n = len(self.start)
        dur = array("d", map(float.__sub__, self.end, self.start))
        self_by_name = [0.0] * len(self.names)
        layer_calls = Counter(self.leaf_calls)
        for i in range(n):
            nid = self.name[i]
            self_by_name[nid] += dur[i]
            layer_calls[self.name_layer[nid]] += 1
            p = self.parent[i]
            if p >= 0:
                self_by_name[self.name[p]] -= dur[i]
        # share each span's self time among layers by its samples
        by_name = {}
        for (nid, layer), count in self.samples.items():
            if layer is not None:
                by_name.setdefault(nid, Counter())[layer] += count
        layer_self = Counter()
        own = {}
        for nid, seconds in enumerate(self_by_name):
            layer = self.name_layer[nid]
            shares = by_name.get(nid) or Counter({layer: 1})
            total = sum(shares.values())
            for lay, count in shares.items():
                layer_self[lay] += seconds * count / total
            own[self.names[nid]] = seconds * shares[layer] / total

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.calls"] = layer_calls[layer]
        for fn in TENSOR_FNS:
            out[f"tensors.{fn}.self_s"] = sum(
                s for q, s in own.items()
                if q.startswith("tensors.") and q.endswith("." + fn))
        out["tensors.terms_out"] = self.counts["tensors.terms_out"]
        out["tensors.peak_terms"] = self.counts["tensors.peak_terms"]
        out["finalg.scan_s"] = self._outermost(
            dur, lambda q: q == "finalg.verify_associative_unital")
        out["finalg.triples_scanned"] = self.counts["finalg.triples_scanned"]
        out["products.build_s"] = self._outermost(
            dur, lambda q: q.startswith("products."))
        out["products.pairs"] = self.counts["products.pairs"]
        out["coactions.omega_s"] = self._outermost(
            dur, lambda q: q.startswith(("coactions.omega",
                                         "coactions.verify_omega")))
        out["isomaps.three_factor_s"] = self._outermost(
            dur, lambda q: q == "isomaps.hausser_nill_check")
        out["serialize.docs"] = self.counts["serialize.docs"]
        out["serialize.bytes_in"] = self.counts["serialize.bytes_in"]
        return out

    def _outermost(self, dur, pick) -> float:
        """Total duration of picked spans that have no picked ancestor."""
        picked = [pick(q) for q in self.names]
        total = 0.0
        for i in range(len(dur)):
            if not picked[self.name[i]]:
                continue
            p = self.parent[i]
            while p >= 0 and not picked[self.name[p]]:
                p = self.parent[p]
            if p < 0:
                total += dur[i]
        return total

    def write(self, path: str, check_ids):
        """Spans as JSON lines: name, start, end, parent index, check id."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "layers": self.name_layer,
                                 "checks": check_ids}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name[i]},{self.start[i] - t0:.7f},"
                         f"{self.end[i] - t0:.7f},{self.parent[i]},"
                         f"{self.check[i]}]\n")


def traced_pass(wl, digests, speed, run_pass, out_path):
    """One traced pass of ``wl``; writes its spans to ``out_path`` and
    returns (per-layer metrics in raw seconds, outcomes, stats)."""
    tracer = Tracer()
    here = os.path.dirname(os.path.abspath(__file__))
    tracer.install()

    def on_check(ci):
        tracer.check_id = ci

    try:
        tracer.start_sampler([os.path.join(here, name) for name in
                              ("run.py", "workloads.py", "oracle.py")])
        try:
            outcomes = run_pass(wl, digests, speed, "traced",
                                on_check=on_check)
        finally:
            tracer.stop_sampler()
    finally:
        tracer.uninstall()
    tracer.write(out_path, [c.id for c in wl.checks])
    stats = {"spans": len(tracer.start),
             "samples": sum(tracer.samples.values()),
             "leaf_calls": dict(tracer.leaf_calls)}
    return tracer.metrics(), outcomes, stats
