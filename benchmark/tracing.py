"""Span recorder and layer wrappers for the traced benchmark run.

The wrappers live here, not in the library: installing them rebinds each
traced function in every ``vckit`` module (and class) that holds it, because
``from .x import y`` copies the binding into the importing module.  While a
phase is open, every wrapped call records a span (name, start, end, parent);
a few hot helpers only bump a counter.  Spans stay in memory and are written
out when the run ends; per-layer metrics are derived from them.
"""

import functools
import json
import sys
import time
from array import array
from collections import Counter

import vckit.fri
import vckit.hauth
import vckit.stark
import vckit.vdf

# (span name, module, attribute path) of every function wrapped in a span.
SPANS = [
    ("field.evaluate_array", "vckit.field", "Polynomial.evaluate_array"),
    ("field.interpolate_on_domain", "vckit.field", "interpolate_on_domain"),
    ("field.poly_arith", "vckit.field", "Polynomial.__mul__"),
    ("field.poly_arith", "vckit.field", "Polynomial.__divmod__"),
    ("field.poly_arith", "vckit.field", "Polynomial.compose_scale"),
    ("field.poly_arith", "vckit.field", "interpolate"),
    ("stark.zk_pad", "vckit.stark", "zk_pad"),
    ("stark.check_satisfaction", "vckit.stark", "check_satisfaction"),
    ("stark.quotients", "vckit.stark", "boundary_quotient"),
    ("stark.quotients", "vckit.stark", "transition_quotient"),
    ("stark.compose", "vckit.stark", "compose"),
    ("stark.prove", "vckit.stark", "prove"),
    ("stark.verify", "vckit.stark", "verify"),
    ("stark.transition_vanishing_eval", "vckit.stark",
     "transition_vanishing_eval"),
    ("merkle.build", "vckit.merkle", "MerkleTree.__init__"),
    ("merkle.verify_path", "vckit.merkle", "verify_path"),
    ("fri.commit_phase", "vckit.fri", "commit_phase"),
    ("fri.fold_layer", "vckit.fri", "fold_layer"),
    ("fri.query_phase", "vckit.fri", "query_phase"),
    ("fri.verify", "vckit.fri", "verify"),
    ("encoding.serialize", "vckit.stark", "StarkProof.serialize"),
    ("encoding.serialize", "vckit.fri", "FriProof.serialize"),
    ("encoding.deserialize", "vckit.stark", "StarkProof.deserialize"),
    ("encoding.deserialize", "vckit.fri", "FriProof.deserialize"),
    ("transcript.challenge_prime", "vckit.transcript",
     "Transcript.challenge_prime"),
    ("transcript.hash_to_group", "vckit.transcript", "hash_to_group"),
    ("transcript.prf", "vckit.transcript", "prf"),
    ("primes.is_prime", "vckit.primes", "is_prime"),
    ("vdf.eval_sequential", "vckit.vdf", "eval_sequential"),
    ("vdf.prove", "vckit.vdf", "prove"),
    ("vdf.counting_modpow", "vckit.vdf", "counting_modpow"),
    ("hauth.auth", "vckit.hauth", "auth"),
    ("hauth.eval_tags", "vckit.hauth", "eval_tags"),
    ("hauth.verify", "vckit.hauth", "verify"),
    ("hauth.load", "vckit.hauth", "load"),
    ("hauth.amortize_offline", "vckit.hauth", "amortize_offline"),
]

# (counter name, module, attribute path) of hot helpers that are only counted.
COUNTS = [
    ("merkle.hashes", "vckit.merkle", "leaf_hash"),
    ("merkle.hashes", "vckit.merkle", "node_hash"),
    ("transcript.hashes", "vckit.transcript", "_h"),
    ("hauth.label_randomness.calls", "vckit.hauth", "label_randomness"),
]

# Per-layer metrics, in report order: (name, unit, phase, kind, source).
# phase "round" values are per traced round, "setup" values per set-up.
# kind "self" sums span self time, "calls" counts spans, "counter" reads a
# counter, "children" counts spans of `source[1]` opened directly inside
# spans of `source[0]`.
PER_LAYER = [
    ("field.evaluate_array.self_s", "s", "round", "self", "field.evaluate_array"),
    ("field.evaluate_array.coeff_points", "count", "round", "counter",
     "field.evaluate_array.coeff_points"),
    ("field.interpolate_on_domain.self_s", "s", "round", "self",
     "field.interpolate_on_domain"),
    ("field.poly_arith.self_s", "s", "round", "self", "field.poly_arith"),
    ("field.scalar_ops", "count", "round", "counter", "field.scalar_ops"),
    ("stark.zk_pad.self_s", "s", "round", "self", "stark.zk_pad"),
    ("stark.check_satisfaction.self_s", "s", "round", "self",
     "stark.check_satisfaction"),
    ("stark.quotients.self_s", "s", "round", "self", "stark.quotients"),
    ("stark.compose.self_s", "s", "round", "self", "stark.compose"),
    ("stark.prove.self_s", "s", "round", "self", "stark.prove"),
    ("stark.verify.self_s", "s", "round", "self", "stark.verify"),
    ("stark.transition_vanishing_eval.self_s", "s", "round", "self",
     "stark.transition_vanishing_eval"),
    ("stark.transition_vanishing_eval.calls", "count", "round", "calls",
     "stark.transition_vanishing_eval"),
    ("merkle.build.self_s", "s", "round", "self", "merkle.build"),
    ("merkle.hashes", "count", "round", "counter", "merkle.hashes"),
    ("merkle.verify_path.self_s", "s", "round", "self", "merkle.verify_path"),
    ("merkle.verify_path.calls", "count", "round", "calls",
     "merkle.verify_path"),
    ("fri.commit_phase.self_s", "s", "round", "self", "fri.commit_phase"),
    ("fri.fold_layer.self_s", "s", "round", "self", "fri.fold_layer"),
    ("fri.query_phase.self_s", "s", "round", "self", "fri.query_phase"),
    ("fri.verify.self_s", "s", "round", "self", "fri.verify"),
    ("encoding.serialize.self_s", "s", "round", "self", "encoding.serialize"),
    ("encoding.deserialize.self_s", "s", "round", "self",
     "encoding.deserialize"),
    ("transcript.hashes", "count", "round", "counter", "transcript.hashes"),
    ("transcript.challenge_prime.self_s", "s", "round", "self",
     "transcript.challenge_prime"),
    ("transcript.challenge_prime.candidates", "count", "round", "children",
     ("transcript.challenge_prime", "primes.is_prime")),
    ("transcript.hash_to_group.self_s", "s", "round", "self",
     "transcript.hash_to_group"),
    ("transcript.prf.self_s", "s", "round", "self", "transcript.prf"),
    ("transcript.prf.calls", "count", "round", "calls", "transcript.prf"),
    ("primes.is_prime.self_s", "s", "round", "self", "primes.is_prime"),
    ("primes.is_prime.calls", "count", "round", "calls", "primes.is_prime"),
    ("vdf.eval_sequential.self_s", "s", "round", "self", "vdf.eval_sequential"),
    ("vdf.squarings", "count", "round", "counter", "vdf.squarings"),
    ("vdf.prove.self_s", "s", "round", "self", "vdf.prove"),
    ("vdf.multiplications", "count", "round", "counter", "vdf.multiplications"),
    ("vdf.counting_modpow.self_s", "s", "round", "self", "vdf.counting_modpow"),
    ("hauth.auth.self_s", "s", "round", "self", "hauth.auth"),
    ("hauth.eval_tags.self_s", "s", "round", "self", "hauth.eval_tags"),
    ("hauth.verify.self_s", "s", "round", "self", "hauth.verify"),
    ("hauth.label_randomness.calls", "count", "round", "counter",
     "hauth.label_randomness.calls"),
    ("hauth.load.self_s", "s", "round", "self", "hauth.load"),
    ("setup.hauth.amortize_offline.self_s", "s", "setup", "self",
     "hauth.amortize_offline"),
    ("setup.primes.is_prime.self_s", "s", "setup", "self", "primes.is_prime"),
    ("setup.primes.is_prime.calls", "count", "setup", "calls",
     "primes.is_prime"),
]

OVERHEAD_METRIC = ("trace.overhead_ms", "ms")

# Tracing stops (later rounds run untraced) once this many spans are kept,
# which bounds memory on workloads with many small calls.
SPAN_BUDGET = 300_000


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr]
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def _bindings(fn):
    """Every (namespace owner, attribute, raw value) in vckit that holds fn,
    in module globals and in class dictionaries (static methods included)."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if not (mod_name == "vckit" or mod_name.startswith("vckit.")):
            continue
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod_name]
        for owner in owners:
            for attr, raw in list(vars(owner).items()):
                inner = raw.__func__ if isinstance(raw, staticmethod) else raw
                if inner is fn:
                    found.append((owner, attr, raw))
    return found


class Tracer:
    """Records spans and counters while a phase is open."""

    def __init__(self, field):
        self.field = field
        self.names = []
        self.name_index = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.counters = Counter()
        self.phase_counters = {"setup": Counter(), "round": Counter()}
        self.phase_count = Counter()
        self._patches = self._plan()

    # -- wrapper installation ------------------------------------------------

    def _plan(self):
        patches = []
        for name, module, path in SPANS:
            fn = _resolve(module, path)
            patches += self._patch(fn, self._span_wrapper(name, fn))
        for name, module, path in COUNTS:
            fn = _resolve(module, path)
            patches += self._patch(fn, self._count_wrapper(name, fn))
        return patches

    @staticmethod
    def _patch(fn, wrapper):
        out = []
        for owner, attr, raw in _bindings(fn):
            new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
            out.append((owner, attr, raw, new))
        if not out:
            raise RuntimeError(f"no binding found for {fn.__qualname__}")
        return out

    def install(self):
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    def _count_wrapper(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                if extra is not None:
                    return extra(self, fn, *args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        nid = self.name_index.get(name)
        if nid is None:
            nid = self.name_index[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def has_room(self):
        return len(self.span_start) < SPAN_BUDGET

    def run_phase(self, phase, fn, *args):
        """Run fn(*args) traced as one root span named after the phase.

        Returns (result, wall seconds of the root span)."""
        before = self._counter_snapshot()
        self.install()
        try:
            idx = self.open(phase)
            try:
                result = fn(*args)
            finally:
                self.close(idx)
        finally:
            self.uninstall()
        after = self._counter_snapshot()
        after.subtract(before)
        self.phase_counters[phase].update(after)
        self.phase_count[phase] += 1
        seconds = (self.span_end[idx] - self.span_start[idx]) / 1e9
        return result, seconds

    def _counter_snapshot(self):
        snap = Counter(self.counters)
        snap["field.scalar_ops"] = self.field.op_count
        return snap

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics, normalized per set-up or per traced round."""
        n = len(self.span_start)
        roots = [0] * n
        child_ns = [0] * n
        self_ns = {}
        calls = Counter()
        children = Counter()
        for i in range(n):
            parent = self.span_parent[i]
            dur = self.span_end[i] - self.span_start[i]
            if parent < 0:
                roots[i] = i
            else:
                roots[i] = roots[parent]
                child_ns[parent] += dur
        for i in range(n):
            parent = self.span_parent[i]
            if parent < 0:
                continue
            phase = self.names[self.span_name[roots[i]]]
            name = self.names[self.span_name[i]]
            key = (phase, name)
            dur = self.span_end[i] - self.span_start[i]
            self_ns[key] = self_ns.get(key, 0) + dur - child_ns[i]
            calls[key] += 1
            children[(phase, self.names[self.span_name[parent]], name)] += 1
        out = {}
        for name, unit, phase, kind, source in PER_LAYER:
            per = max(self.phase_count[phase], 1)
            if kind == "self":
                value = self_ns.get((phase, source), 0) / 1e9
            elif kind == "calls":
                value = calls[(phase, source)]
            elif kind == "children":
                value = children[(phase,) + source]
            else:
                value = self.phase_counters[phase][source]
            out[name] = {"value": value / per, "unit": unit}
        return out

    def write(self, path, meta):
        """Write every kept span (times in ns from the first span) as JSON."""
        t0 = self.span_start[0] if self.span_start else 0
        doc = dict(meta)
        doc.update({
            "names": self.names,
            "span_name": list(self.span_name),
            "span_parent": list(self.span_parent),
            "span_start_ns": [t - t0 for t in self.span_start],
            "span_end_ns": [t - t0 for t in self.span_end],
            "counters": {k: dict(v) for k, v in self.phase_counters.items()},
            "phases": dict(self.phase_count),
        })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Span wrappers that also record a counter from the call's arguments.

def _evaluate_array(tracer, fn, poly, xs):
    tracer.counters["field.evaluate_array.coeff_points"] += (
        len(poly.coeffs) * len(xs))
    return fn(poly, xs)


def _vdf_metered(field_name, counter):
    def call(tracer, fn, *args):
        own = vckit.vdf.VdfCounters()
        out = fn(*args, counters=own)
        tracer.counters[counter] += getattr(own, field_name)
        return out
    return call


_EXTRA = {
    "field.evaluate_array": _evaluate_array,
    "vdf.eval_sequential": _vdf_metered("squarings", "vdf.squarings"),
    "vdf.prove": _vdf_metered("multiplications", "vdf.multiplications"),
}
