"""Spans around the engine's public functions, recorded from outside.

`Tracer.install()` replaces each target function with a wrapper at every
place it is bound: the module that defines it and every `binomials` module
that imported it by name (`from .ideals import intersect_all`).  Methods
are replaced on their class.  `uninstall()` puts the originals back, so an
untraced pass runs the unmodified code.

A span is (op, name, parent name, start, end, self time); self time is the
duration minus the time covered by child spans.  Spans are kept in memory
and written out by `dump()`.  The scalar spans (`scalars.*`) fire hundreds
of thousands of times per pass, so they are only aggregated.
"""

import json
import sys
from time import perf_counter

# (span name, module, attribute path)
TARGETS = [
    ("scalars.inverse", "scalars", "FiniteFieldElement.inverse"),
    ("scalars.inverse", "scalars", "CycloElement.inverse"),
    ("scalars.dth_roots", "scalars", "FiniteField.dth_roots"),
    ("scalars.dth_roots", "scalars", "CycloField.dth_roots"),
    ("intlattice.hnf", "intlattice", "hnf_with_transform"),
    ("intlattice.snf", "intlattice", "smith_normal_form"),
    ("poly.parse", "poly", "Ring.parse"),
    ("groebner", "groebner", "groebner_basis"),
    ("ideals.intersect", "ideals", "intersect"),
    ("ideals.intersect_all", "ideals", "intersect_all"),
    ("ideals.saturate_poly", "ideals", "saturate_poly"),
    ("ideals.saturate_monomial", "ideals", "saturate_monomial"),
    ("ideals.colon_poly", "ideals", "colon_poly"),
    ("ideals.colon_monomial", "ideals", "colon_monomial"),
    ("ideals.eliminate", "ideals", "eliminate"),
    ("characters.ideal_from_character", "characters", "ideal_from_character"),
    ("characters.character_from_cellular", "characters", "character_from_cellular"),
    ("characters.character_saturations", "characters", "character_saturations"),
    ("decompose.cell_scan", "decompose", "cell_scan"),
    ("decompose.radical", "decompose", "radical"),
    ("decompose.minimal_prime_entries", "decompose", "minimal_prime_entries"),
    ("decompose.minimal_primes", "decompose", "minimal_primes"),
    ("decompose.is_cellular", "decompose", "is_cellular"),
    ("decompose.cellular_decomposition", "decompose", "cellular_decomposition"),
    ("decompose.primary_test", "decompose", "primary_test"),
    ("decompose.is_primary", "decompose", "is_primary"),
    ("decompose.associated_prime_characters", "decompose", "associated_prime_characters"),
    ("decompose.localize", "decompose", "localize"),
    ("decompose.hull", "decompose", "hull"),
    ("decompose.primary_decomposition", "decompose", "primary_decomposition"),
    ("cli.main", "cli", "main"),
    ("cli.parse_session", "cli", "parse_session"),
    ("cli.run_session", "cli", "run_session"),
]
AGGREGATE_ONLY = ("scalars.",)
AUX_PARENTS = ("ideals.intersect", "ideals.saturate_poly")

# metric name -> unit, in the order of BENCHMARK.json's per_layer list
PER_LAYER = {}
for _name in ("scalars.inverse", "intlattice.hnf", "intlattice.snf", "poly.parse"):
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER["scalars.dth_roots.calls"] = "count"
PER_LAYER.update({
    "groebner.calls": "count",
    "groebner.self_s": "s",
    "groebner.calls_per_op": "count",
    "groebner.repeat_ratio": "ratio",
    "groebner.general_input_share": "ratio",
    "groebner.max_basis_len": "count",
    "groebner.output_terms": "count",
})
for _name in ("ideals.intersect", "ideals.saturate_poly", "ideals.colon_poly",
              "ideals.eliminate", "characters.ideal_from_character",
              "characters.character_from_cellular",
              "characters.character_saturations", "decompose.cell_scan",
              "decompose.localize"):
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.cum_s"] = "s"
PER_LAYER.update({
    "ideals.aux_gb_calls": "count",
    "decompose.cells_proper": "count",
    "decompose.localize_rounds": "count",
    "decompose.primary_test.cum_s": "s",
    "decompose.prune_certify_s": "s",
    "cli.parse_session.self_s": "s",
    "cli.run_session.self_s": "s",
    "trace.overhead": "ratio",
})


def _resolve(owner, path):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


PACKAGE = "binomials"


class Tracer:
    def __init__(self):
        self.on = False
        self.op = 0
        self.stack = []        # open frames: [name, start, child time]
        self.spans = []
        self.agg = {}          # name -> [calls, cum_s, self_s]
        self.pairs = {}        # (name, parent) -> [calls, total_s]
        self.depth = {}        # name -> open frames with that name
        self.gb_keys = set()   # distinct Groebner inputs in the current pass
        self.gb = {"distinct": 0, "general": 0, "max_len": 0, "terms": 0}
        self.cells_proper = 0
        self.passes = 0
        self.ops = 0
        self._installed = []
        self._wrappers = {}

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        for name, modname, path in TARGETS:
            owner, attr = _resolve(sys.modules[f"{PACKAGE}.{modname}"], path)
            orig = vars(owner)[attr]
            wrapper = self._wrappers.get(id(orig))
            if wrapper is None:
                wrapper = self._wrappers[id(orig)] = self._wrap(name, orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, orig))
                continue
            for mod in self._modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed = []

    # -- recording ---------------------------------------------------------

    def start_pass(self):
        self.passes += 1
        self.gb["distinct"] += len(self.gb_keys)
        self.gb_keys = set()

    def finish(self):
        self.gb["distinct"] += len(self.gb_keys)
        self.gb_keys = set()

    def _pause(self, started):
        """Shift open frames so time spent in a hook counts for no span."""
        dt = perf_counter() - started
        for frame in self.stack:
            frame[1] += dt

    def _wrap(self, name, fn):
        tracer = self
        keep = not name.startswith(AGGREGATE_ONLY)
        before = after = None
        if name == "groebner":
            before, after = self._gb_before, self._gb_after
        elif name == "decompose.cell_scan":
            after = self._cells_after

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                t = perf_counter()
                args = before(args, kwargs)
                tracer._pause(t)
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            depth = tracer.depth
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                rec = tracer.agg.get(name)
                if rec is None:
                    rec = tracer.agg[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if not depth[name]:
                    rec[1] += dur
                rec[2] += dur - frame[2]
                pair = tracer.pairs.get((name, parent))
                if pair is None:
                    pair = tracer.pairs[(name, parent)] = [0, 0.0]
                pair[0] += 1
                pair[1] += dur
                if keep:
                    tracer.spans.append((tracer.op, name, parent, frame[1], end, dur - frame[2]))
            if after is not None:
                t = perf_counter()
                after(result)
                tracer._pause(t)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _gb_before(self, args, kwargs):
        gens = tuple(args[0]) if args else tuple(kwargs.pop("gens"))
        rest = args[1:]
        order = rest[0] if rest else kwargs.get("order")
        ring = rest[1] if len(rest) > 1 else kwargs.get("ring")
        live = frozenset(g for g in gens if g)
        if ring is None and live:
            ring = next(iter(live)).ring
        self.gb_keys.add((ring, repr(order), live))
        if any(len(g) > 2 for g in live):
            self.gb["general"] += 1
        return (gens,) + rest

    def _gb_after(self, result):
        self.gb["max_len"] = max(self.gb["max_len"], len(result.polys))
        self.gb["terms"] += sum(len(p) for p in result.polys)

    def _cells_after(self, result):
        self.cells_proper += len(result)

    # -- results -----------------------------------------------------------

    def metrics(self, overhead):
        """Per-layer metrics per traced pass (ratios over all traced passes)."""
        n = max(self.passes, 1)

        def calls(name):
            return self.agg.get(name, [0, 0.0, 0.0])[0]

        def pair(names, parents):
            return [sum(v[i] for (a, b), v in self.pairs.items()
                        if a in names and b in parents) for i in (0, 1)]

        out = {}
        for key in PER_LAYER:
            base, _, kind = key.rpartition(".")
            if kind in ("calls", "cum_s", "self_s") and base != "groebner":
                rec = self.agg.get(base, [0, 0.0, 0.0])
                out[key] = rec[("calls", "cum_s", "self_s").index(kind)] / n
        gb_calls = calls("groebner")
        out["groebner.calls"] = gb_calls / n
        out["groebner.self_s"] = self.agg.get("groebner", [0, 0.0, 0.0])[2] / n
        out["groebner.calls_per_op"] = gb_calls / max(self.ops, 1)
        out["groebner.repeat_ratio"] = gb_calls / max(self.gb["distinct"], 1)
        out["groebner.general_input_share"] = self.gb["general"] / max(gb_calls, 1)
        out["groebner.max_basis_len"] = self.gb["max_len"]
        out["groebner.output_terms"] = self.gb["terms"] / max(gb_calls, 1)
        out["ideals.aux_gb_calls"] = pair({"groebner"}, AUX_PARENTS)[0] / n
        out["decompose.cells_proper"] = self.cells_proper / n
        out["decompose.localize_rounds"] = pair(
            {"decompose.associated_prime_characters"}, {"decompose.localize"})[0] / n
        out["decompose.prune_certify_s"] = pair(
            {"ideals.intersect_all"}, {"decompose.primary_decomposition"})[1] / n
        out["trace.overhead"] = overhead
        return {k: out[k] for k in PER_LAYER}

    def dump(self, path):
        """Write the kept spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
