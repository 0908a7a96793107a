"""The three workloads: their inputs, one pass of operations, and checks.

A workload's `make(seed, engine, workdir)` returns the operations of one
pass as `(label, run, check)` triples.  `run()` is the timed call into the
engine; `check(result)` compares the answer with a reference that does not
come from the engine and runs outside the timed region.  Engine functions
are looked up on their modules at call time, so a tracer installed later
sees every call.  Why each workload exists is in README.md.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import oracle
import reference

F5_SAMPLE = 800            # generating sets per f5_sweep pass
SMALL_SESSION_REPEATS = 5  # copies of each small session per decompose pass

DECOMPOSE_SMALL = [
    "cubic_pair_primary",
    "coupled_differences_minprimes",
    "permanental_2x3_minprimes",
    "rotation_primary",
    "roots_of_unity_primary",
    "f2_square_primary",
    "gf8_frobenius_primary",
]
LADDER_SESSIONS = [f"ladder_{k}_{cmd}" for k in reference.LADDER
                   for cmd in ("radical", "minprimes")] + [
    "curve_radical", "curve_cellular", "nested_powers_isprimary", "curve_circuits"]


# ---------------------------------------------------------------------------
# CLI sessions


def _same(got, want):
    if isinstance(want, list):
        return isinstance(got, list) and sorted(got) == sorted(want)
    return got == want


def _match_components(actual, expected):
    if len(actual) != len(expected):
        return False
    used = set()
    for want in expected:
        for k, got in enumerate(actual):
            if k not in used and all(
                _same(got.get(field), value)
                for field, value in want.items() if value is not None
            ):
                used.add(k)
                break
        else:
            return False
    return True


def _up_to_sign(vec):
    vec = tuple(int(x) for x in vec)
    lead = next((x for x in vec if x), 0)
    return vec if lead > 0 else tuple(-x for x in vec)


def check_session(outcome, expected):
    """Exit code 0 and every command's record matches its expectation."""
    rc, out = outcome
    if rc != 0:
        return False
    results = json.loads(out)["results"]
    if [r["command"] for r in results] != [cmd for cmd, _ in expected]:
        return False
    for rec, (_, want) in zip(results, expected):
        certs = rec.get("certificates", {})
        if any(certs.get(k) != v for k, v in want.get("certificates", {}).items()):
            return False
        if "circuits" in want:
            got = rec.get("circuits", [])
            if len(got) != len(want["circuits"]) or (
                {_up_to_sign(v) for v in got} != {_up_to_sign(v) for v in want["circuits"]}
            ):
                return False
        if "components" in want and not _match_components(
            rec.get("components", []), want["components"]
        ):
            return False
    return True


def _session_op(engine, workdir, name):
    text, expected = reference.SESSIONS[name]
    path = os.path.join(workdir, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = engine.cli.main(["--json", path])
        return rc, out.getvalue()

    return name, run, lambda outcome: check_session(outcome, expected)


def make_decompose_sessions(seed, engine, workdir):
    names = ["showcase_primary"] + DECOMPOSE_SMALL * SMALL_SESSION_REPEATS
    random.Random(seed).shuffle(names)
    return [_session_op(engine, workdir, n) for n in names]


def make_exponent_ladder(seed, engine, workdir):
    names = list(LADDER_SESSIONS)
    random.Random(seed).shuffle(names)
    return [_session_op(engine, workdir, n) for n in names]


# ---------------------------------------------------------------------------
# F_5 sweep


class _VarietyCache:
    """Oracle varieties, memoized: passes repeat the same answers."""

    def __init__(self):
        self.by_set = {}
        self.by_text = {}

    def of_set(self, gens):
        v = self.by_set.get(gens)
        if v is None:
            v = self.by_set[gens] = oracle.variety(
                [oracle.generator_terms(g) for g in gens])
        return v

    def of_text(self, texts, degree):
        key = (tuple(texts), degree)
        v = self.by_text.get(key)
        if v is None:
            v = self.by_text[key] = oracle.variety(
                [oracle.parse_poly(t, ["x", "y"], degree) for t in texts])
        return v


def make_f5_sweep(seed, engine, workdir):
    sets = oracle.all_ideal_generating_sets()
    chosen = random.Random(seed).sample(sets, F5_SAMPLE)
    FF, Ring = engine.scalars.FiniteField, engine.poly.Ring
    rings = {
        1: Ring(FF(5), ["x", "y"]),
        2: Ring(FF(5, 2, oracle.MODULUS_25), ["x", "y"]),
        4: Ring(FF(5, 4, oracle.MODULUS_625), ["x", "y"]),
    }
    cache = _VarietyCache()
    return [_f5_op(engine, rings, cache, gens) for gens in chosen]


def _f5_op(engine, rings, cache, gens):
    def ideal(degree):
        ring = rings[degree]
        polys = []
        for e1, c1, e2, c2 in gens:
            p = ring.monomial(e1, c1)
            if e2 is not None:
                p = p + ring.monomial(e2, c2)
            polys.append(p)
        return engine.ideals.Ideal(ring, polys)

    def run():
        dec = engine.decompose
        rad5 = dec.radical(ideal(1))
        try:
            i25 = ideal(2)
            return rad5, 2, dec.minimal_primes(i25), dec.radical(i25)
        except engine.errors.RootNotInField:
            i625 = ideal(4)
            return rad5, 4, dec.minimal_primes(i625), dec.radical(i625)

    def check(result):
        rad5, degree, primes, rad = result

        def texts(ideal_):
            return [engine.poly.render_poly(g) for g in ideal_.gb().polys]

        v = cache.of_set(gens)
        if cache.of_text(texts(rad5), 1) != v or cache.of_text(texts(rad), degree) != v:
            return False
        union = frozenset().union(*(cache.of_text(texts(p), degree) for p in primes))
        return union == v

    return f"f5:{gens}", run, check


WORKLOADS = {
    "f5_sweep": make_f5_sweep,
    "decompose_sessions": make_decompose_sessions,
    "exponent_ladder": make_exponent_ladder,
}
