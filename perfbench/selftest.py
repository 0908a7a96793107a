"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Shows that the checks reject wrong answers: a deliberately wrong expected
ideal, a wrong circuit, a wrong oracle point set and a wrong engine answer
are each caught.  It also proves, with the engine, that the reduced forms in
reference.py are the ideals the acceptance criteria write by hand, and,
without the engine, that the closed forms hold (the curve's prime vanishes
on its parametrization, the circuits are the Cramer minors).  Exits 1 if
any check fails.
"""

import copy
import math
import os
import re
import shutil
import sys
from itertools import combinations

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def session_cases(engine, workdir):
    op = workloads._session_op(engine, workdir, "coupled_differences_minprimes")
    _, run_fn, check = op
    outcome = run_fn()
    expect(check(outcome), "coupled differences: true answer passes")
    _, expected = reference.SESSIONS["coupled_differences_minprimes"]
    wrong = copy.deepcopy(expected)
    wrong[0][1]["components"][1]["generators"] = ["x2 - x3", "x1 + x4", "a"]
    expect(not workloads.check_session(outcome, wrong),
           "coupled differences: a wrong expected ideal is caught")
    fewer = copy.deepcopy(expected)
    fewer[0][1]["components"].pop()
    expect(not workloads.check_session(outcome, fewer),
           "coupled differences: a missing expected prime is caught")
    expect(not workloads.check_session((2, outcome[1]), expected),
           "a non-zero exit code is caught")

    _, run_fn, check = workloads._session_op(engine, workdir, "curve_circuits")
    outcome = run_fn()
    expect(check(outcome), "curve circuits: true answer passes")
    _, expected = reference.SESSIONS["curve_circuits"]
    wrong = copy.deepcopy(expected)
    wrong[0][1]["circuits"][0] = (3, -5, 0, 2)
    expect(not workloads.check_session(outcome, wrong),
           "curve circuits: a wrong circuit is caught")


def oracle_cases(engine):
    FF = engine.scalars.FiniteField
    rings = {
        1: engine.poly.Ring(FF(5), ["x", "y"]),
        2: engine.poly.Ring(FF(5, 2, oracle.MODULUS_25), ["x", "y"]),
        4: engine.poly.Ring(FF(5, 4, oracle.MODULUS_625), ["x", "y"]),
    }
    cache = workloads._VarietyCache()
    diagonals = (((0, 2), 1, (2, 0), -1),)  # y^2 - x^2: two lines
    expect(diagonals in oracle.all_ideal_generating_sets(),
           "y^2 - x^2 is one of the enumerated generating sets")
    _, run_fn, check = workloads._f5_op(engine, rings, cache, diagonals)
    result = run_fn()
    expect(check(result), "f5 op: true answer passes the variety oracle")
    v = cache.by_set[diagonals]
    expect(len(v) == 49, "V(y^2 - x^2) has 49 points over F_25")
    cache.by_set[diagonals] = v - {min(v)}
    expect(not check(result), "f5 op: a wrong oracle point set is caught")
    cache.by_set[diagonals] = v | {1}
    expect(not check(result), "f5 op: an extra oracle point is caught")
    cache.by_set[diagonals] = v
    x = rings[1].var(0)
    bad = (engine.ideals.Ideal(rings[1], [x]),) + result[1:]
    expect(not check(bad), "f5 op: a wrong radical is caught")
    expect(not check(result[:2] + (result[2][:-1], result[3])),
           "f5 op: a missing minimal prime is caught")

    quartic = (((4, 0), 1, (0, 4), -2),)  # x^4 - 2y^4 splits over GF(5^4)
    _, run_fn, check = workloads._f5_op(engine, rings, cache, quartic)
    result = run_fn()
    expect(result[1] == 4 and check(result),
           "f5 op: x^4 - 2y^4 is retried over GF(5^4) and passes")


def hand_written_cases(engine):
    for name, hands in reference.HAND_WRITTEN.items():
        text, expected = reference.SESSIONS[name]
        ring_line = text.split(";")[0] + ";"
        reduced = [c["generators"] for _, e in expected for c in e["components"]]

        def ideal(gens):
            sess = engine.cli.parse_session(f"{ring_line} ideal J = {gens};")
            return sess.ideals["J"]

        targets = [ideal(", ".join(g)) for g in reduced]
        free = list(range(len(targets)))
        ok = True
        for h in hands:
            hit = [k for k in free if targets[k] == ideal(h)]
            if not hit:
                ok = False
                break
            free.remove(hit[0])
        expect(ok, f"{name}: hand-written ideals match the reduced forms")

    # (1,1,-6,4) and (0,2,-5,3) span ker [[7,5,2,0],[0,2,5,7]]: the minors
    # of the two columns a, b are 2 and -5, coprime, so the span is saturated
    ring = "ring QQ[a,b,c,d];"
    toric = engine.cli.parse_session(
        f"{ring} ideal J = character [a,b,c,d] [[1,1,-6,4],[0,2,-5,3]] [1,1];"
    ).ideals["J"]
    prime = engine.cli.parse_session(
        f"{ring} ideal J = {', '.join(reference.CURVE_PRIME)};").ideals["J"]
    expect(toric == prime, "curve prime is the lattice ideal of the curve")

    for k in (3, 10):
        ring = "ring QQ[x,y,z];"
        rad = engine.cli.parse_session(
            f"{ring} ideal J = {', '.join(reference.ladder_radical(k))};").ideals["J"]
        expect(sorted(engine.poly.render_poly(g) for g in rad.gb().polys)
               == sorted(reference.ladder_radical(k)),
               f"ladder k={k}: the radical closed form is a reduced basis")
        _, p2 = reference.ladder_primes(k)
        curve = engine.cli.parse_session(
            f"{ring} ideal J = y-x^{k}, z-x^{3 * k - 1};").ideals["J"]
        expect(engine.cli.parse_session(f"{ring} ideal J = {', '.join(p2)};")
               .ideals["J"] == curve,
               f"ladder k={k}: (y-x^k, z-x^(3k-1)) has the stated reduced basis")


def parametrization_cases():
    weights = [(7, 0), (5, 2), (2, 5), (0, 7)]
    names = "abcd"

    def image(mono):
        e = [0, 0]
        for var, power in re.findall(r"([abcd])(?:\^(\d+))?", mono):
            w = weights[names.index(var)]
            e = [e[0] + w[0] * int(power or 1), e[1] + w[1] * int(power or 1)]
        return e

    ok = all(image(a) == image(b) for a, b in
             (g.split(" - ") for g in reference.CURVE_PRIME))
    expect(ok, "curve prime vanishes on (s^7, s^5t^2, s^2t^5, t^7)")
    cols = [(7, 0), (5, 2), (2, 5), (0, 7)]
    minors = []
    for i, j, k in combinations(range(4), 3):
        def det(p, q):
            return cols[p][0] * cols[q][1] - cols[p][1] * cols[q][0]
        v = [0] * 4
        v[i], v[j], v[k] = det(j, k), -det(i, k), det(i, j)
        g = math.gcd(*v)
        minors.append(tuple(x // g for x in v))
    expect({workloads._up_to_sign(m) for m in minors}
           == {workloads._up_to_sign(c) for c in reference.CURVE_CIRCUITS},
           "curve circuits are the Cramer minors of [[7,5,2,0],[0,2,5,7]]")


def main():
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        engine = run.import_engine()
        session_cases(engine, workdir)
        oracle_cases(engine)
        hand_written_cases(engine)
        parametrization_cases()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
