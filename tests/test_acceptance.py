"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line with its elapsed time (visible with pytest -s)
and enforces the stated wall-clock budget.
"""

import sys
import time
from fractions import Fraction

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from binomials.characters import (
    PartialCharacter,
    character_from_cellular,
    ideal_from_character,
    laurent_primary_decomposition,
)
from binomials.decompose import (
    cellular_decomposition,
    circuit_ideal,
    minimal_primes,
    primary_decomposition,
    primary_test,
    radical,
)
from binomials.errors import RootNotInField
from binomials.ideals import (
    Ideal,
    cell_product,
    colon_quasipower,
    colon_quasipower_ratio,
    intersect_all,
    saturate_monomial,
)
from binomials.intlattice import Lattice
from binomials.poly import Ring
from binomials.scalars import QQ, CycloField, FiniteField

import test_properties as suites


def _finish(num, t0, budget, text):
    dt = time.time() - t0
    line = f"criterion {num}: {text} [{dt:.1f}s / budget {budget}s]"
    print(("PASS " if dt < budget else "SLOW ") + line)
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"


def test_criterion_1_cubic_pair():
    t0 = time.time()
    R = Ring(QQ, ["x", "y"])
    x, y = R.var(0), R.var(1)
    I = Ideal(R, (x**3 - y**3, x**4 * y**5 - x**5 * y**4))
    comps = primary_decomposition(I)
    assert len(comps) == 2
    minimal = [c for c in comps if not c.embedded]
    embedded = [c for c in comps if c.embedded]
    assert len(minimal) == 1 and minimal[0].ideal == Ideal(R, (x - y,))
    assert len(embedded) == 1
    rep = primary_test(embedded[0].ideal, embedded[0].cell)
    assert rep.primary and rep.radical == Ideal(R, (x, y))
    assert intersect_all([c.ideal for c in comps], R) == I
    _finish(1, t0, 5, "cubic pair: (x-y) plus an (x,y)-primary component, intersection exact")


def test_criterion_2_six_variable_cellular():
    t0 = time.time()
    F = CycloField(12)
    R = Ring(F, ["a", "b", "c", "d", "e", "f"])
    I = Ideal(R, tuple(R.parse(s) for s in (
        "b*d^2-a*f^2", "b*c*e-a*c*f", "b*c*d-a*c*e", "b^2*e-a*b*f", "b^2*c",
        "a*e^2-b*f^2", "a*d^2-b*e^2", "a*c*d-b*c*f", "a*b*e-a^2*f", "a*b*c",
        "a*b^2-b^3", "a^2*e-b^2*f", "a^2*c", "b^4", "a^2*b-b^3", "a^3-b^3",
        "c^3*e-c^3*f", "c^4", "b^3*d-b^3*f", "a*c^3-b*c^3", "c*d^4-c*e^2*f^2",
    )))
    comps = primary_decomposition(I)
    assert len(comps) == 17
    # the expected component list, with i = z12^3 and xi = z12^2
    expected_texts = [
        "a, b, c",
        "a, b, c^3, d^2-e*f",
        "a, b, c^3, d^2+e*f",
        "a, b, c^4, e-f, d-z12^3*f",
        "a, b, c^4, e-f, d+z12^3*f",
        "a-b, b^4, c^4, b^2*c, d-f, e-f",
        "a-b, b^2, c^3, b*c, d+f, e+f",
        "a-b, b^3, c^4, b*c, d+f, e-f",
        "a-b, b^2, c^3, b*c, d-f, e+f",
        "a-z12^4*b, b^2, c^3, b*c, d+z12^2*f, e+z12^4*f",
        "a-z12^4*b, b^3, c^3, b*c, d-z12^2*f, e-z12^4*f",
        "a-z12^4*b, b^3, c^3, b^2*c, d+z12^2*f, e-z12^4*f",
        "a-z12^4*b, b^2, c^3, b*c, d-z12^2*f, e+z12^4*f",
        "a+z12^2*b, b^2, c^3, b*c, d+z12^4*f, e-z12^2*f",
        "a+z12^2*b, b^3, c^3, b^2*c, d-z12^4*f, e+z12^2*f",
        "a+z12^2*b, b^3, c^3, b*c, d+z12^4*f, e+z12^2*f",
        "a+z12^2*b, b^2, c^3, b*c, d-z12^4*f, e-z12^2*f",
    ]
    expected = [
        Ideal(R, tuple(R.parse(g.strip()) for g in text.split(",")))
        for text in expected_texts
    ]
    matched = set()
    for e in expected:
        hits = [k for k, pc in enumerate(comps) if k not in matched and pc.ideal == e]
        assert hits, f"expected component not found: {e!r}"
        matched.add(hits[0])
    assert len(matched) == 17
    assert intersect_all([pc.ideal for pc in comps], R) == I
    _finish(2, t0, 120, "six-variable cellular ideal: all 17 expected components matched")


def test_criterion_3_degree_seven_curve():
    t0 = time.time()
    R = Ring(QQ, ["a", "b", "c", "d"])
    a, b, c, d = (R.var(i) for i in range(4))
    I = Ideal(R, (c**5 - b**2 * d**3, a**5 * d**2 - b**7,
                  b**5 - a**3 * c**2, a**2 * d**5 - c**7))
    comps = cellular_decomposition(I)
    assert sorted(c2.cell for c2 in comps) == [(), (0,), (0, 1, 2, 3), (3,)]
    by_cell = {c2.cell: c2 for c2 in comps}
    P = radical(I)
    assert by_cell[(0, 1, 2, 3)].ideal == P
    assert by_cell[(0,)].ideal == Ideal(R, (
        b**2 * c**2 - a**2 * d**2, b**5 - a**3 * c**2,
        b**2 * d**2, c**4, c**2 * d**2, d**4))
    assert by_cell[(3,)].ideal == Ideal(R, (
        b**2 * c**2 - a**2 * d**2, c**5 - b**2 * d**3,
        a**2 * c**2, b**4, a**2 * b**2, a**4))
    assert by_cell[()].ideal == I + (a**7, b**9, c**9, d**7)
    for c2 in comps:  # the cellular pieces of this circuit ideal are primary
        assert primary_test(c2.ideal, c2.cell).primary
    # the radical is the toric prime of the curve's character: the circuit
    # ideal plus the one extra binomial the lattice forces (bc - ad), up to
    # saturation by the cell product
    lat = Lattice.kernel_of([[7, 5, 2, 0], [0, 2, 5, 7]])
    rho = PartialCharacter((0, 1, 2, 3), lat, (Fraction(1),) * 2, QQ)
    assert circuit_ideal(R, rho) == I
    assert P == ideal_from_character(R, rho)
    assert P == saturate_monomial(
        Ideal(R, I.gens + (b * c - a * d,)), cell_product(R, [0, 1, 2, 3]))
    _finish(3, t0, 30, "degree-7 curve: 4 expected cellular components, all primary, radical = P")


def test_criterion_4_coupled_differences():
    t0 = time.time()
    R = Ring(QQ, ["a", "b", "x1", "x2", "x3", "x4"])
    a, b, x1, x2, x3, x4 = (R.var(i) for i in range(6))
    I = Ideal(R, (a * x1 - a * x3, a * x2 - a * x4,
                  b * x1 - b * x4, b * x2 - b * x3))
    mp = minimal_primes(I)
    expected = [
        Ideal(R, (a, b)),
        Ideal(R, (a, x1 - x4, x2 - x3)),
        Ideal(R, (b, x1 - x3, x2 - x4)),
        Ideal(R, (x2 - x3, x3 - x4, x1 - x4)),
    ]
    assert len(mp) == 4
    for e in expected:
        assert any(p == e for p in mp)
    colon_generators = [x1 + x2 + x3 + x4, a * (x2 - x4),
                        (x2 - x3) * (x2 - x4), b * (x2 - x3)]
    assert not Ideal(R, colon_generators).is_binomial()
    _finish(4, t0, 5, "coupled differences: four expected primes; (I:(a,b)) not binomial")


def test_criterion_5_permanental():
    t0 = time.time()
    R33 = Ring(QQ, [f"y{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)])

    def v33(i, j):
        return R33.var((i - 1) * 3 + (j - 1))

    gens = []
    for i in (1, 2):
        for k in range(i + 1, 4):
            for j in (1, 2):
                for l in range(j + 1, 4):
                    gens.append(v33(i, j) * v33(k, l) + v33(i, l) * v33(k, j))
    P33 = Ideal(R33, tuple(gens))
    m = v33(1, 1) * v33(2, 2) * v33(3, 3)
    assert P33.contains(v33(1, 1) * m)
    assert not P33.contains(m)
    assert radical(P33).contains(m)

    R23 = Ring(QQ, [f"x{i}{j}" for i in (1, 2) for j in (1, 2, 3)])

    def v23(i, j):
        return R23.var((i - 1) * 3 + (j - 1))

    P23 = Ideal(R23, (
        v23(1, 1) * v23(2, 2) + v23(1, 2) * v23(2, 1),
        v23(1, 1) * v23(2, 3) + v23(1, 3) * v23(2, 1),
        v23(1, 2) * v23(2, 3) + v23(1, 3) * v23(2, 2),
    ))
    mp = minimal_primes(P23)
    expected = [
        Ideal(R23, (v23(1, 1), v23(1, 2), v23(1, 3))),
        Ideal(R23, (v23(2, 1), v23(2, 2), v23(2, 3))),
        Ideal(R23, (v23(1, 1) * v23(2, 2) + v23(1, 2) * v23(2, 1), v23(1, 3), v23(2, 3))),
        Ideal(R23, (v23(1, 1) * v23(2, 3) + v23(1, 3) * v23(2, 1), v23(1, 2), v23(2, 2))),
        Ideal(R23, (v23(1, 2) * v23(2, 3) + v23(1, 3) * v23(2, 2), v23(1, 1), v23(2, 1))),
    ]
    assert len(mp) == 5
    for e in expected:
        assert any(p == e for p in mp)
    assert radical(P23) == intersect_all(expected, R23)
    _finish(5, t0, 30, "permanents: 3x3 membership certificates; 2x3 case = 5 expected primes")


def test_criterion_6_rotation_colons():
    t0 = time.time()
    R = Ring(QQ, ["x1", "x2", "x3", "y"])
    x1, x2, x3, y = (R.var(i) for i in range(4))
    I = Ideal(R, (x1 - y * x2, x2 - y * x3, x3 - y * x1))
    J, d = colon_quasipower(I, y - R.one, d=3)
    assert J == Ideal(R, (x1, x2, x3)) and d == 3
    out = colon_quasipower_ratio(I, y - R.one, 3, 1)
    assert out == Ideal(R, (x1 - x3, x2 - x3, x3 * y - x3))
    _finish(6, t0, 2, "rotation ideal: (I:(y-1)^[3]) = (x1,x2,x3); ratio colon exact")


def test_criterion_7_nested_powers():
    t0 = time.time()
    R = Ring(QQ, ["x0", "x1", "x2", "x3"])
    k0, k1, k2, k3 = (R.var(i) for i in range(4))
    I = Ideal(R, (k1**2, k1 * k3 - k2**2, k2 * k3 - k0**2))
    rep = primary_test(I)
    assert rep.primary
    assert rep.radical == Ideal(R, (k0, k1, k2))
    assert I.contains(k0**8)
    assert not I.contains(k0**7)
    _finish(7, t0, 5, "nested powers n=3 d=(2,2,2): primary; x0^8 in I, x0^7 not")


def test_criterion_8_roots_of_unity():
    t0 = time.time()
    F6 = CycloField(6)
    R = Ring(F6, ["x"])
    x = R.var(0)
    comps = primary_decomposition(Ideal(R, (x**6 - 1,)))
    assert len(comps) == 6
    roots = set()
    for pc in comps:
        (g,) = pc.ideal.gb().polys
        assert g.total_degree() == 1 and not pc.embedded
        r = -g.coefficient_of((0,))
        assert r**6 == 1
        roots.add(repr(r))
    assert len(roots) == 6

    F2 = FiniteField(2)
    R2 = Ring(F2, ["x"])
    x2 = R2.var(0)
    I2 = Ideal(R2, (x2 * x2 - 1,))
    assert radical(I2) == Ideal(R2, (x2 - 1,))
    rho = character_from_cellular(I2, (0,))
    dec = laurent_primary_decomposition(rho)
    assert dec["multiplicity"] == 2
    _finish(8, t0, 2, "(x^6-1) = six linear primes over QQ(zeta6); F2 multiplicity 2")


def test_criterion_9_property_suites():
    t0 = time.time()
    assert suites.suite_binomial_gb(200) == 0
    assert suites.suite_lattice_saturations(200) == 0
    assert suites.suite_character_roundtrip(200) == 0
    assert suites.suite_snf(200) == 0
    assert suites.suite_unital_radical(200) == 0
    assert suites.suite_monomial_properties(200) == 0
    _finish(9, t0, 120, "six property suites, 200 instances each, zero failures")


def test_criterion_10_f5_oracle():
    t0 = time.time()
    from f5_oracle import (
        POINTS_25,
        _mono_value,
        all_ideal_generating_sets,
        f25_mul,
        variety,
    )

    F5 = FiniteField(5)
    F25 = FiniteField(5, 2, (3, 0, 1))  # t^2 = 2, matching the oracle tables
    R5 = Ring(F5, ["x", "y"])
    R25 = Ring(F25, ["x", "y"])

    def to_ideal(ring, gens):
        polys = []
        for (e1, c1, e2, c2) in gens:
            p = ring.monomial(e1, c1)
            if e2 is not None:
                p = p + ring.monomial(e2, c2)
            polys.append(p)
        return Ideal(ring, polys)

    seen = {}
    for gs in all_ideal_generating_sets():
        ideal = to_ideal(R5, gs)
        seen.setdefault(ideal.key(), gs)
    items = list(seen.values())
    assert len(items) > 2000

    all_points = list(range(len(POINTS_25)))

    def pad(c):
        cc = tuple(c)
        return cc if len(cc) == 2 else (cc[0], 0)

    def gens_of(ideal):
        out = []
        for p in ideal.gb().polys:
            ts = p.terms
            if len(ts) == 1:
                out.append((ts[0][0], pad(ts[0][1].coeffs), None, None))
            else:
                out.append((ts[0][0], pad(ts[0][1].coeffs), ts[1][0], pad(ts[1][1].coeffs)))
        return out

    def vanishes(pgens, i):
        for (e1, c1, e2, c2) in pgens:
            v = f25_mul(c1, _mono_value(e1, i))
            if e2 is not None:
                w = f25_mul(c2, _mono_value(e2, i))
                v = ((v[0] + w[0]) % 5, (v[1] + w[1]) % 5)
            if v != (0, 0):
                return False
        return True

    needs_bigger_field = []
    for gs in items:
        ideal5 = to_ideal(R5, gs)
        rad = radical(ideal5)
        vi = variety(gs, all_points)
        vrad = [i for i in all_points if vanishes(gens_of(rad), i)]
        assert vi == vrad, f"V(I) != V(radical I) for {gs}"
        ideal25 = to_ideal(R25, gs)
        try:
            mps = minimal_primes(ideal25)
        except RootNotInField:
            needs_bigger_field.append(gs)
            continue
        assert intersect_all(mps, R25) == radical(ideal25)
        union = set()
        for prime in mps:
            pgens = gens_of(prime)
            for i in vi:
                if i not in union and vanishes(pgens, i):
                    union.add(i)
        assert union == set(vi), f"prime union mismatch for {gs}"

    # components needing GF(5^4): the ideal-level identity is checked there
    F625 = FiniteField(5, 4)
    R625 = Ring(F625, ["x", "y"])
    for gs in needs_bigger_field:
        ideal = to_ideal(R625, gs)
        mps = minimal_primes(ideal)
        assert intersect_all(mps, R625) == radical(ideal)
    frac = len(needs_bigger_field) / len(items)
    assert frac < 0.10
    _finish(
        10,
        t0,
        60,
        f"{len(items)} distinct ideals: varieties agree; "
        f"{len(needs_bigger_field)} needed GF(5^4) and verified there",
    )
