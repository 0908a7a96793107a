"""Randomized property suites.

Each suite runs a few hundred seeded instances; the acceptance module reuses
these functions with its own instance counts.
"""

import random
from fractions import Fraction

from binomials.characters import (
    PartialCharacter,
    character_from_cellular,
    ideal_from_character,
    laurent_primary_decomposition,
)
from binomials.decompose import radical
from binomials.groebner import groebner_basis
from binomials.ideals import Ideal
from binomials.intlattice import Lattice, mat_mul, smith_normal_form, det
from binomials.poly import DEGREVLEX, LEX, Ring
from binomials.scalars import QQ, FiniteField


def random_binomial_ring(rnd, max_vars=4):
    n = rnd.randint(2, max_vars)
    return Ring(QQ, [f"v{i}" for i in range(n)])


def random_binomial(rnd, ring, max_deg=4, coeffs=(1, -1, 2, -2)):
    n = ring.nvars
    while True:
        e1 = tuple(rnd.randint(0, max_deg) for _ in range(n))
        e2 = tuple(rnd.randint(0, max_deg) for _ in range(n))
        c = rnd.choice(coeffs)
        b = ring.monomial(e1) - ring.monomial(e2) * c
        if b.terms:
            return b


# -- suite (a): binomial closure of reduced Groebner bases -------------------


def suite_binomial_gb(instances=200, seed=101):
    rnd = random.Random(seed)
    failures = 0
    for _ in range(instances):
        ring = random_binomial_ring(rnd)
        gens = [random_binomial(rnd, ring) for _ in range(rnd.randint(1, 3))]
        order = rnd.choice([DEGREVLEX, LEX])
        gb = groebner_basis(gens, order, ring)
        if not gb.is_binomial:
            failures += 1
    return failures


def test_suite_binomial_gb():
    assert suite_binomial_gb() == 0


# -- suite (b): lattice saturation identities --------------------------------


def suite_lattice_saturations(instances=200, seed=102):
    rnd = random.Random(seed)
    failures = 0
    for _ in range(instances):
        n = rnd.randint(1, 4)
        rows = [[rnd.randint(-6, 6) for _ in range(n)] for _ in range(rnd.randint(1, n))]
        lat = Lattice(n, rows)
        if not lat.basis:
            continue
        p = rnd.choice([0, 2, 3, 5])
        sat_p, sat_pp, g = lat.p_saturations(p)
        ok = sat_p.intersection(sat_pp) == lat
        ok = ok and sat_p.sum(sat_pp) == lat.saturation()
        if p:
            ok = ok and g % p != 0
            # [Sat_p : L] is a power of p
            _, factors, _ = lat.diagonalized_inclusion(sat_p)
            idx = 1
            for f in factors:
                idx *= f
            while p and idx % p == 0:
                idx //= p
            ok = ok and idx == 1
        # [Sat'_p : L] = g
        _, factors, _ = lat.diagonalized_inclusion(sat_pp)
        idx = 1
        for f in factors:
            idx *= f
        ok = ok and idx == g
        if not ok:
            failures += 1
    return failures


def test_suite_lattice_saturations():
    assert suite_lattice_saturations() == 0


# -- suite (c): character <-> ideal round trip -------------------------------


def suite_character_roundtrip(instances=200, seed=103):
    rnd = random.Random(seed)
    failures = 0
    done = 0
    while done < instances:
        n = rnd.randint(1, 3)
        ring = Ring(QQ, [f"v{i}" for i in range(n)])
        rows = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(rnd.randint(1, n))]
        lat = Lattice(n, rows)
        if not lat.basis:
            continue
        values = tuple(
            rnd.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)])
            for _ in lat.basis
        )
        rho = PartialCharacter(tuple(range(n)), lat, values, QQ)
        ideal = ideal_from_character(ring, rho)
        if ideal.is_unit():
            continue
        done += 1
        back = character_from_cellular(ideal, tuple(range(n)))
        if back != rho:
            failures += 1
    return failures


def test_suite_character_roundtrip():
    assert suite_character_roundtrip() == 0


# -- suite (d): SNF re-verification -------------------------------------------


def suite_snf(instances=200, seed=104):
    rnd = random.Random(seed)
    failures = 0
    for _ in range(instances):
        n, m = rnd.randint(1, 4), rnd.randint(1, 4)
        a = [[rnd.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        u, d, w = smith_normal_form(a)
        ok = mat_mul(u, a) == mat_mul(d, w)
        ok = ok and abs(det(u)) == 1 and abs(det(w)) == 1
        diag = [d[i][i] for i in range(min(n, m))]
        for i in range(len(diag) - 1):
            if diag[i + 1] and (not diag[i] or diag[i + 1] % diag[i]):
                ok = False
        if not ok:
            failures += 1
    return failures


def test_suite_snf():
    assert suite_snf() == 0


# -- suite (e): char-0 unital Laurent ideals are radical ----------------------


def suite_unital_radical(instances=200, seed=105):
    rnd = random.Random(seed)
    failures = 0
    done = 0
    while done < instances:
        n = rnd.randint(1, 3)
        ring = Ring(QQ, [f"v{i}" for i in range(n)])
        rows = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(rnd.randint(1, n))]
        lat = Lattice(n, rows)
        if not lat.basis:
            continue
        values = tuple(rnd.choice([Fraction(1), Fraction(-1)]) for _ in lat.basis)
        rho = PartialCharacter(tuple(range(n)), lat, values, QQ)
        ideal = ideal_from_character(ring, rho)
        if ideal.is_unit() or ideal.is_zero():
            continue
        done += 1
        if radical(ideal) != ideal:
            failures += 1
    return failures


def test_suite_unital_radical():
    assert suite_unital_radical() == 0


# -- suite (f): term-splitting and monomial-membership properties -------------


def suite_monomial_properties(instances=200, seed=106):
    rnd = random.Random(seed)
    failures = 0
    for _ in range(instances):
        ring = random_binomial_ring(rnd, max_vars=3)
        n = ring.nvars
        bgens = [random_binomial(rnd, ring, max_deg=2) for _ in range(rnd.randint(1, 2))]
        b = Ideal(ring, bgens)
        if b.is_unit():
            continue
        mgens = [
            ring.monomial(tuple(rnd.randint(0, 2) for _ in range(n)))
            for _ in range(rnd.randint(1, 2))
        ]
        bm = Ideal(ring, b.gens + tuple(mgens))
        # if f lies in B+M, the sum of its terms not individually in B+M
        # lies in B
        f = ring.zero
        for g in b.gens:
            f = f + g * random_binomial(rnd, ring, max_deg=1)
        for m in mgens:
            f = f + m * random_binomial(rnd, ring, max_deg=1)
        fp = ring.zero
        for e, c in f.terms:
            if not bm.contains(ring.monomial(e)):
                fp = fp + ring.monomial(e, c)
        if not b.contains(fp):
            failures += 1
            continue
        # a monomial in B + (m_1, ..., m_s) lies in some single B + (m_i)
        for _ in range(4):
            e = tuple(rnd.randint(0, 3) for _ in range(n))
            mono = ring.monomial(e)
            if bm.contains(mono):
                if not any(
                    (b + mi).contains(mono) for mi in mgens
                ):
                    failures += 1
                    break
    return failures


def test_suite_monomial_properties():
    assert suite_monomial_properties() == 0


# -- extra: multiplicity data agrees with the lattice index -------------------


def test_laurent_multiplicity_matches_filtration():
    F2 = FiniteField(2)
    rho = PartialCharacter((0,), Lattice(1, [[4]]), (F2.one,), F2)
    dec = laurent_primary_decomposition(rho)
    assert dec["multiplicity"] == 4
    assert len(dec["components"]) == 1
