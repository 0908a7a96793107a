import random
import sys
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from f5_oracle import all_ideal_generating_sets
from binomials.characters import (
    PartialCharacter,
    cell_character,
    character_from_cellular,
    character_prime_ideal,
    character_saturations,
    ideal_from_character,
    laurent_multiplicity,
    laurent_primary_decomposition,
    p_saturation,
)
from binomials import ideals, intlattice
from binomials.decompose import cellular_decomposition
from binomials.errors import InconsistentCharacter, MonomialInIdeal, RootNotInField
from binomials.ideals import (
    Ideal,
    cell_product,
    colon_monomial,
    eliminate,
    intersect_all,
    nonzerodivisor_variables,
    saturate_poly,
    standard_monomials,
)
from binomials.intlattice import Lattice
from binomials.poly import Ring
from binomials.scalars import QQ, CycloField, FiniteField, zeta


def test_ideal_from_character_basics():
    R = Ring(QQ, ["x"])
    rho = PartialCharacter((0,), Lattice(1, [[2]]), (Fraction(1),), QQ)
    assert ideal_from_character(R, rho) == Ideal(R, (R.var(0) ** 2 - 1,))
    R2 = Ring(QQ, ["x", "y"])
    rho2 = PartialCharacter((0, 1), Lattice(2, [[1, -1]]), (Fraction(1),), QQ)
    assert ideal_from_character(R2, rho2) == Ideal(R2, (R2.var(0) - R2.var(1),))


def test_ideal_from_character_needs_saturation():
    # the basis binomials alone do not generate the lattice ideal: the
    # degree-7 curve kernel needs the saturation step
    R = Ring(QQ, ["a", "b", "c", "d"])
    lat = Lattice.kernel_of([[7, 5, 2, 0], [0, 2, 5, 7]])
    rho = PartialCharacter((0, 1, 2, 3), lat, (Fraction(1),) * 2, QQ)
    P = ideal_from_character(R, rho)
    basis_only = Ideal(
        R,
        tuple(
            R.monomial(tuple(max(x, 0) for x in row))
            - R.monomial(tuple(max(-x, 0) for x in row))
            for row in lat.basis
        ),
    )
    assert P.contains(basis_only)
    assert not basis_only.contains(P)
    # P is prime: its character on all four variables is the saturated lat
    back = character_from_cellular(P, (0, 1, 2, 3))
    assert back.lattice == lat and back.is_saturated()
    assert character_prime_ideal(R, back) == P


def test_character_roundtrip(checked):
    R = Ring(QQ, ["x"])
    rho = PartialCharacter((0,), Lattice(1, [[2]]), (Fraction(1),), QQ)
    I = ideal_from_character(R, rho)
    assert character_from_cellular(I, (0,)) == rho


def test_roundtrip_randomized():
    rnd = random.Random(21)
    for _ in range(40):
        n = rnd.randint(1, 3)
        R = Ring(QQ, [f"v{i}" for i in range(n)])
        rows = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(rnd.randint(1, n))]
        lat = Lattice(n, rows)
        if not lat.basis:
            continue
        vals = tuple(rnd.choice([Fraction(1), Fraction(-1), Fraction(2)]) for _ in lat.basis)
        rho = PartialCharacter(tuple(range(n)), lat, vals, QQ)
        I = ideal_from_character(R, rho)
        if I.is_unit():
            continue
        back = character_from_cellular(I, tuple(range(n)))
        assert back == rho


def _basis_ideal(ring, rho):
    """The ideal of the basis binomials x^(m+) − rho(m)·x^(m−), unsaturated."""
    gens = []
    for row, val in zip(rho.lattice.basis, rho.values):
        plus, minus = [0] * ring.nvars, [0] * ring.nvars
        for v, x in zip(rho.cell, row):
            (plus if x > 0 else minus)[v] = abs(x)
        gens.append(ring.monomial(tuple(plus)) - ring.monomial(tuple(minus)) * val)
    return Ideal(ring, gens)


def test_ideal_from_character_vs_saturation(checked):
    # reference: (basis binomials : (∏ cell)^∞) by an explicit saturation, on
    # every rank from 0 to |cell| and cells of 1 to 3 of up to 4 variables
    F25 = FiniteField(5, 2)
    fields = [
        (QQ, [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)]),
        (CycloField(6), [zeta(6, j) for j in range(6)] + [Fraction(2)]),
        (FiniteField(2), FiniteField(2).elements()[1:]),
        (FiniteField(5), FiniteField(5).elements()[1:]),
        (F25, F25.elements()[1:]),
    ]
    rnd = random.Random(12)
    grew = 0
    for field, units in fields:
        for size in (1, 2, 3):
            for rank in range(size + 1):
                for _ in range(4):
                    n = rnd.randint(size, 4)
                    R = Ring(field, [f"v{i}" for i in range(n)])
                    cell = tuple(sorted(rnd.sample(range(n), size)))
                    lat = Lattice(size)
                    while lat.rank != rank:
                        rows = [[rnd.randint(-3, 3) for _ in cell] for _ in range(rank)]
                        lat = Lattice(size, rows)
                    vals = tuple(rnd.choice(units) for _ in lat.basis)
                    rho = PartialCharacter(cell, lat, vals, field)
                    base = _basis_ideal(R, rho)
                    ref = saturate_poly(base, cell_product(R, cell))
                    assert ideal_from_character(R, rho) == ref, rho
                    grew += ref != base
    # some partial-rank basis ideals are not saturated, so the kept
    # saturation is exercised
    assert grew


def _partial_rank_characters(rnd, field, units, count, sizes, bound):
    """`count` seeded characters with 2 ≤ rank < |cell| on cells of the
    given sizes, in rings of up to one variable more than the cell."""
    for _ in range(count):
        size = rnd.choice(sizes)
        rank = rnd.randint(2, size - 1)
        R = Ring(field, [f"v{i}" for i in range(rnd.randint(size, size + 1))])
        cell = tuple(sorted(rnd.sample(range(R.nvars), size)))
        lat = Lattice(size)
        while lat.rank != rank:
            lat = Lattice(size, [[rnd.randint(-bound, bound) for _ in cell] for _ in range(rank)])
        yield R, PartialCharacter(cell, lat, tuple(rnd.choice(units) for _ in lat.basis), field)


def test_partial_rank_saturation_at_free_variables(checked, monkeypatch):
    # J : (∏ cell)^∞ for 2 ≤ rank < |cell| is J : (∏ free)^∞, taken on the
    # colon tree: the same ideal as the auxiliary-variable saturation by the
    # whole cell, with every cell variable a nonzerodivisor, and no
    # auxiliary-variable saturation is run for it
    reference = ideals.saturate_poly
    calls = []
    monkeypatch.setattr(ideals, "saturate_poly", lambda *args: calls.append(args) or reference(*args))
    fields = [
        (QQ, [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)]),
        (FiniteField(5), FiniteField(5).elements()[1:]),
        (FiniteField(7), FiniteField(7).elements()[1:]),
        (CycloField(6), [zeta(6, j) for j in range(6)] + [Fraction(2)]),
    ]
    rnd = random.Random(15)
    cases = grew = ungraded = 0
    for field, units in fields:
        for R, rho in _partial_rank_characters(rnd, field, units, 30, (3, 4), 3):
            got = ideal_from_character(R, rho)
            assert not calls, rho
            assert set(rho.cell) <= set(nonzerodivisor_variables(got)), rho
            base = _basis_ideal(R, rho)
            ref = reference(base, cell_product(R, rho.cell))
            assert got.key() == ref.key(), rho
            cases += 1
            grew += ref.key() != base.key()
            ungraded += any(min(r) >= 0 or max(r) <= 0 for r in rho.lattice.basis)
    assert cases >= 100
    # the saturation is needed in some cases, and some lattices hold a
    # nonnegative basis vector, so are not positively graded
    assert grew and ungraded


def test_partial_rank_lattice_ideals_vs_sympy():
    # independent oracle: sympy's lex basis of J + (t·∏cell − 1) with t
    # first, its elements free of t reduced in grevlex
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(1)
    grew = 0
    for R, rho in _partial_rank_characters(rnd, QQ, [Fraction(1), Fraction(-1), Fraction(2)], 8, (3, 4), 2):
        xs = sympy.symbols(R.names)
        t = sympy.Symbol("t")

        def to_sympy(gens):
            return sorted((sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(
                x**k for x, k in zip(xs, e)) for e, c in g.terms) for g in gens), key=str)

        base = _basis_ideal(R, rho)
        cell = sympy.prod(xs[v] for v in rho.cell)
        lex = sympy.groebner(to_sympy(base.gens) + [t * cell - 1], t, *xs, order="lex", domain="QQ")
        want = sympy.groebner([g for g in lex.exprs if not g.has(t)], *xs, order="grevlex", domain="QQ")
        want = sorted(want.exprs, key=str)
        assert to_sympy(ideal_from_character(R, rho).gb()) == want, rho
        grew += to_sympy(base.gb()) != want
    assert grew


def test_character_from_cellular_monomial_error():
    R = Ring(QQ, ["x", "y"])
    with pytest.raises(MonomialInIdeal):
        character_from_cellular(Ideal(R, (R.var(0),)), (0, 1))


def _product_of_powers(field, exponents, values):
    acc = field.one
    for a, v in zip(exponents, values):
        acc = acc * v**a
    return acc


def test_character_well_definedness_check():
    with pytest.raises(ValueError):
        PartialCharacter.from_generators(
            (0, 1),
            [[1, -1], [2, -2]],
            [Fraction(1), Fraction(-1)],  # (2,-2) = 2*(1,-1) but -1 != 1^2
            QQ,
        )
    # differential against the relations kernel(transpose(vectors)):
    # dependent generators valued through a base, consistently or with one
    # value moved off by a non-root of unity
    rng = random.Random(14)
    F7 = FiniteField(7)
    pools = [(QQ, [Fraction(2), Fraction(-1, 3), Fraction(5), Fraction(-1)]),
             (F7, [F7.scalar(c) for c in range(1, 7)])]
    seen = set()
    for _ in range(300):
        field, pool = rng.choice(pools)
        n = rng.randint(1, 3)
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        base_values = [rng.choice(pool) for _ in base]
        vectors, values = [], []
        for _ in range(rng.randint(1, 4)):
            coefs = [rng.randint(-2, 2) for _ in base]
            vectors.append([sum(a * b[i] for a, b in zip(coefs, base)) for i in range(n)])
            values.append(_product_of_powers(field, coefs, base_values))
        if rng.random() < 0.5:
            j = rng.randrange(len(values))
            values[j] = values[j] * pool[0] if field is QQ else values[j] * F7.scalar(3)
        relations = intlattice.kernel(intlattice.transpose(vectors))
        consistent = all(_product_of_powers(field, a, values) == field.one for a in relations)
        cell = tuple(range(n))
        if consistent:
            rho = PartialCharacter.from_generators(cell, vectors, values, field)
            assert rho.lattice == Lattice(n, vectors), (vectors, values)
            assert all(rho.value(v) == c for v, c in zip(vectors, values)), (vectors, values)
        else:
            with pytest.raises(InconsistentCharacter):
                PartialCharacter.from_generators(cell, vectors, values, field)
        seen.add((consistent, bool(relations)))
    assert seen == {(True, True), (True, False), (False, True)}


def test_character_saturations_char0():
    rho = PartialCharacter((0,), Lattice(1, [[2]]), (Fraction(1),), QQ)
    rho_p, sats = p_saturation(rho), character_saturations(rho)
    assert rho_p == rho  # Sat_0(L) = L
    assert {s.values[0] for s in sats} == {Fraction(1), Fraction(-1)}
    # saturated character: extensions are itself
    sat = PartialCharacter((0,), Lattice(1, [[1]]), (Fraction(5),), QQ)
    assert character_saturations(sat) == [sat]


def test_character_saturations_char2():
    F2 = FiniteField(2)
    rho = PartialCharacter((0,), Lattice(1, [[2]]), (F2.one,), F2)
    rho_p, sats = p_saturation(rho), character_saturations(rho)
    assert rho_p.lattice == Lattice.full(1) and rho_p.values[0] == F2.one
    assert len(sats) == 1


def test_laurent_primary_decomposition_multiplicity():
    F2 = FiniteField(2)
    rho2 = PartialCharacter((0,), Lattice(1, [[2]]), (F2.one,), F2)
    dec = laurent_primary_decomposition(rho2)
    assert dec["multiplicity"] == 2 and len(dec["components"]) == 1
    rho0 = PartialCharacter((0,), Lattice(1, [[2]]), (Fraction(1),), QQ)
    dec0 = laurent_primary_decomposition(rho0)
    assert dec0["multiplicity"] == 1 and len(dec0["components"]) == 2


def test_laurent_decomposition_diagonalizes_the_lattice_once():
    # one Smith form of the basis serves p_saturations, saturation() and the
    # multiplicity; the only other one is extend_all's diagonalized inclusion
    F5 = FiniteField(5)
    rho = PartialCharacter((0, 1), Lattice(2, [[10, -4]]), (F5.scalar(4),), F5)
    with mock.patch.object(intlattice, "smith_normal_form",
                           side_effect=intlattice.smith_normal_form) as snf:
        dec = laurent_primary_decomposition(rho)
    inputs = [call.args[0] for call in snf.call_args_list]
    assert inputs.count([[10, -4]]) == 1 and len(inputs) == 2
    assert dec["multiplicity"] == 1 and len(dec["components"]) == 2
    w, factors = rho.lattice.diagonal_data()
    assert isinstance(w, tuple) and all(isinstance(row, tuple) for row in w)
    assert factors == (2,) and rho.lattice.diagonal_data() is rho.lattice.diagonal_data()


def test_laurent_multiplicity_matches_inclusion_index():
    # [Sat_p(L) : L] read off L's own factors equals the index of the
    # diagonalized inclusion L ⊆ Sat_p(L)
    rnd = random.Random(14)
    fields = [QQ, FiniteField(2), FiniteField(3), FiniteField(5)]
    for _ in range(150):
        n = rnd.randint(1, 4)
        rows = [[rnd.randint(-8, 8) for _ in range(n)] for _ in range(rnd.randint(1, n))]
        lat = Lattice(n, rows)
        field = rnd.choice(fields)
        rho = PartialCharacter(tuple(range(n)), lat, (field.one,) * lat.rank, field)
        sat_p, _, _ = lat.p_saturations(field.char)
        _, factors, _ = lat.diagonalized_inclusion(sat_p)
        index = 1
        for f in factors:
            index *= f
        assert laurent_multiplicity(rho) == index


def test_laurent_intersection_identity():
    # I_+(rho) = ∩_j I_+(rho_j) for the extensions (char 0 keeps all comps)
    R = Ring(QQ, ["x", "y"])
    rho = PartialCharacter((0, 1), Lattice(2, [[2, -2]]), (Fraction(1),), QQ)
    I = ideal_from_character(R, rho)
    dec = laurent_primary_decomposition(rho)
    comps = [ideal_from_character(R, c) for c in dec["components"]]
    assert intersect_all(comps, R) == I


def test_char0_laurent_radicality():
    # unital saturated ideals are radical in char 0: I equals the
    # intersection of its associated primes
    R = Ring(QQ, ["x", "y"])
    rho = PartialCharacter((0, 1), Lattice(2, [[3, -3]]), (Fraction(1),), QQ)
    I = ideal_from_character(R, rho)
    dec = laurent_primary_decomposition(rho)
    primes = [ideal_from_character(R, c) for c in dec["associated_primes"]]
    assert intersect_all(primes, R) == I


def test_extension_field_requirements():
    F5 = FiniteField(5)
    rho = PartialCharacter((0,), Lattice(1, [[3]]), (F5.one,), F5)
    with pytest.raises(RootNotInField):
        character_saturations(rho)  # needs cube roots of unity, 3 | 24 fails


def test_is_prime_character():
    assert PartialCharacter((0,), Lattice(1, [[1]]), (Fraction(7),), QQ).is_saturated()
    assert not PartialCharacter((0,), Lattice(1, [[2]]), (Fraction(1),), QQ).is_saturated()


def test_lattice_ideal_codimension():
    # codim I_+(rho) localized off the axes = rank(L): verified via the
    # number of reduced GB elements in the Laurent-regular situation
    R = Ring(QQ, ["x", "y", "z"])
    rho = PartialCharacter(
        (0, 1, 2), Lattice(3, [[1, -1, 0], [0, 2, -2]]), (Fraction(1), Fraction(1)), QQ
    )
    I = ideal_from_character(R, rho)
    back = character_from_cellular(I, (0, 1, 2))
    assert back.lattice.rank == 2
    # independent sets: {z} alone is free mod I, so dim >= 1 = 3 - rank
    assert not I.contains(R.var(2) ** 2 - R.var(2))


def test_extension_enumeration_deterministic():
    rho = PartialCharacter((0,), Lattice(1, [[3]]), (Fraction(1),), QQ)
    sats_a = character_saturations(rho)
    sats_b = character_saturations(rho)
    assert [s.key() for s in sats_a] == [s.key() for s in sats_b]
    assert sats_a[0].values[0] == 1  # first extension picks the trivial root
    assert all(s.values[0] ** 3 == 1 for s in sats_a)


def test_rotation_ideal_full_torus_character():
    # saturating the rotation ideal with respect to every variable gives a
    # rank-3 lattice in Z^4 whose (0,0,0,3) vector carries value 1: y^3 = 1
    R = Ring(QQ, ["x1", "x2", "x3", "y"])
    x1, x2, x3, y = (R.var(i) for i in range(4))
    I = Ideal(R, (x1 - y * x2, x2 - y * x3, x3 - y * x1))
    rho = character_from_cellular(I, (0, 1, 2, 3))
    assert rho.lattice.rank == 3
    assert [0, 0, 0, 3] in rho.lattice
    assert rho.value((0, 0, 0, 3)) == Fraction(1)
    assert [0, 0, 0, 1] not in rho.lattice


def _saturated_cell_character(ideal, cell):
    """Reference for cell_character: set the off-cell variables to zero,
    saturate by the cell product with an auxiliary-variable Groebner run,
    read rho off the saturated basis, which involves only the cell."""
    ring = ideal.ring
    off = [v for v in range(ring.nvars) if v not in cell]
    restricted = Ideal(ring, [g.substitute_zero(off) for g in ideal.gens])
    sat = saturate_poly(restricted, cell_product(ring, cell))
    if sat.is_unit():
        return None
    vectors, values = [], []
    for g in sat.gb():
        (ea, ca), (eb, cb) = g.terms
        vectors.append(tuple(ea[v] - eb[v] for v in cell))
        values.append(-(cb / ca))
    return PartialCharacter.from_generators(cell, vectors, values, ring.field)


def _random_binomial_sets(rng, ring, count):
    n = ring.nvars
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)]
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.choice((2, 3))):
            a = tuple(rng.randrange(3) for _ in range(n))
            b = tuple(rng.randrange(3) for _ in range(n))
            g = ring.monomial(a) - ring.monomial(b, rng.choice(coeffs))
            if g.terms:
                gens.append(g)
        out.append(Ideal(ring, gens))
    return out


def test_cell_character_matches_saturation():
    F5 = FiniteField(5)
    R5 = Ring(F5, ["x", "y"])
    rng = random.Random(2)
    ideals = []
    for gs in rng.sample(all_ideal_generating_sets(), 60):
        polys = []
        for (e1, c1, e2, c2) in gs:
            p = R5.monomial(e1, c1)
            if e2 is not None:
                p = p + R5.monomial(e2, c2)
            polys.append(p)
        ideals.append(Ideal(R5, polys))
    R3 = Ring(QQ, ["x", "y", "z"])
    ideals += _random_binomial_sets(rng, R3, 15)
    x, y, z = (R3.var(i) for i in range(3))
    ideals.append(Ideal(R3, (x**2 - y**2, x * y - 1, z * x - z * y)))
    units = proper = 0
    for ideal in ideals:
        n = ideal.ring.nvars
        for size in range(n + 1):
            for cell in combinations(range(n), size):
                expected = _saturated_cell_character(ideal, cell)
                got = cell_character(ideal.gb().polys, cell, ideal.ring.field)
                assert got == expected, (ideal, cell)
                if got is None:
                    units += 1
                else:
                    proper += 1
    assert units and proper
    # a Groebner basis meets a monomial first; other binomial generating
    # sets can reach the unit ideal through values that clash on a
    # relation: (2,-2) = 2*(1,-1) but 2 != 1^2
    R2 = Ring(QQ, ["x", "y"])
    x, y = R2.var(0), R2.var(1)
    assert cell_character([x - y, x**2 - 2 * y**2], (0, 1), QQ) is None
    assert cell_character([x - y, x**2 - y**2], (0, 1), QQ) is not None


def test_character_from_cellular_matches_elimination():
    # on a cellular ideal the reduced degrevlex basis and an elimination
    # basis give the same character, and the basis elements on the cell
    # generate the same ideal as I ∩ k[cell]; so do the witness colons
    rng = random.Random(19)
    cellular = colons = 0
    for field in (QQ, FiniteField(5), FiniteField(7), CycloField(6)):
        R = Ring(field, ["x", "y", "z"])
        one = field.one
        coeffs = [one, -one, one + one] + ([zeta(6)] if isinstance(field, CycloField) else [])
        start = cellular
        while cellular - start < 25:
            gens = []
            for _ in range(rng.choice((2, 3))):
                a = tuple(rng.randrange(3) for _ in range(3))
                b = tuple(rng.randrange(3) for _ in range(3))
                gens.append(R.monomial(a) - R.monomial(b, rng.choice(coeffs)))
            for comp in cellular_decomposition(Ideal(R, gens)):
                j, cell = comp.ideal, comp.cell
                off = [v for v in range(3) if v not in cell]
                stand, _ = standard_monomials(j, off)
                for m in stand:  # m = 0 is j itself
                    im = colon_monomial(j, R.monomial(m))
                    elim = eliminate(im, cell)
                    want = cell_character(elim.gens, cell, field)
                    assert character_from_cellular(im, cell).key() == want.key(), (im, cell)
                    on_cell = [g for g in im.gb().polys if not g.involves(off)]
                    assert Ideal(R, on_cell) == elim, (im, cell)
                    colons += 1
                cellular += 1
    assert cellular >= 100 and colons > cellular, (cellular, colons)


def test_character_from_cellular_runs_no_groebner_basis(monkeypatch):
    # (x^2, y - z) is cellular on {y, z}: its cached basis is all it reads
    R = Ring(QQ, ["x", "y", "z"])
    x, y, z = (R.var(i) for i in range(3))
    I = Ideal(R, (x**2, y - z))
    I.gb()
    runs = []
    real = ideals.groebner_basis
    monkeypatch.setattr(ideals, "groebner_basis", lambda *args: runs.append(args) or real(*args))
    rho = character_from_cellular(I, (1, 2))
    assert rho.lattice.basis == ((1, -1),) and rho.values == (QQ.one,)
    assert runs == []
