import random
from math import lcm
from unittest import mock

import pytest

from binomials import ideals
from binomials.decompose import associated_prime_characters, is_cellular, primary_test
from binomials.errors import InfiniteStandardSet, NonzerodivisorViolated, NotTwoTerm
from binomials.ideals import (
    Ideal,
    cell_product,
    cellular_localize,
    check_nonzerodivisor_lead,
    colon_monomial,
    colon_poly,
    colon_quasipower,
    colon_quasipower_ratio,
    divide_exact,
    eliminate,
    homogenize,
    intersect,
    intersect_all,
    nonzerodivisor_variables,
    quasi_power,
    quasi_power_ratio,
    saturate_monomial,
    saturate_poly,
    saturation_order,
    standard_monomials,
)
from binomials.poly import Ring
from binomials.scalars import QQ, CycloField, FiniteField


@pytest.fixture
def rxy():
    return Ring(QQ, ["x", "y"])


def test_eliminate_examples(rxy):
    x, y = rxy.var(0), rxy.var(1)
    assert eliminate(Ideal(rxy, (x - y,)), [0]).is_zero()
    R3 = Ring(QQ, ["x", "y", "s"])
    xs, ys, s = (R3.var(i) for i in range(3))
    E = eliminate(Ideal(R3, (xs - s**2, ys - s**3)), [0, 1])
    assert E == Ideal(R3, (xs**3 - ys**2,))


def test_eliminate_recovers_lattice_ideal_from_mixed_set():
    # eliminating the inverse variables recovers the cell ideal's generators
    R = Ring(QQ, ["x", "u"])  # u plays x^{-1}
    x, u = R.var(0), R.var(1)
    I = Ideal(R, (x * u - 1, x * x - 1))
    E = eliminate(I, [0])
    assert E == Ideal(R, (x**2 - 1,))


def test_saturate_and_colon_monomial(rxy):
    x, y = rxy.var(0), rxy.var(1)
    I = Ideal(rxy, (x * x - x * y,))
    S = saturate_monomial(I, x)
    assert S == Ideal(rxy, (x - y,))
    assert colon_monomial(Ideal(rxy, (x * x,)), x) == Ideal(rxy, (x,))
    assert saturate_monomial(S, x) == S  # idempotent
    C = colon_monomial(I, x)
    assert S.contains(C) and C.contains(I)  # (I:m^inf) ⊇ (I:m) ⊇ I
    assert C.is_binomial() and S.is_binomial()  # monomial colons preserve binomiality


def test_cell_ideal_of_union():
    # the cell ideal ((I + M(Z)) : (prod x_i)^inf) recovers one hyperbola
    R = Ring(QQ, ["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = (R.var(i) for i in range(4))
    union = Ideal(R, (
        x1**2 * x2 - x1, x1 * x2**2 - x2, x3**2 * x4 - x3, x3 * x4**2 - x4,
        x1 * x3, x1 * x4, x2 * x3, x2 * x4,
    ))
    with_m = union + (x3, x4)
    cell = saturate_monomial(with_m, x1 * x2)
    assert cell == Ideal(R, (x1 * x2 - 1, x3, x4))


def test_intersection_examples():
    R = Ring(QQ, ["a", "b", "x1", "x2", "x3", "x4"])
    a, b, x1, x2, x3, x4 = (R.var(i) for i in range(6))
    primes = [
        Ideal(R, (a, b)),
        Ideal(R, (a, x1 - x4, x2 - x3)),
        Ideal(R, (b, x1 - x3, x2 - x4)),
        Ideal(R, (x2 - x3, x3 - x4, x1 - x4)),
    ]
    I18 = Ideal(R, (a * x1 - a * x3, a * x2 - a * x4, b * x1 - b * x4, b * x2 - b * x3))
    assert intersect_all(primes, R) == I18
    assert intersect(I18, I18) == I18
    assert intersect(I18, primes[0]).contains(I18)
    unit = Ideal(R, (R.one,))
    assert intersect(I18, unit) is I18 and intersect(unit, primes[1]) is primes[1]
    assert intersect_all([primes[0], unit], R) is primes[0]


def test_union_of_two_hyperbolas_and_origin():
    R = Ring(QQ, ["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = (R.var(i) for i in range(4))
    I1 = Ideal(R, (x1 * x2 - 1, x3, x4))
    I2 = Ideal(R, (x1, x2, x3 * x4 - 1))
    I3 = Ideal(R, (x1, x2, x3, x4))
    union = intersect_all([I1, I2, I3], R)
    expected = Ideal(R, (
        x1**2 * x2 - x1, x1 * x2**2 - x2, x3**2 * x4 - x3, x3 * x4**2 - x4,
        x1 * x3, x1 * x4, x2 * x3, x2 * x4,
    ))
    assert union == expected
    both = intersect(I1, I2)
    assert not both.is_binomial()
    # coloning (x1, x4) out of the union leaves the non-binomial pair
    col = intersect(colon_poly(expected, x1), colon_poly(expected, x4))
    assert col == both
    assert not col.is_binomial()


def test_homogenize(rxy):
    x, y = rxy.var(0), rxy.var(1)
    H = homogenize(Ideal(rxy, (x - rxy.one,)))
    rh = H.ring
    assert H == Ideal(rh, (rh.var(0) - rh.var(2),))
    H2 = homogenize(Ideal(rxy, (x * x - y,)))
    rh2 = H2.ring
    assert H2 == Ideal(rh2, (rh2.var(0) ** 2 - rh2.var(1) * rh2.var(2),))


def test_homogenize_nonbinomial_union():
    R = Ring(QQ, ["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = (R.var(i) for i in range(4))
    I1 = Ideal(R, (x1 * x2 - 1, x3, x4))
    I2 = Ideal(R, (x1, x2, x3 * x4 - 1))
    both = intersect(I1, I2)
    H = homogenize(both)
    assert not H.is_binomial()
    assert all(len({sum(e) for e, _ in g.terms}) == 1 for g in H.gens)


def test_homogenization_is_kept_on_the_ideal():
    # is_cellular and the saturation exponents share I^h and its revlex bases
    R = Ring(QQ, ["x1", "x2", "x3"])
    w1, w2, w3 = (R.var(i) for i in range(3))
    I = Ideal(R, (w1 * w1, w1 * w2 - w1 * w3))
    with mock.patch.object(ideals, "groebner_basis", side_effect=ideals.groebner_basis) as gb:
        assert is_cellular(I) == (True, (1, 2))
        runs = gb.call_count
        assert [saturation_order(I, v) for v in range(3)] == [2, 0, 0]
    # one degrevlex basis of I, then one revlex basis of I^h per variable
    assert runs == 4 and gb.call_count == runs
    assert homogenize(I) is homogenize(I)


def test_quasi_power(rxy):
    x, y = rxy.var(0), rxy.var(1)
    assert quasi_power(x - y, 3) == x**3 - y**3
    assert quasi_power(y - rxy.one, 3) == y**3 - rxy.one
    assert quasi_power(x - 2 * y, 2) == x * x - 4 * y * y
    assert quasi_power(x - y, 4) == quasi_power(quasi_power(x - y, 2), 2)
    with pytest.raises(NotTwoTerm):
        quasi_power(x, 2)
    # divisibility law b^[d] | b^[e] when d | e
    b = x**2 - 3 * y
    assert divide_exact(quasi_power(b, 6), quasi_power(b, 2)) is not None


def test_quasi_power_ratio(rxy):
    x, y = rxy.var(0), rxy.var(1)
    assert quasi_power_ratio(x - y, 3, 1) == x * x + x * y + y * y
    b = x - 2 * y
    assert quasi_power_ratio(b, 4, 2) * quasi_power(b, 2) == quasi_power(b, 4)


@pytest.fixture
def rotation_ideal():
    R = Ring(QQ, ["x1", "x2", "x3", "y"])
    x1, x2, x3, y = (R.var(i) for i in range(4))
    I = Ideal(R, (x1 - y * x2, x2 - y * x3, x3 - y * x1))
    return R, I, (x1, x2, x3, y)


def test_rotation_colon_by_binomial_not_binomial(rotation_ideal):
    R, I, (x1, x2, x3, y) = rotation_ideal
    col = colon_poly(I, R.one - y)
    assert not col.is_binomial()
    expected = Ideal(R, (
        x1 + x2 + x3,
        x2**2 + x2 * x3 + x3**2,
        x2 * y + x2 + x3,
        x3 * y - x2,
    ))
    assert col == expected


def _stabilized_quasipower_colon(i, b):
    """(I : b^[d]) for the first d = lcm(1..k) at which the colon-square
    certificate holds: (I:b^[d]) = (I:(b^[d])²) = (I:b^[2d]) = (I:b^[3d])."""
    for k in range(1, 8):
        d = lcm(*range(1, k + 1))
        j, _ = colon_quasipower(i, b, d)
        if all(colon_poly(i2, quasi_power(b, e)) == j
               for i2, e in ((j, d), (i, 2 * d), (i, 3 * d))):
            return j, d
    raise AssertionError("the quasi-power colon did not stabilize")


def test_rotation_quasipower_colon(rotation_ideal):
    R, I, (x1, x2, x3, y) = rotation_ideal
    J, d = colon_quasipower(I, y - R.one, d=3)
    assert J == Ideal(R, (x1, x2, x3)) and d == 3
    J2, d2 = _stabilized_quasipower_colon(I, y - R.one)
    assert J2 == Ideal(R, (x1, x2, x3)) and d2 == 6
    # nonzerodivisor b: colon is the identity
    J3, _ = colon_quasipower(Ideal(R, (x1 - x2,)), y - 2 * x3, d=2)
    assert J3 == Ideal(R, (x1 - x2,))


def test_rotation_ratio_colon(rotation_ideal):
    R, I, (x1, x2, x3, y) = rotation_ideal
    out = colon_quasipower_ratio(I, y - R.one, 3, 1)
    assert out == Ideal(R, (x1 - x3, x2 - x3, x3 * y - x3))
    assert colon_quasipower_ratio(I, y - R.one, 3, 3) is I
    # cross-check against a general-colon oracle on the explicit ratio
    g = quasi_power_ratio(y - R.one, 3, 1)
    assert colon_poly(I, g) == out


def test_zerodivisor_lead_rejected():
    R = Ring(QQ, ["x", "y", "z", "u", "v"])
    x, y, z, u, v = (R.var(i) for i in range(5))
    I = Ideal(R, (u * x - u * y, u * z - v * x, v * y - v * z))
    with pytest.raises(NonzerodivisorViolated):
        colon_quasipower(I, u - v, 1)
    # the quotient is constant in d and not binomial
    for d in (1, 2, 3):
        q = colon_poly(I, quasi_power(u - v, d))
        assert q == Ideal(R, (x - y + z, u * z, y * z - z * z, v * y - v * z))
        assert not q.is_binomial()


def test_colon_square_stabilization(rotation_ideal):
    R, I, (x1, x2, x3, y) = rotation_ideal
    b = y - R.one
    J, d = _stabilized_quasipower_colon(I, b)
    bd = quasi_power(b, d)
    assert colon_poly(J, bd) == J  # (I : b^[d]) = (I : (b^[d])^2)


def test_cellular_localize():
    R = Ring(QQ, ["x", "y"])
    x, y = R.var(0), R.var(1)
    P = Ideal(R, (x - y,))
    assert cellular_localize(P, [0, 1], (1, 1)) == P
    J = cellular_localize(Ideal(R, (x * x - x * y,)), [0], (1, 2))
    assert J.contains(x - y) and J.contains(y * y)


def test_saturation_exponent(rxy):
    x, y = rxy.var(0), rxy.var(1)
    I = Ideal(rxy, (x**3 - x * y * y,))
    assert saturation_order(I, 0) == 1
    I2 = Ideal(rxy, (x**3 * (x - y),))
    assert saturation_order(I2, 0) == 3


# -- the aux-variable definitions the Bayer–Stillman colons replaced ---------


def _colon_by_intersection(I, m):
    """(I : m) = (I ∩ (m)) / m."""
    w = intersect(I, Ideal(I.ring, (m,)))
    return Ideal(I.ring, tuple(divide_exact(g, m) for g in w.gens))


def _saturation_exponent_by_iteration(I, xv, bound=12):
    target = saturate_poly(I, xv)
    cur, k = I, 0
    while cur != target:
        cur = _colon_by_intersection(cur, xv)
        k += 1
        assert k <= bound
    return k


def _random_binomial_ideal(rnd, R):
    n = R.nvars
    gens = []
    for _ in range(rnd.randint(1, 3)):
        a = tuple(rnd.randint(0, 3) for _ in range(n))
        b = tuple(rnd.randint(0, 2) for _ in range(n))
        g = R.monomial(a)
        if rnd.random() < 0.85:  # otherwise a monomial generator
            g = g - R.monomial(b, rnd.choice([1, -1, 2, 3]))
        gens.append(g)
    return Ideal(R, gens)


def test_monomial_colons_vs_intersection_route(checked):
    rnd = random.Random(8)
    rings = [
        Ring(field, [f"x{i}" for i in range(n)])
        for field in (QQ, FiniteField(5))
        for n in (2, 3, 4)
    ]
    inputs = []
    for R in rings:  # the zero and the unit ideal
        inputs += [Ideal(R), Ideal(R, (R.one,)), Ideal(R, (R.var(0) - R.one,))]
    while len(inputs) < 150:
        inputs.append(_random_binomial_ideal(rnd, rnd.choice(rings)))
    inhomogeneous = 0
    for I in inputs:
        R = I.ring
        n = R.nvars
        inhomogeneous += any(
            len({sum(e) for e, _ in g.terms}) > 1 for g in I.gens
        )
        e = [0] * n
        for v in rnd.sample(range(n), rnd.randint(1, 2)):
            e[v] = rnd.randint(1, 3)
        m = R.monomial(tuple(e))
        assert colon_monomial(I, m).key() == _colon_by_intersection(I, m).key(), (I, m)
        v = rnd.randrange(n)
        assert saturation_order(I, v) == _saturation_exponent_by_iteration(I, R.var(v)), (I, v)
        nzd = tuple(v for v in range(n) if _colon_by_intersection(I, R.var(v)) == I)
        assert nonzerodivisor_variables(I) == nzd, I
        b = R.monomial(tuple(e)) - R.monomial((0,) * n, 2)
        if set(v for v in range(n) if e[v]) <= set(nzd):
            check_nonzerodivisor_lead(I, b)
        else:
            with pytest.raises(NonzerodivisorViolated):
                check_nonzerodivisor_lead(I, b)
    assert inhomogeneous > 100


def _curve_pieces():
    """The (a)- and (d)-cellular pieces of criterion 3's curve, with the
    variables off their cells."""
    R = Ring(QQ, ["a", "b", "c", "d"])
    a, b, c, d = (R.var(i) for i in range(4))
    return [
        (Ideal(R, (b**2 * c**2 - a**2 * d**2, b**5 - a**3 * c**2,
                   b**2 * d**2, c**4, c**2 * d**2, d**4)), (1, 2, 3)),
        (Ideal(R, (b**2 * c**2 - a**2 * d**2, c**5 - b**2 * d**3,
                   a**2 * c**2, b**4, a**2 * b**2, a**4)), (0, 1, 2)),
    ]


def test_colon_tree_on_curve_pieces_vs_intersection_route(checked):
    # the witness colons of criterion 3's curve: walk the standard-monomial
    # tree of its (a)- and (d)-cellular pieces, old route one variable a step
    for I, off in _curve_pieces():
        R = I.ring
        stand, _ = standard_monomials(I, off)
        assert len(stand) > 20
        old = {(0,) * 4: I}
        for m in stand:  # sorted by degree, so each parent comes first
            v = next(i for i, x in enumerate(m) if x) if any(m) else None
            if v is not None:
                parent = tuple(x - (i == v) for i, x in enumerate(m))
                old[m] = _colon_by_intersection(old[parent], R.var(v))
            assert colon_monomial(I, R.monomial(m)).key() == old[m].key(), m


def test_primary_test_reuses_the_colon_tree_of_its_ideal():
    # the witness colons of associated_prime_characters stay on the Ideal, so
    # the primary test of the same object runs no Groebner basis on I^h's ring
    for I, off in _curve_pieces():
        cell = tuple(v for v in range(I.ring.nvars) if v not in off)
        with mock.patch.object(ideals, "groebner_basis", side_effect=ideals.groebner_basis) as gb:
            associated_prime_characters(I, cell)
            first = gb.call_count
            primary_test(I, cell)
        rh = homogenize(I).ring
        on_rh = [k for k, call in enumerate(gb.call_args_list) if call.args[2] == rh]
        assert on_rh and max(on_rh) < first, (len(on_rh), first)


def test_standard_monomials(rxy):
    x, y = rxy.var(0), rxy.var(1)
    I = Ideal(rxy, (x * x, x * y, y**3))
    alls, maxs = standard_monomials(I, [0, 1])
    assert set(alls) == {(0, 0), (1, 0), (0, 1), (0, 2)}
    assert set(maxs) == {(1, 0), (0, 2)}
    R1 = Ring(QQ, ["x"])
    I1 = Ideal(R1, (R1.var(0) ** 2,))
    alls, maxs = standard_monomials(I1, [0])
    assert set(alls) == {(0,), (1,)} and maxs == [(1,)]
    with pytest.raises(InfiniteStandardSet):
        standard_monomials(Ideal(rxy, (x * x,)), [0, 1])


def test_divide_exact(rxy):
    x, y = rxy.var(0), rxy.var(1)
    f = (x - y) * (x**2 + x * y + 3)
    assert divide_exact(f, x - y) == x**2 + x * y + 3
    with pytest.raises(ValueError):
        divide_exact(x * x - y, x - y)


def test_colon_by_monomial_ideal_breaks_binomiality():
    # colon by a two-variable monomial ideal genuinely loses binomiality
    R = Ring(QQ, ["a", "b", "x1", "x2", "x3", "x4"])
    a, b, x1, x2, x3, x4 = (R.var(i) for i in range(6))
    I = Ideal(R, (a * x1 - a * x3, a * x2 - a * x4, b * x1 - b * x4, b * x2 - b * x3))
    col = intersect(colon_poly(I, a), colon_poly(I, b))
    assert not col.is_binomial()
    # the colon is the intersection of the three codimension-3 primes
    others = [
        Ideal(R, (a, x1 - x4, x2 - x3)),
        Ideal(R, (b, x1 - x3, x2 - x4)),
        Ideal(R, (x2 - x3, x3 - x4, x1 - x4)),
    ]
    assert col == intersect_all(others, R)
    # its unique linear form (up to scalar) is x1 + x2 - x3 - x4
    assert col.contains(x1 + x2 - x3 - x4)
    assert not col.contains(x1 + x2 + x3 + x4)
    # the all-plus sign variant of the generator set is just as non-binomial
    variant = [
        x1 + x2 + x3 + x4,
        a * (x2 - x4),
        (x2 - x3) * (x2 - x4),
        b * (x2 - x3),
    ]
    assert not Ideal(R, variant).is_binomial()


def test_monomial_saturation_matches_the_auxiliary_variable(monkeypatch):
    # the colon-tree saturate_monomial against the t-trick saturate_poly on
    # what its callers pass: cellular_localize's I + off-cell powers,
    # colon_quasipower_ratio's non-binomial I + (I : b^[d])·b^[e], the zero
    # and the unit ideal
    seen = []
    real = ideals.saturate_monomial
    monkeypatch.setattr(ideals, "saturate_monomial", lambda i, m: seen.append((i, m)) or real(i, m))
    rnd = random.Random(21)
    for field in (QQ, FiniteField(5), CycloField(6)):
        for n in (2, 3):
            R = Ring(field, [f"x{i}" for i in range(n)])
            for _ in range(15):
                cell = rnd.sample(range(n), rnd.randint(1, n))
                cellular_localize(_random_binomial_ideal(rnd, R), cell,
                                  [rnd.randint(1, 3) for _ in range(n)])
            ratios = 0
            while ratios < 8:
                I = _random_binomial_ideal(rnd, R)
                b = R.monomial(tuple(rnd.randint(0, 2) for _ in range(n))) - R.monomial(
                    tuple(rnd.randint(0, 2) for _ in range(n)), rnd.choice([1, -1, 2]))
                if len(b.terms) != 2:
                    continue
                d, e = rnd.choice([(2, 1), (3, 1), (4, 2), (6, 2), (6, 3)])
                try:
                    colon_quasipower_ratio(I, b, d, e)
                except NonzerodivisorViolated:
                    continue
                ratios += 1
            m = cell_product(R, range(n))
            seen += [(Ideal(R), m), (Ideal(R, (R.one,)), m)]
    nonbinomial = grew = 0
    for i, m in seen:
        got = real(i, m)
        assert got.key() == saturate_poly(i, m).key(), (i, m)
        nonbinomial += any(len(g.terms) > 2 for g in i.gens)
        grew += got.key() != i.key()
    assert len(seen) == 6 * (15 + 8 + 2), len(seen)
    assert nonbinomial >= 20 and grew >= 40, (nonbinomial, grew)
