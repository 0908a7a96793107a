import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import pytest

from binomials.errors import (
    BadFieldSpec,
    DivisionByZero,
    FieldMismatch,
    ParseError,
    RootNotCyclotomic,
    RootNotInField,
)
from binomials import scalars
from binomials.poly import Ring, _growth_bits, parse_scalar, render_poly
from binomials.scalars import (
    QQ,
    CycloElement,
    CycloField,
    FiniteField,
    _ff_poly_is_irreducible,
    _inverse_mod,
    cyclotomic_polynomial,
    default_modulus,
    euler_phi,
    factorint,
    is_prime,
    render_scalar,
    root_of_unity_order,
    scalar_key,
    unit_decompose,
    zeta,
)


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(3) / Fraction(2) == Fraction(3, 2)
    with pytest.raises(DivisionByZero):
        zeta(3) / Fraction(0)


def test_zeta4_squares_to_minus_one():
    z4 = zeta(4)
    assert z4 * z4 == Fraction(-1)
    assert z4**4 == 1


def test_gf5_division():
    F5 = FiniteField(5)
    assert F5.scalar(3) / F5.scalar(2) == F5.scalar(4)
    with pytest.raises(DivisionByZero):
        F5.scalar(1) / F5.scalar(0)


def test_field_mismatch():
    F5 = FiniteField(5)
    F7 = FiniteField(7)
    with pytest.raises(FieldMismatch):
        F5.scalar(1) + F7.scalar(1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 201):
        units = sum(gcd(j, n) == 1 for j in range(1, n + 1))
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n) == units, n


def test_root_of_unity_orders():
    assert zeta(2) == Fraction(-1)
    z6 = zeta(6)
    assert z6 * z6 - z6 + 1 == 0  # the minimal polynomial of a 6th root
    for n in (3, 4, 5, 6, 8, 12):
        z = zeta(n)
        assert z**n == 1
        assert all(z**k != 1 for k in range(1, n))


def test_root_of_unity_char_p():
    # GF(5)* has order 4, prime to 3, so 1 is the only cube root of unity;
    # GF(25)* has order 24, so all three cube roots of unity lie in GF(25)
    F5 = FiniteField(5)
    assert F5.dth_roots(F5.one, 3) == [F5.one]
    F25 = FiniteField(5, 2)
    roots = F25.dth_roots(F25.one, 3)
    assert len(set(roots)) == 3
    assert all(w**3 == F25.one for w in roots) and F25.one in roots


def test_root_of_unity_order_matches_brute_force():
    for field in (FiniteField(7), FiniteField(2, 3), FiniteField(5, 2)):
        for z in field.elements()[1:]:
            order = next(k for k in range(1, field.units_order + 1) if z**k == field.one)
            assert root_of_unity_order(z, field) == order
    for k in range(12):
        z = zeta(12, k)
        order = next(e for e in range(1, 13) if z**e == 1)
        assert root_of_unity_order(z, QQ) == order == 12 // gcd(k, 12)
    assert root_of_unity_order(Fraction(-1), QQ) == 2
    assert root_of_unity_order(Fraction(2), QQ) is None
    assert root_of_unity_order(2 * zeta(3), QQ) is None
    assert root_of_unity_order(1 + zeta(4), QQ) is None  # not rational times a root


def test_dth_root_rational():
    assert QQ.dth_roots(Fraction(1), 2) == [Fraction(1), Fraction(-1)]
    roots = QQ.dth_roots(Fraction(-1), 2)
    assert len(roots) == 2 and all(r**2 == -1 for r in roots)
    roots = QQ.dth_roots(Fraction(8, 27), 3)
    assert Fraction(2, 3) in roots
    for r in roots:
        assert r**3 == Fraction(8, 27)


def test_dth_root_frobenius():
    F5 = FiniteField(5)
    assert F5.dth_roots(F5.scalar(2), 5) == [F5.scalar(2)]
    F8 = FiniteField(2, 3)
    for c in F8.elements():
        if c:
            (r,) = F8.dth_roots(c, 2)
            assert r * r == c


def test_dth_root_not_cyclotomic():
    with pytest.raises(RootNotCyclotomic):
        QQ.dth_roots(Fraction(2), 2)
    with pytest.raises(RootNotCyclotomic):
        QQ.dth_roots(zeta(4) + 2, 3)


def test_dth_root_verified_by_exponentiation():
    rnd = random.Random(7)
    for _ in range(30):
        d = rnd.randint(1, 4)
        q = Fraction(rnd.randint(1, 5)) ** d
        c = q * zeta(rnd.choice([1, 2, 3, 4, 6]), rnd.randint(0, 5))
        if not c:
            continue
        roots = QQ.dth_roots(c, d)
        assert len(roots) == d
        for r in roots:
            assert r**d == c


def test_exact_division_roundtrip():
    rnd = random.Random(3)
    for _ in range(50):
        a = sum(Fraction(rnd.randint(-4, 4)) * zeta(12) ** k for k in range(4))
        b = sum(Fraction(rnd.randint(-4, 4)) * zeta(12) ** k for k in range(4))
        if not a or not b:
            continue
        assert (a * b) / b == a


def test_embedding_is_homomorphism():
    # QQ(zeta_6) -> QQ(zeta_12): compare images of sums and products
    rnd = random.Random(11)
    one12 = zeta(12) ** 12  # the identity, forces order-12 representation
    for _ in range(40):
        a = Fraction(rnd.randint(-3, 3)) + Fraction(rnd.randint(-3, 3)) * zeta(6)
        b = Fraction(rnd.randint(-3, 3)) + Fraction(rnd.randint(-3, 3)) * zeta(6)
        assert (a + b) * one12 == a * one12 + b * one12
        assert (a * b) * one12 == (a * one12) * (b * one12)


def test_unit_decompose():
    q, o, j = unit_decompose(Fraction(3, 2) * zeta(8, 3))
    assert (q, o, j) == (Fraction(3, 2), 8, 3)
    assert unit_decompose(Fraction(-7)) == (Fraction(7), 2, 1)
    with pytest.raises(RootNotCyclotomic):
        unit_decompose(1 + zeta(4))


def test_normalized_minimal_order():
    y = zeta(12) ** 4
    assert y.key()[0] == 3  # zeta_3 stored at order 12
    assert scalar_key(zeta(12) ** 6) == scalar_key(Fraction(-1))
    assert zeta(12) ** 2 == zeta(6)


def test_render_parse_roundtrip():
    samples = [
        Fraction(1, 2) * zeta(4) - 3,
        Fraction(-7, 3),
        zeta(12) ** 5 + zeta(12),
        Fraction(0),
    ]
    for s in samples:
        assert parse_scalar(render_scalar(s)) == s
    t = FiniteField(2, 3).element((1, 0, 1))
    assert render_scalar(t) == "t^2 + 1@GF(2^3)"
    assert parse_scalar(render_scalar(t), FiniteField(2, 3)) == t
    F9 = FiniteField(3, 2)
    for c in F9.elements():
        assert parse_scalar(render_scalar(c, gf_suffix=False), F9) == c
    # polynomials: a compound coefficient is parenthesized, a coefficient
    # ±1 is left out, and a negative term is joined by " - "
    R = Ring(CycloField(12), ("x", "y"))
    x, y, z = R.var("x"), R.var("y"), zeta(12)
    p = (z**2 + 1) * x**2 * y - x * y + y**3 - Fraction(3, 2)
    assert render_poly(p) == "(z12^2 + 1)*x^2*y + y^3 - x*y - 3/2"
    assert render_poly(-x + (z - z**3) * y - 1) == "-x + (-z12^3 + z12)*y - 1"
    F8 = FiniteField(2, 3)
    S = Ring(F8, ("x", "y"))
    f = F8.element((0, 1, 1)) * S.var("x") ** 2 + S.var("y") + F8.element((0, 1))
    assert render_poly(f) == "(t^2 + t)*x^2 + y + t"
    rng = random.Random(12)
    coefficients = [
        (Ring(QQ, ("x", "y", "w")), lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
        (R, lambda: sum(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * z**j for j in range(4))),
        (S, lambda: rng.choice(F8.elements())),
    ]
    for ring, coefficient in coefficients:
        for _ in range(40):
            p = ring.zero
            for _ in range(rng.randint(0, 5)):
                p += ring.monomial([rng.randint(0, 2) for _ in ring.names], coefficient())
            assert ring.parse(render_poly(p)) == p, render_poly(p)


def test_expression_grammar():
    R = Ring(QQ, ("x", "y"))
    x, y = R.var("x"), R.var("y")
    assert R.parse("x-2/3^2*y") == x - Fraction(2, 9) * y
    assert R.parse("2^-1*x") == R.parse("1/2*x") == Fraction(1, 2) * x
    assert R.parse("3*-x^2") == -3 * x**2  # unary minus binds looser than ^
    for bad in ("x/y", "x^-1", "(x+1)*y"):
        with pytest.raises(ParseError):
            R.parse(bad)
    with pytest.raises(ParseError):
        parse_scalar("2@GF(7)", FiniteField(5))


def test_finite_field_structure():
    F9 = FiniteField(3, 2)
    g = F9.generator()
    seen = set()
    cur = F9.one
    for _ in range(8):
        seen.add(cur.coeffs)
        cur = cur * g
    assert len(seen) == 8  # generator has full order
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 2, (1, 0, 1))  # t^2+1 = (t+1)^2 over F_2


def test_finite_field_lookup_skips_modulus_search(monkeypatch):
    F = FiniteField(5, 4)
    modulus = default_modulus(5, 4)
    calls = []

    def counted(coeffs, p):
        calls.append(p)
        return _ff_poly_is_irreducible(coeffs, p)

    monkeypatch.setattr(scalars, "_ff_poly_is_irreducible", counted)
    assert FiniteField(5, 4) is F
    assert FiniteField(5, 4, modulus) is F
    assert FiniteField(5, 4, list(modulus)) is F
    assert calls == []


def test_cyclo_inverse():
    x = zeta(12) + 3
    assert x * x.inverse() == 1
    with pytest.raises(DivisionByZero):
        x / (x - x)


def test_inverse_mod_detects_a_shared_factor():
    assert _inverse_mod([1, 1], [1, 0, 1], 2) is None  # z^2 + 1 = (z + 1)^2 over F_2
    assert _inverse_mod([-1, 1], [-1, 0, 1]) is None  # z^2 - 1 = (z - 1)(z + 1)
    assert _inverse_mod([1, 1], [1, 1, 1], 2) == [0, 1]  # z(z + 1) = 1 mod z^2 + z + 1
    assert _inverse_mod([1, 1], [1, 0, 1]) == [Fraction(1, 2), Fraction(-1, 2)]
    for zero in (FiniteField(5).zero, FiniteField(5, 2).zero, CycloElement(12, (Fraction(0),) * 4)):
        with pytest.raises(DivisionByZero):
            zero.inverse()


def test_inverse_in_a_large_prime_field():
    F = FiniteField(1000003, 2)
    rnd = random.Random(1000003)
    for _ in range(50):
        a = F.element((rnd.randrange(1000003), rnd.randrange(1, 1000003)))
        inv = a.inverse()
        assert a * inv == F.one
        assert ref_rem(ref_mul(a.coeffs, inv.coeffs), F.modulus, F.p) == [1, 0]


def test_field_build_is_bounded(monkeypatch):
    calls = []

    def counted(coeffs, p):
        calls.append(p)
        return _ff_poly_is_irreducible(coeffs, p)

    monkeypatch.setattr(scalars, "_ff_poly_is_irreducible", counted)
    monkeypatch.setattr(FiniteField, "_registry", {})
    # one test of a degree-1000 modulus is out of bounds, so none is run
    with pytest.raises(BadFieldSpec, match="above the field bound"):
        FiniteField(2, 1000)
    assert calls == []
    # no x^4 + c is irreducible when p = 3 mod 4, so the search runs out
    with pytest.raises(BadFieldSpec, match=r"GF\(1000003\^4; modulus\)"):
        FiniteField(1000003, 4)
    assert len(calls) == scalars.MAX_FIELD_WORK // scalars._rabin_work(1000003, 4)
    # an explicit modulus is tested once
    del calls[:]
    F = FiniteField(1000003, 4, (1, 1, 0, 0, 1))
    assert calls == [1000003]
    t = F.element((0, 1))
    assert t * t.inverse() == F.one


def test_is_prime_miller_rabin():
    for n in range(-3, 3000):
        assert is_prime(n) == (n >= 2 and factorint(n) == {n: 1}), n
    # strong pseudoprimes to the first four and the first seven prime bases
    for n in (3215031751, 341550071728321, 10**18 + 1):
        assert not is_prime(n)
    for n in (10**18 + 3, 2**61 - 1, 3317044064679887385961813):
        assert is_prime(n)
    # the bound itself is the first strong pseudoprime to all 13 bases
    with pytest.raises(BadFieldSpec):
        is_prime(3317044064679887385961981)


# -- the residue-ring kernel against schoolbook arithmetic -------------------


def ref_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                out[i + j] += x * y
    return out


def ref_rem(num, f, p=0):
    """Remainder of num by the monic f by long division, padded to deg f."""
    num = list(num)
    while len(num) >= len(f):
        lead = num.pop()  # subtract lead * z^k * f, k = len(num) - deg f
        k = len(num) - (len(f) - 1)
        for j, c in enumerate(f[:-1]):
            if lead and c:
                num[k + j] -= lead * c
    num += [0] * (len(f) - 1 - len(num))
    return [c % p for c in num] if p else num


@pytest.mark.parametrize("n", [3, 5, 8, 12, 15, 60])
def test_cyclotomic_kernel_against_schoolbook(n):
    # x^n - 1 is the product of the Phi_d over the divisors d of n
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = ref_mul(prod, cyclotomic_polynomial(d))
    assert prod == [-1] + [0] * (n - 1) + [1]
    phi = list(cyclotomic_polynomial(n))
    deg = len(phi) - 1
    for j in range(1, 2 * n):
        assert list((zeta(n) ** j).coeffs) == ref_rem([0] * j + [1], phi)
    rnd = random.Random(n)

    def element():
        return CycloElement(n, tuple(
            Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) * rnd.randint(0, 1)
            for _ in range(deg)
        ))

    for _ in range(25):
        a, b = element(), element()
        assert list((a * b).coeffs) == ref_rem(ref_mul(a.coeffs, b.coeffs), phi)
        if a:
            inv = a.inverse().coeffs
            assert ref_rem(ref_mul(a.coeffs, inv), phi) == [1] + [0] * (deg - 1)
        if b:
            assert a / b * b == a


# -- QQ(zeta_N) against a Fraction-per-coefficient reference ------------------


def ref_value(a):
    """(order, Fraction coefficients) of a char-0 scalar."""
    if isinstance(a, CycloElement):
        return a.order, [Fraction(c) for c in a.coeffs]
    return 1, [Fraction(a)]


@lru_cache(maxsize=None)
def ref_zeta_power(e, m):
    """z_m^e in the power basis of QQ(zeta_m), by long division of z^(e mod m)."""
    return tuple(ref_rem([0] * (e % m) + [1], cyclotomic_polynomial(m)))


def ref_powers(cs, step, m):
    """The sum of cs[i] * z_m^(i*step) in the power basis of QQ(zeta_m)."""
    out = [Fraction(0)] * euler_phi(m)
    for i, c in enumerate(cs):
        if c:
            out = [o + c * r if r else o for o, r in zip(out, ref_zeta_power(i * step, m))]
    return out


def ref_join(x, y):
    """x and y lifted into QQ(zeta_m), m = lcm of their orders."""
    m = x[0] * y[0] // gcd(x[0], y[0])
    return m, ref_powers(x[1], m // x[0], m), ref_powers(y[1], m // y[0], m)


def ref_eq(x, y):
    _, a, b = ref_join(x, y)
    return a == b


def ref_sum(x, y):
    m, a, b = ref_join(x, y)
    return m, [u + v for u, v in zip(a, b)]


def ref_times(x, y):
    m, a, b = ref_join(x, y)
    return m, ref_rem(ref_mul(a, b), cyclotomic_polynomial(m))


def ref_minimal_order(x):
    """The least d dividing N such that x is fixed by z -> z^k for every unit
    k = 1 mod d: those automorphisms fix exactly QQ(zeta_d)."""
    n, cs = x
    for d in (d for d in range(1, n + 1) if n % d == 0):
        units = [k for k in range(1, n) if gcd(k, n) == 1 and k % d == 1 % d]
        if all(ref_powers(cs, k, n) == cs for k in units):
            return d


def ref_render(n, cs):
    parts = []
    for i in reversed(range(len(cs))):
        c, mon = cs[i], "" if i == 0 else f"z{n}" if i == 1 else f"z{n}^{i}"
        if c:
            body = mon if c == 1 else f"-{mon}" if c == -1 else f"{c}*{mon}"
            parts.append(body if mon else str(c))
    return " + ".join(parts).replace("+ -", "- ") or "0"


def ref_growth_bits(cs):
    den = lcm(*(c.denominator for c in cs))
    return max(sum(abs(c.numerator) * (den // c.denominator) for c in cs), den).bit_length() - 1


CYCLO_ORDERS = [3, 4, 5, 6, 9, 12, 15, 30, 105]


@pytest.mark.parametrize("n", CYCLO_ORDERS)
def test_cyclo_element_against_fraction_reference(n):
    rnd = random.Random(100 + n)

    def element(order):
        deg = euler_phi(order)
        return CycloElement(order, tuple(
            Fraction(rnd.randint(-6, 6), rnd.randint(1, 6)) * (rnd.random() < 0.7)
            for _ in range(deg)
        ))

    def stored_at(order, z):
        return CycloElement(order, tuple(ref_powers(ref_value(z)[1], order // z.order, order)))

    one = (1, [Fraction(1)])
    subfields = [d for d in CYCLO_ORDERS if n % d == 0 and d < n]
    for t in range(40):
        # a third of them stored above their minimal order
        a = stored_at(n, element(rnd.choice(subfields))) if subfields and t % 3 == 0 else element(n)
        b = rnd.choice([element(n), element(rnd.choice(CYCLO_ORDERS)),
                        Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)), rnd.randint(-3, 3)])
        x, y = ref_value(a), ref_value(b)
        neg_x, neg_y = ((n, [-c for c in cs]) for n, cs in (x, y))
        for got, want in ((a + b, ref_sum(x, y)), (b + a, ref_sum(x, y)),
                          (a - b, ref_sum(x, neg_y)), (b - a, ref_sum(y, neg_x)),
                          (a * b, ref_times(x, y)), (b * a, ref_times(x, y)), (-a, neg_x)):
            assert ref_eq(ref_value(got), want), (a, b, got)
            if isinstance(got, CycloElement):  # lowest terms over one positive denominator
                assert got.den > 0 and gcd(got.den, *got.num) == 1
        assert (a == b) == ref_eq(x, y) == (b == a)
        if b:
            assert ref_eq(ref_times(ref_value(a / b), y), x)
        if a:
            assert ref_eq(ref_times(ref_value(a.inverse()), x), one)
            assert ref_eq(ref_times(ref_value(a**-2), ref_value(a * a)), one)
        power = one
        for e in range(5):
            assert ref_eq(ref_value(a**e), power), (a, e)
            power = ref_times(power, x)
        # the same element stored at order lcm(n, 60) is equal, hashes equal
        # and has the same key, which reads the minimal order
        big = stored_at(lcm(n, 60), a)
        assert big == a and a == big and hash(big) == hash(a) and big.key() == a.key()
        d, cs = a.key()
        assert d == ref_minimal_order(x) and len(cs) == euler_phi(d)
        assert ref_eq((d, list(cs)), x) and all(isinstance(c, Fraction) for c in cs)
        assert render_scalar(a) == ref_render(n, x[1])
        assert parse_scalar(render_scalar(a), CycloField(n)) == a
        assert _growth_bits(a) == ref_growth_bits(x[1])


def test_rational_cyclo_element_hashes_as_its_fraction():
    # equal values hash equal: a rational element of QQ(zeta_N) is one set
    # member and one dict key with the Fraction or int it equals
    one = zeta(3) + 1 - zeta(3)
    assert one == Fraction(1) and isinstance(one, CycloElement)
    assert len({one, Fraction(1)}) == 1 and len({Fraction(1), one, 1}) == 1
    assert {Fraction(1): "a"}[one] == "a" and {one: "b"}[Fraction(1)] == "b"
    half = (zeta(12, 5) + Fraction(1, 2)) - zeta(12, 5)
    assert {half: 0}.get(Fraction(1, 2)) == 0 and {Fraction(1, 2): 0}.get(half) == 0
    # the key still reads the minimal order, so output is unchanged
    assert one.key() == (1, (Fraction(1),)) and half.key() == (1, (Fraction(1, 2),))
    # irrational values keep hashing by their key, across stored orders
    z = zeta(3)
    assert hash(z * zeta(4) * zeta(4, 3)) == hash(z)


def ref_pow(a, e, f, p):
    """a^e modulo the monic f over F_p, by schoolbook products."""
    if e == 0:
        return ref_rem([1], f, p)
    half = ref_pow(a, e // 2, f, p)
    out = ref_rem(ref_mul(half, half), f, p)
    return ref_rem(ref_mul(out, a), f, p) if e % 2 else out


# all pairs up to GF(7^2), each element against 200 seeded others up to
# MAX_TABLE_ORDER, and 200 seeded elements above it, where the residue-ring
# kernel multiplies and inverts instead of the table
FIELDS = [(5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (7, 2), (5, 4), (7, 3), (4099, 1), (67, 2)]


@pytest.mark.parametrize("p, k", FIELDS)
def test_finite_field_kernel_against_schoolbook(p, k):
    F = FiniteField(p, k)
    q, f = p**k, F.modulus
    assert (q <= scalars.MAX_TABLE_ORDER) == (q < 4099)
    rnd = random.Random(q)
    elements = F.elements()
    firsts = elements if q <= scalars.MAX_TABLE_ORDER else rnd.sample(elements, 200)
    inverses = {}

    def inverse(c):  # Fermat, by schoolbook products
        if c not in inverses:
            inverses[c] = ref_pow(list(c), q - 2, f, p)
        return inverses[c]

    three = list(F.scalar(3).coeffs)
    for a in firsts:
        ca = list(a.coeffs)
        assert list((-a).coeffs) == [-x % p for x in ca]
        assert list((a - 3).coeffs) == [(x - y) % p for x, y in zip(ca, three)]
        assert list((3 - a).coeffs) == [(y - x) % p for x, y in zip(ca, three)]
        for e in (0, 1, 2, 3, q - 2, q, 2 * q + 1):
            assert list((a**e).coeffs) == ref_pow(ca, e, f, p)
            if a:
                assert list((a**-e).coeffs) == ref_pow(inverse(a.coeffs), e, f, p)
        if a:
            assert list(a.inverse().coeffs) == inverse(a.coeffs)
            assert ref_rem(ref_mul(ca, inverse(a.coeffs)), f, p) == list(F.one.coeffs)
        for b in elements if q <= 49 else rnd.sample(elements, 200):
            cb = list(b.coeffs)
            assert list((a * b).coeffs) == ref_rem(ref_mul(ca, cb), f, p)
            assert list((a + b).coeffs) == [(x + y) % p for x, y in zip(ca, cb)]
            assert list((a - b).coeffs) == [(x - y) % p for x, y in zip(ca, cb)]
            if b:
                assert list((a / b).coeffs) == ref_rem(ref_mul(ca, inverse(b.coeffs)), f, p)
    with pytest.raises(DivisionByZero):
        F.zero ** -1


@pytest.mark.parametrize("p, k", FIELDS)
def test_generator_and_dlog_against_schoolbook(p, k):
    F = FiniteField(p, k)
    q, f = p**k, F.modulus
    one = list(F.one.coeffs)

    def powers(c):  # c^0, c^1, ... up to the first return to 1
        out, x = [one], list(c)
        while x != one:
            out.append(x)
            x = ref_rem(ref_mul(x, c), f, p)
        return out

    g = next(a for a in F.elements()[1:] if len(powers(a.coeffs)) == q - 1)
    assert F.generator() == g
    for i, x in enumerate(powers(g.coeffs)):
        assert F.dlog(F.element(x)) == i
        assert list((g**i).coeffs) == x


# sha256 of the recorded root lists below: a change to how the generator is
# found may not move any root or its place in a list
DTH_ROOTS_DIGEST = "de9abb27e5b1f5acbbf1fb2cae1a2cbcd998b6f7dcd16db1e36ecd9fc5e593fc"


def test_dth_roots_keep_their_order():
    rows = []
    for p, k in ((5, 2), (3, 2)):
        F = FiniteField(p, k)
        for c in F.elements():
            for d in (2, 3, 4, 6, 8):
                try:
                    roots = [r.coeffs for r in F.dth_roots(c, d)]
                except RootNotInField:
                    roots = None
                rows.append([p, k, c.coeffs, d, roots])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == DTH_ROOTS_DIGEST
    F9 = FiniteField(3, 2)  # modulus t^2 + 1, generator t + 1
    assert [r.coeffs for r in F9.dth_roots(F9.one, 8)] == [
        (1, 0), (1, 1), (0, 2), (1, 2), (2, 0), (2, 2), (0, 1), (2, 1)
    ]


def test_the_table_is_built_on_first_use(monkeypatch):
    monkeypatch.setattr(FiniteField, "_registry", {})
    for first_use in (lambda F: F.one * F.one, FiniteField.generator, lambda F: F.dlog(F.one)):
        FiniteField._registry.clear()
        F = FiniteField(5, 2)
        a = F.element((1, 1))
        assert F.elements()[6] == a != F.scalar(3) and render_scalar(a) == "t + 1@GF(5^2)"
        assert "_table" not in vars(F)
        first_use(F)
        assert "_table" in vars(F)
    # above MAX_TABLE_ORDER the arithmetic builds no table, and the one that
    # generator() and dlog() read holds no element per unit
    F = FiniteField(4099)
    a = F.scalar(2)
    assert (a * a + a - a) / a == a and a.inverse() ** -3 == F.scalar(8) and -a == F.scalar(4097)
    assert "_table" not in vars(F)
    assert F.dlog(F.generator()) == 1
    exp, log, zech = F._table
    assert len(exp) == 2 and len(log) == 4099 and zech is None


def test_default_modulus_is_tested_once(monkeypatch):
    calls = []

    def counted(coeffs, p):
        calls.append(tuple(coeffs))
        return _ff_poly_is_irreducible(coeffs, p)

    monkeypatch.setattr(scalars, "_ff_poly_is_irreducible", counted)
    monkeypatch.setattr(FiniteField, "_registry", {})
    assert FiniteField(7, 3).modulus == (2, 0, 0, 1)
    assert calls == [(0, 0, 0, 1), (1, 0, 0, 1), (2, 0, 0, 1)]
    with pytest.raises(ValueError, match="not irreducible"):
        FiniteField(7, 3, (1, 0, 0, 1))  # t^3 + 1 = (t + 1)(t^2 - t + 1)


@pytest.mark.parametrize("p", [2, 3])
def test_irreducibility_against_trial_division(p):
    def monic(deg):
        return [list(low) + [1] for low in product(range(p), repeat=deg)]

    for deg in (2, 3, 4):
        for f in monic(deg):
            reducible = any(
                not any(ref_rem(f, g, p))
                for e in range(1, deg // 2 + 1)
                for g in monic(e)
            )
            assert _ff_poly_is_irreducible(f, p) != reducible, f
