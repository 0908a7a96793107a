import random
from fractions import Fraction

from binomials.groebner import groebner_basis
from binomials.poly import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    Ring,
    elim_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    render_poly,
)
from binomials.scalars import QQ, FiniteField


# -- an independent, optimization-free Buchberger oracle ---------------------


def naive_reduce(f, basis, order):
    ring = f.ring
    changed = True
    while changed and f.terms:
        changed = False
        for e, c in f.terms:
            for g in basis:
                lm, lc = g.lt(order)
                if mono_divides(lm, e):
                    f = f - g.mul_term(mono_div(e, lm), c / lc)
                    changed = True
                    break
            if changed:
                break
    return f


def naive_buchberger(gens, order):
    basis = [g for g in gens if g.terms]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        gi, gj = basis[i], basis[j]
        lmi, lci = gi.lt(order)
        lmj, lcj = gj.lt(order)
        l = mono_lcm(lmi, lmj)
        s = gi.mul_term(mono_div(l, lmi), 1 / lci) - gj.mul_term(mono_div(l, lmj), 1 / lcj)
        r = naive_reduce(s, basis, order)
        if r.terms:
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # reduce to the unique reduced basis
    out = []
    for idx, g in enumerate(basis):
        lm = g.lm(order)
        if any(
            mono_divides(h.lm(order), lm) and (h.lm(order) != lm or k < idx)
            for k, h in enumerate(basis)
            if k != idx
        ):
            continue
        out.append(g)
    done = False
    while not done:
        done = True
        for idx in range(len(out)):
            rest = out[:idx] + out[idx + 1 :]
            r = naive_reduce(out[idx], rest, order)
            r = r.monic(order) if r.terms else r
            if r != out[idx]:
                out[idx] = r
                done = False
    out = [g for g in out if g.terms]
    keyf = order.key_function(out[0].ring.nvars) if out else None
    out.sort(key=lambda g: keyf(g.lm(order)))
    return out


# -- fixtures ----------------------------------------------------------------


def test_single_binomial_lex():
    R = Ring(QQ, ["x", "y"])
    x, y = R.var(0), R.var(1)
    gb = groebner_basis([x - y], LEX)
    assert [render_poly(p) for p in gb] == ["x - y"]


def test_normal_form_examples():
    R = Ring(QQ, ["x", "y"])
    x, y = R.var(0), R.var(1)
    gb = groebner_basis([x - y], LEX)
    assert gb.normal_form(x * x) == y * y
    gb2 = groebner_basis([x * x - y], LEX)
    assert gb2.normal_form(x**3) == x * y


def test_hyperbola_union_intersection_basis():
    # reduced GB of the intersection of two disjoint-cell hyperbola ideals
    R = Ring(QQ, ["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = (R.var(i) for i in range(4))
    from binomials.ideals import Ideal, intersect

    I1 = Ideal(R, (x1 * x2 - 1, x3, x4))
    I2 = Ideal(R, (x1, x2, x3 * x4 - 1))
    inter = intersect(I1, I2)
    expected = groebner_basis(
        [x1 * x2 + x3 * x4 - 1, x3**2 * x4 - x3, x3 * x4**2 - x4, x1 * x3, x1 * x4, x2 * x3, x2 * x4],
        DEGREVLEX,
    )
    assert [p.key() for p in inter.gb()] == [p.key() for p in expected]


def test_binomial_closure_random_vs_naive_oracle():
    rnd = random.Random(42)
    for trial in range(40):
        n = rnd.randint(2, 3)
        R = Ring(QQ, [f"v{i}" for i in range(n)])
        gens = []
        for _ in range(rnd.randint(1, 3)):
            e1 = tuple(rnd.randint(0, 3) for _ in range(n))
            e2 = tuple(rnd.randint(0, 3) for _ in range(n))
            c = rnd.choice([1, -1, 2, Fraction(1, 2)])
            gens.append(R.monomial(e1) - R.monomial(e2) * c)
        gens = [g for g in gens if g.terms]
        if not gens:
            continue
        order = rnd.choice([DEGREVLEX, LEX])
        gb = groebner_basis(gens, order, R)
        assert gb.is_binomial  # binomial closure of reduced bases
        oracle = naive_buchberger(gens, order)
        assert [p.key() for p in gb] == [p.key() for p in oracle], (gens, order)


def test_random_general_inputs_vs_naive_oracle(checked):
    # Gebauer-Moeller pair selection against the criterion-free oracle, on
    # inputs of one to three terms, so the general path runs as well
    rnd = random.Random(7)
    fields = [QQ, FiniteField(5)]
    compared = 0
    for trial in range(120):
        n = rnd.randint(2, 3)
        field = fields[trial % 2]
        R = Ring(field, [f"v{i}" for i in range(n)])
        gens = []
        for _ in range(rnd.randint(1, 3)):
            g = R.zero
            for _ in range(rnd.randint(1, 3)):
                e = tuple(rnd.randint(0, 2) for _ in range(n))
                c = rnd.choice([1, -1, 2, 3, Fraction(1, 2)])
                g = g + R.monomial(e) * c
            gens.append(g)
        gens = [g for g in gens if g.terms]
        if not gens:
            continue
        order = [DEGREVLEX, LEX, elim_order([0], n)][trial % 3]
        gb = groebner_basis(gens, order, R)
        oracle = naive_buchberger(gens, order)
        assert [p.key() for p in gb] == [p.key() for p in oracle], (gens, order)
        compared += 1
    assert compared >= 110


def test_ladder_saturation_checked(checked):
    # both x^k - y, y^3 - z*x and the Hermite basis binomials of its curve's
    # character give the curve (t, t^k, t^(3k-1)) when saturated by x*y*z
    # through the auxiliary variable; on the lattice basis that Groebner run
    # is the one with many pairs (the engine saturates that basis at its
    # free variable z alone, on the colon tree)
    from binomials.ideals import Ideal, saturate_poly

    R = Ring(QQ, ["x", "y", "z"])
    x, y, z = (R.var(i) for i in range(3))
    for k in (10, 20):
        expected = naive_buchberger([x**k - y, x ** (k - 1) * y * y - z, y**3 - x * z], DEGREVLEX)
        for gens in [
            (x**k - y, y**3 - z * x),
            (x * y ** (3 * k - 4) - z ** (k - 1), y ** (3 * k - 1) - z**k),
        ]:
            sat = saturate_poly(Ideal(R, gens), x * y * z)
            assert [p.key() for p in sat.gb()] == [p.key() for p in expected], (k, gens)


def test_reduced_gb_unique_under_generator_permutation():
    rnd = random.Random(1)
    R = Ring(QQ, ["x", "y", "z"])
    x, y, z = (R.var(i) for i in range(3))
    gens = [x * y - z * z, x * z - y, y * z - x]
    base = groebner_basis(gens, DEGREVLEX, R)
    for _ in range(6):
        rnd.shuffle(gens)
        again = groebner_basis(gens, DEGREVLEX, R)
        assert [p.key() for p in again] == [p.key() for p in base]


def test_buchberger_criterion_on_final_basis(checked):
    R = Ring(QQ, ["x", "y", "z"])
    x, y, z = (R.var(i) for i in range(3))
    groebner_basis([x * y - z, y * y - x * z, x + y + z], DEGREVLEX, R)


def test_normal_form_of_term_is_term(checked):
    # a term's normal form modulo binomials is a term (asserted internally)
    R = Ring(QQ, ["x", "y"])
    x, y = R.var(0), R.var(1)
    gb = groebner_basis([x * x - y * y, x * y - y * y], DEGREVLEX, R)
    for e in [(3, 0), (2, 1), (5, 2)]:
        nf = gb.normal_form(R.monomial(e))
        assert len(nf.terms) <= 1


def test_laurent_normal_form_constant():
    # Laurent uniqueness via the doubled-variable ring: for L = span{(2)},
    # rho(2) = 1, the normal form of y^(u+) z^(u-) modulo the mixed set is
    # the constant c_u; tested with u = (4): x^4 - 1 in I(rho).
    R = Ring(QQ, ["y", "z"])
    yv, zv = R.var(0), R.var(1)
    gens = []
    # generators y^a z^b - rho(a - b) y^c z^d for small a-b-c+d in 2Z
    for a in range(3):
        for bb in range(3):
            for c in range(3):
                for d in range(3):
                    if (a - bb - c + d) % 2 == 0 and (a, bb) != (c, d):
                        gens.append(R.monomial((a, bb)) - R.monomial((c, d)))
    gens.append(yv * zv - 1)
    gb = groebner_basis(gens, DEGREVLEX, R)
    nf = gb.normal_form(R.monomial((4, 0)))
    assert nf == R.one


def test_is_binomial_ideal():
    from binomials.ideals import Ideal, is_binomial_ideal

    R = Ring(QQ, ["x", "y", "z"])
    x, y, z = (R.var(i) for i in range(3))
    assert is_binomial_ideal([x + y + z, y + z])  # GB is {x, y+z}
    assert is_binomial_ideal([x * y - z])
    assert not is_binomial_ideal([x + y + z])


def test_gf_coefficients():
    F2 = FiniteField(2)
    R = Ring(F2, ["x", "y"])
    x, y = R.var(0), R.var(1)
    gb = groebner_basis([x * x - y * y], DEGREVLEX, R)
    # over F2, x^2 - y^2 = (x-y)^2 stays as the binomial generator
    assert gb.is_binomial
    assert gb.contains((x - y) * (x - y))


def test_elim_order_blocks():
    order = elim_order([2], 3)
    key = order.key_function(3)
    # any monomial containing the eliminated variable beats any without
    assert key((0, 0, 1)) > key((5, 5, 0))


def reference_key(order, n):
    """The order's sort key written out component by component."""
    perm = order.perm if order.perm is not None else tuple(range(n))
    if order.kind == "lex":
        return lambda e: tuple(e[p] for p in perm)
    if order.kind == "degrevlex":
        return lambda e: (sum(e), tuple(-e[p] for p in reversed(perm)))
    head, tail = perm[: order.block], perm[order.block :]
    return lambda e: (
        tuple(e[p] for p in head),
        sum(e[p] for p in tail),
        tuple(-e[p] for p in reversed(tail)),
    )


def orders_in(n, rnd):
    """lex, degrevlex and every elimination block, natural and permuted."""
    out = [LEX, DEGREVLEX]
    for _ in range(3):
        perm = list(range(n))
        rnd.shuffle(perm)
        out += [MonomialOrder("lex", perm=perm), MonomialOrder("degrevlex", perm=perm)]
        out += [MonomialOrder("elim", block=k, perm=perm) for k in range(n + 1)]
    out += [elim_order(range(k), n) for k in range(n + 1)]
    return out


def test_order_keys_sort_like_reference_keys():
    rnd = random.Random(13)
    for n in range(6):
        # small entries, so that degrees and prefixes tie often
        vecs = list({tuple(rnd.randint(0, 3) for _ in range(n)) for _ in range(60)})
        for order in orders_in(n, rnd):
            keyf, ref = order.key_function(n), reference_key(order, n)
            assert sorted(vecs, key=keyf) == sorted(vecs, key=ref), (n, order)
            for a, b in zip(vecs, reversed(vecs)):
                assert (keyf(a) < keyf(b)) == (ref(a) < ref(b)), (n, order, a, b)
                assert (keyf(a) == keyf(b)) == (a == b), (n, order, a, b)


def test_monomial_helpers_match_reference():
    rnd = random.Random(14)
    for n in range(6):
        for _ in range(200):
            a = tuple(rnd.randint(0, 4) for _ in range(n))
            b = tuple(rnd.randint(0, 4) for _ in range(n))
            assert mono_mul(a, b) == tuple(x + y for x, y in zip(a, b))
            assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
            assert mono_divides(a, b) == all(x <= y for x, y in zip(a, b))
            ab = mono_mul(a, b)
            assert mono_div(ab, b) == a and mono_divides(b, ab)


def test_unit_ideal_detection():
    R = Ring(QQ, ["x"])
    x = R.var(0)
    gb = groebner_basis([x - 1, x - 2], DEGREVLEX, R)
    assert gb.is_trivial
