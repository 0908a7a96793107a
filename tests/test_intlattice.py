import random

from binomials.intlattice import (
    Lattice,
    det,
    hnf,
    hnf_with_transform,
    kernel,
    mat_mul,
    smith_normal_form,
)


def brute_force_snf_diag(a):
    # oracle: invariant factors via gcds of k x k minors
    from math import gcd
    from itertools import combinations

    n, m = len(a), len(a[0])
    out = []
    prev = 1
    for k in range(1, min(n, m) + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                g = gcd(g, det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_snf_small_examples():
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    _, d, _ = smith_normal_form([[4, 6]])
    assert d == [[2, 0]]
    u, d, v = smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]


def test_snf_against_minor_gcd_oracle():
    rnd = random.Random(5)
    for _ in range(60):
        n, m = rnd.randint(1, 3), rnd.randint(1, 3)
        a = [[rnd.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        u, d, w = smith_normal_form(a)
        assert mat_mul(u, a) == mat_mul(d, w)
        assert abs(det(u)) == 1 and abs(det(w)) == 1
        diag = [d[i][i] for i in range(min(n, m)) if d[i][i]]
        assert diag == brute_force_snf_diag(a)


def test_snf_transform_reverified(checked):
    rnd = random.Random(6)
    for _ in range(40):
        n, m = rnd.randint(1, 4), rnd.randint(1, 4)
        a = [[rnd.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        u, d, w = smith_normal_form(a)  # checks fixture re-verifies U*A = D*W
        assert mat_mul(u, a) == mat_mul(d, w)
        assert abs(det(u)) == 1 and abs(det(w)) == 1


def test_hnf_canonical():
    h = hnf([[2, -2]])
    assert h == [[2, -2]]
    assert hnf([[-1, 1]]) == [[1, -1]]
    h, t = hnf_with_transform([[4, 6], [2, 2]])
    assert mat_mul(t, [[4, 6], [2, 2]]) == h


def test_saturation_examples():
    assert Lattice(2, [[2, -2]]).saturation() == Lattice(2, [[1, -1]])
    assert Lattice(2, [[1, 0]]).saturation() == Lattice(2, [[1, 0]])
    assert Lattice.full(2).saturation() == Lattice.full(2)


def test_saturation_idempotent_and_rank_preserving():
    rnd = random.Random(9)
    for _ in range(100):
        n = rnd.randint(1, 4)
        rows = [[rnd.randint(-5, 5) for _ in range(n)] for _ in range(rnd.randint(1, n))]
        lat = Lattice(n, rows)
        sat = lat.saturation()
        assert sat.saturation() == sat
        assert sat.contains_lattice(lat)
        assert sat.rank == lat.rank


def test_p_saturations_examples():
    sp, spp, g = Lattice(1, [[2]]).p_saturations(2)
    assert sp == Lattice.full(1) and spp == Lattice(1, [[2]]) and g == 1
    sp, spp, g = Lattice(1, [[2]]).p_saturations(0)
    assert sp == Lattice(1, [[2]]) and spp == Lattice.full(1) and g == 2
    sp, spp, g = Lattice(1, [[6]]).p_saturations(3)
    assert sp == Lattice(1, [[2]]) and spp == Lattice(1, [[3]]) and g == 2


def test_p_saturation_identities(checked):
    # Sat_p ∩ Sat'_p = L and Sat_p + Sat'_p = Sat(L), re-verified internally
    rnd = random.Random(10)
    for _ in range(80):
        n = rnd.randint(1, 4)
        rows = [[rnd.randint(-6, 6) for _ in range(n)] for _ in range(rnd.randint(1, n))]
        lat = Lattice(n, rows)
        if not lat.basis:
            continue
        for p in (0, 2, 3, 5):
            sp, spp, g = lat.p_saturations(p)
            if p:
                assert g % p != 0
            assert sp.contains_lattice(lat) and spp.contains_lattice(lat)


def test_membership_and_quotient_order():
    lat = Lattice(2, [[2, -2]])
    assert [2, -2] in lat and [1, -1] not in lat
    assert lat.quotient_order() == 2
    assert [6] in Lattice(1, [[3]])
    assert Lattice.full(3).express([5, -2, 7]) == [5, -2, 7]


def test_circuits_examples():
    lat = Lattice.kernel_of([[7, 5, 2, 0], [0, 2, 5, 7]])
    cs = set(lat.circuits())
    assert cs == {(0, 2, -5, 3), (5, -7, 0, 2), (3, -5, 2, 0), (2, 0, -7, 5)}
    assert Lattice(2, [[1, -1]]).circuits() == [(1, -1)]
    assert set(Lattice.kernel_of([[1, 1, 1]]).circuits()) == {
        (1, -1, 0),
        (1, 0, -1),
        (0, 1, -1),
    }


def test_circuits_support_minimality_brute_force():
    # no lattice vector has support strictly inside a circuit's support
    rnd = random.Random(12)
    for _ in range(20):
        n = rnd.randint(2, 4)
        d = rnd.randint(1, n - 1)
        a = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        lat = Lattice.kernel_of(a)
        if not lat.basis:
            continue
        circuits = lat.circuits()
        sat = lat.saturation()
        # enumerate small vectors of the lattice and compare supports
        small = []
        span = [list(r) for r in sat.basis]
        coeffs = range(-3, 4)
        import itertools

        for combo in itertools.product(coeffs, repeat=len(span)):
            v = [sum(c * row[i] for c, row in zip(combo, span)) for i in range(n)]
            if any(v):
                small.append(tuple(v))
        for c in circuits:
            supp_c = {i for i, x in enumerate(c) if x}
            for v in small:
                supp_v = {i for i, x in enumerate(v) if x}
                assert not (supp_v < supp_c), (c, v)


def test_diagonalized_inclusion():
    lat = Lattice(2, [[2, 0], [0, 3]])
    rows, factors, u = lat.diagonalized_inclusion(Lattice.full(2))
    assert sorted(factors) == [1, 6]
    assert Lattice(2, rows) == Lattice.full(2)


def test_snf_divisibility_large_entries():
    a = [[12, -6], [0, 10**30]]
    u, d, w = smith_normal_form(a)
    assert d[0][0] and d[1][1] % d[0][0] == 0
    assert mat_mul(u, a) == mat_mul(d, w)
    assert abs(det(u)) == 1 and abs(det(w)) == 1


def double_kernel_saturation(lat):
    # reference: Sat(L) is the kernel of the kernel of L's basis
    if not lat.basis:
        return Lattice(lat.ambient)
    comp = kernel(lat.basis)
    return Lattice(lat.ambient, kernel(comp)) if comp else Lattice.full(lat.ambient)


def test_saturation_matches_double_kernel():
    rnd = random.Random(13)
    for _ in range(200):
        n = rnd.randint(1, 5)
        rows = [[rnd.randint(-8, 8) for _ in range(n)] for _ in range(rnd.randint(0, n))]
        lat = Lattice(n, rows)
        assert lat.saturation() == double_kernel_saturation(lat)
