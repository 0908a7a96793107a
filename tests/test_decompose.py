import random
from fractions import Fraction
from math import lcm

import pytest

from binomials import decompose
from binomials.characters import (
    PartialCharacter,
    character_from_cellular,
    character_prime_ideal,
    character_saturations,
    ideal_from_character,
    lattice_binomial,
    p_saturation,
)
from binomials.decompose import (
    _cell_below,
    _cellular_pieces,
    _component_hull,
    _prime_below,
    _primary_candidates,
    _prune_redundant,
    associated_prime_characters,
    cell_scan,
    cellular_decomposition,
    circuit_ideal,
    hull,
    is_cellular,
    is_primary,
    localize,
    minimal_primes,
    primary_decomposition,
    primary_test,
    radical,
)
from binomials.errors import BinomialsError, EscalationLimit, RootNotCyclotomic, RootNotInField
from binomials.ideals import (
    MAX_ESCALATION,
    Ideal,
    cell_product,
    colon_poly,
    colon_quasipower_ratio,
    intersect_all,
    nonzerodivisor_variables,
    quasi_power,
    saturate_monomial,
    saturate_poly,
)
from binomials.intlattice import Lattice
from binomials.poly import Polynomial, Ring
from binomials.scalars import QQ, CycloField, FiniteField, p_part, zeta


@pytest.fixture
def coupled_ring():
    return Ring(QQ, ["a", "b", "x1", "x2", "x3", "x4"])


@pytest.fixture
def coupled_differences(coupled_ring):
    a, b, x1, x2, x3, x4 = (coupled_ring.var(i) for i in range(6))
    return Ideal(
        coupled_ring,
        (a * x1 - a * x3, a * x2 - a * x4, b * x1 - b * x4, b * x2 - b * x3),
    )


def test_coupled_differences_minimal_primes(coupled_ring, coupled_differences):
    a, b, x1, x2, x3, x4 = (coupled_ring.var(i) for i in range(6))
    mp = minimal_primes(coupled_differences)
    expected = [
        Ideal(coupled_ring, (a, b)),
        Ideal(coupled_ring, (a, x1 - x4, x2 - x3)),
        Ideal(coupled_ring, (b, x1 - x3, x2 - x4)),
        Ideal(coupled_ring, (x2 - x3, x3 - x4, x1 - x4)),
    ]
    assert len(mp) == 4
    for e in expected:
        assert any(p == e for p in mp)
    assert radical(coupled_differences) == intersect_all(expected, coupled_ring)
    # no embedded primes here
    aps = {p.key() for pc in primary_decomposition(coupled_differences) for p in [pc.prime]}
    assert aps == {p.key() for p in expected}


def test_five_prime_radical_ideal():
    R = Ring(QQ, ["x", "y", "z", "u", "v"])
    x, y, z, u, v = (R.var(i) for i in range(5))
    I = Ideal(R, (u * x - u * y, u * z - v * x, v * y - v * z))
    mp = minimal_primes(I)
    expected = [
        Ideal(R, (x, y, z)),
        Ideal(R, (u, v)),
        Ideal(R, (u, x, y - z)),
        Ideal(R, (v, z, x - y)),
        Ideal(R, (x - y, y - z, u - v)),
    ]
    assert len(mp) == 5
    for e in expected:
        assert any(p == e for p in mp)
    assert radical(I) == I  # the ideal is its own radical


def test_prime_passthrough():
    R = Ring(QQ, ["x", "y", "z"])
    P = Ideal(R, (R.var(0) - R.var(1),))
    assert minimal_primes(P) == [P]
    assert localize(P, P, (0, 1, 2)) is P
    assert radical(P) == P
    comps = primary_decomposition(P)
    assert len(comps) == 1 and comps[0].ideal == P


def test_radical_idempotent_and_contains(coupled_differences):
    rad = radical(coupled_differences)
    assert radical(rad) == rad
    assert rad.contains(coupled_differences)
    assert rad == intersect_all(minimal_primes(coupled_differences), coupled_differences.ring)


def test_broken_invariants_raise_typed_errors(monkeypatch, coupled_differences):
    # a plain assert vanishes under python -O; these must not
    from binomials import characters

    R = coupled_differences.ring
    rho = PartialCharacter.from_generators((0,), [[2]], [R.field.one], R.field)
    with monkeypatch.context() as patch:
        patch.setattr(characters, "extend_all", lambda rho, sup: [])
        with pytest.raises(BinomialsError, match="extension expected to be unique"):
            characters.extend_unique(rho, Lattice(1, [[1]]))
        with pytest.raises(BinomialsError, match="extensions"):
            character_saturations(rho)
    x = R.var(2)
    with monkeypatch.context() as patch:
        patch.setattr(decompose, "intersect_all", lambda pieces, ring: Ideal(ring, (x**2 + x + 1,)))
        with pytest.raises(BinomialsError, match="radical of a binomial ideal"):
            radical(coupled_differences)
    with pytest.raises(BinomialsError, match="one value per basis row"):
        PartialCharacter((0,), Lattice(1, [[2]]), (), R.field)
    with pytest.raises(BinomialsError, match="does not contain the lattice"):
        characters.extend_all(rho, Lattice(1, [[3]]))
    with monkeypatch.context() as patch:
        patch.setattr(decompose, "cellular_decomposition", lambda i: [])
        with pytest.raises(BinomialsError, match="no cellular piece"):
            hull(coupled_differences)


def test_radical_frobenius():
    F2 = FiniteField(2)
    R = Ring(F2, ["x"])
    x = R.var(0)
    assert radical(Ideal(R, (x * x - 1,))) == Ideal(R, (x - 1,))
    F3 = FiniteField(3)
    R3 = Ring(F3, ["x", "y"])
    x3, y3 = R3.var(0), R3.var(1)
    assert radical(Ideal(R3, (x3**3 - y3**3,))) == Ideal(R3, (x3 - y3,))


def test_permanental_radical_membership():
    R = Ring(QQ, [f"y{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)])

    def v(i, j):
        return R.var((i - 1) * 3 + (j - 1))

    gens = []
    for i in (1, 2):
        for k in range(i + 1, 4):
            for j in (1, 2):
                for l in range(j + 1, 4):
                    gens.append(v(i, j) * v(k, l) + v(i, l) * v(k, j))
    P33 = Ideal(R, tuple(gens))
    m = v(1, 1) * v(2, 2) * v(3, 3)
    assert P33.contains(v(1, 1) * m)          # x11^2 x22 x33
    assert not P33.contains(m)                # x11 x22 x33
    assert radical(P33).contains(m)


def test_sparse_ideal_with_two_cells():
    R = Ring(QQ, ["x1", "x2", "x3", "x4", "x5"])
    v = [R.var(i) for i in range(5)]
    I = Ideal(
        R,
        (
            v[0] * v[3] ** 2 - v[1] * v[4] ** 2,
            v[0] ** 3 * v[2] ** 3 - v[1] ** 4 * v[3] ** 2,
            v[1] * v[3] ** 8 - v[2] ** 3 * v[4] ** 6,
        ),
    )
    comps = cellular_decomposition(I)
    assert sorted(c.cell for c in comps) == [(0, 1, 2, 3, 4), (2,)]
    assert intersect_all([c.ideal for c in comps], R) == I


def test_cellular_decomposition_of_prime():
    R = Ring(QQ, ["x", "y"])
    P = Ideal(R, (R.var(0) - R.var(1),))
    comps = cellular_decomposition(P)
    assert len(comps) == 1 and comps[0].cell == (0, 1) and comps[0].ideal == P


def test_nilpotent_quadric_primary():
    R = Ring(QQ, ["a", "b", "c", "d"])
    a, b, c, d = (R.var(i) for i in range(4))
    I = Ideal(R, (a * b - c * d, a * a, b * b, c * c, a * c, b * c))
    assert is_primary(I).primary
    rep = is_primary(I + (a,))
    assert not rep.primary
    w1, w2 = rep.witnesses
    assert w1 != w2


def test_cubic_pair_primary_decomposition():
    R = Ring(QQ, ["x", "y"])
    x, y = R.var(0), R.var(1)
    I = Ideal(R, (x**3 - y**3, x**4 * y**5 - x**5 * y**4))
    comps = primary_decomposition(I)
    assert len(comps) == 2
    minimal = [c for c in comps if not c.embedded]
    embedded = [c for c in comps if c.embedded]
    assert len(minimal) == 1 and minimal[0].ideal == Ideal(R, (x - y,))
    assert len(embedded) == 1 and embedded[0].prime == Ideal(R, (x, y))
    assert intersect_all([c.ideal for c in comps], R) == I
    # associated primes per cellular component: {(x-y), (x,y)}
    aps = set()
    for comp in cellular_decomposition(I):
        for s in associated_prime_characters(comp.ideal, comp.cell):
            aps.add(character_prime_ideal(R, s).key())
    assert aps == {Ideal(R, (x - y,)).key(), Ideal(R, (x, y)).key()}


@pytest.fixture
def deg7_curve():
    R = Ring(QQ, ["a", "b", "c", "d"])
    a, b, c, d = (R.var(i) for i in range(4))
    I = Ideal(
        R,
        (
            c**5 - b**2 * d**3,
            a**5 * d**2 - b**7,
            b**5 - a**3 * c**2,
            a**2 * d**5 - c**7,
        ),
    )
    return R, I


def test_deg7_curve_cellular(deg7_curve):
    R, I = deg7_curve
    a, b, c, d = (R.var(i) for i in range(4))
    comps = cellular_decomposition(I)
    assert sorted(c2.cell for c2 in comps) == [(), (0,), (0, 1, 2, 3), (3,)]
    by_cell = {c2.cell: c2 for c2 in comps}
    P = radical(I)
    assert by_cell[(0, 1, 2, 3)].ideal == P
    assert by_cell[(0,)].ideal == Ideal(
        R, (b**2 * c**2 - a**2 * d**2, b**5 - a**3 * c**2, b**2 * d**2, c**4, c**2 * d**2, d**4)
    )
    assert by_cell[(3,)].ideal == Ideal(
        R, (b**2 * c**2 - a**2 * d**2, c**5 - b**2 * d**3, a**2 * c**2, b**4, a**2 * b**2, a**4)
    )
    assert by_cell[()].ideal == I + (a**7, b**9, c**9, d**7)
    # every cellular component of this circuit ideal is primary
    for c2 in comps:
        assert primary_test(c2.ideal, c2.cell).primary
    # the radical is the saturation of I + (bc - ad)
    assert P == saturate_monomial(
        Ideal(R, I.gens + (b * c - a * d,)), cell_product(R, [0, 1, 2, 3])
    )


def test_deg7_curve_circuits_and_faces(deg7_curve):
    R, I = deg7_curve
    lat = Lattice.kernel_of([[7, 5, 2, 0], [0, 2, 5, 7]])
    rho = PartialCharacter((0, 1, 2, 3), lat, (Fraction(1),) * 2, QQ)
    assert circuit_ideal(R, rho) == I
    P = ideal_from_character(R, rho)
    assert radical(I) == P  # the circuit ideal's radical is the lattice ideal
    # the faces of P are the cells Z with P_Z proper: its proper cells
    faces = [z for z, _ in cell_scan(P)]
    assert sorted(faces) == sorted([(), (0,), (3,), (0, 1, 2, 3)])


def test_circuit_ideal_totally_unimodular():
    # for a unimodular kernel the circuit ideal equals the lattice ideal
    R = Ring(QQ, ["x", "y", "z"])
    lat = Lattice.kernel_of([[1, 1, 1]])
    rho = PartialCharacter((0, 1, 2), lat, (Fraction(1),) * lat.rank, QQ)
    ci = circuit_ideal(R, rho)
    assert ci == ideal_from_character(R, rho)


def test_nested_power_membership_primary():
    R = Ring(QQ, ["x0", "x1", "x2", "x3"])
    k0, k1, k2, k3 = (R.var(i) for i in range(4))
    I = Ideal(R, (k1**2, k1 * k3 - k2**2, k2 * k3 - k0**2))
    assert I.contains(k0**8)
    assert not I.contains(k0**7)
    rep = is_primary(I)
    assert rep.primary
    assert rep.radical == Ideal(R, (k0, k1, k2))


def test_hull_examples():
    R = Ring(QQ, ["x", "y"])
    x, y = R.var(0), R.var(1)
    assert hull(Ideal(R, (x * x, x * y))) == Ideal(R, (x,))
    primary = Ideal(R, (x * x, y))
    assert hull(primary) == primary
    # an embedded component with maximal radical is its own hull
    I = Ideal(R, (x**3 - y**3, x**4 * y**5 - x**5 * y**4))
    emb = [c for c in primary_decomposition(I) if c.embedded][0]
    assert hull(emb.ideal) == emb.ideal


def test_localize_finite_index_case():
    # localizing (x^2-1) at its minimal prime (x-1) exercises the
    # finite-index case: the agreement lattice is 2Z inside Z
    R = Ring(QQ, ["x"])
    x = R.var(0)
    I = Ideal(R, (x * x - 1,))
    P = Ideal(R, (x - 1,))
    out = localize(I, P, (0,))
    assert out == P
    out2 = localize(I, Ideal(R, (x + 1,)), (0,))
    assert out2 == Ideal(R, (x + 1,))


def test_localize_non_root_of_unity_case():
    # J = (u, x - 2) and the embedded prime (u, x - 1) of I share the
    # lattice Z, where their characters differ by 2, not a root of unity:
    # Case 2 with the rho-binomial x - 1 of the row of L_0
    R = Ring(QQ, ["x", "u"])
    x, u = R.var(0), R.var(1)
    I = Ideal(R, (u**2, u * (x - 1)))
    J = Ideal(R, (u, x - 2))
    seen = {}
    assert localize(I, J, (0,)) == _localize_loop(I, J, (0,), seen) == Ideal(R, (u,))
    assert seen["cases"] == {2}
    sigma = character_from_cellular(J, (0,))
    rho = character_from_cellular(Ideal(R, (u, x - 1)), (0,))
    assert decompose._embedded_prime_poly(sigma, rho, (0,), R) == x - 1
    # with rho as sigma, the character of (u, x + 1) differs from it by -1,
    # a root of unity of order 2: Case 1, b^[2]/b = x + 1 for b = x - 1
    minus = character_from_cellular(Ideal(R, (u, x + 1)), (0,))
    assert decompose._embedded_prime_poly(rho, minus, (0,), R) == x + 1


def _ladder(k):
    """lcm(1..k), the exponent ladder of the old colon loop."""
    return lcm(*range(1, k + 1))


def _brute_order(z, one, bound=10_000):
    """The least k <= bound with z^k = 1, or None: z's order as a root of
    unity, found by multiplying."""
    acc = z
    for k in range(1, bound + 1):
        if acc == one:
            return k
        acc = acc * z
    return None


def _case_1_colon_ladder(cur, sigma, rho, cell):
    """Case 1 of the reference loop: colon by b^[d]/b^[q] for
    d = o·lcm(1..k) and q its p-part, accepting the first binomial result
    that differs from cur."""
    ring = cur.ring
    l0 = sigma.lattice.intersection(rho.lattice)
    m = next(row for row in l0.basis if sigma.value(row) != rho.value(row))
    c = sigma.value(m)
    b = lattice_binomial(ring, cell, m, c)
    o = _brute_order(rho.value(m) / c, ring.field.one)
    for k in range(1, MAX_ESCALATION + 1):
        d = o * _ladder(k)
        out = colon_quasipower_ratio(cur, b, d, p_part(d, ring.field.char))
        if out.is_binomial() and out != cur:
            return out
    raise EscalationLimit("finite-index colon failed to progress")


def _case_2_colon_ladder(cur, rho, m, cell):
    """Case 2 of the reference loop: colon by b^[d] up the ladder, for b the
    rho-binomial of m, accepting out = (cur : b^[d]) once it is binomial,
    equal to (out : b^[d]) and different from cur."""
    ring = cur.ring
    b = lattice_binomial(ring, cell, m, rho.value(m))
    for k in range(1, MAX_ESCALATION + 1):
        bd = quasi_power(b, _ladder(k))
        out = colon_poly(cur, bd)
        if not out.is_binomial():
            continue
        if colon_poly(out, bd) != out:
            continue
        if out != cur:
            return out
    raise EscalationLimit("quasi-power colon failed to progress")


def _localize_loop(i, j, cell, seen):
    """Reference for `localize`: the Noetherian loop, which re-scans Ass(cur)
    each round and colons the first embedded prime away.  Adds to `seen` the
    cases taken and the embedded primes of the first round.

    The embedded primes are found by ideal containment and the case by
    brute force: Case 1 when L_0 = L_sigma ∩ L_rho has the rank of L_rho and
    sigma/rho has a finite order on every basis row of L_0; otherwise Case 2
    with m a basis row of L_rho outside Sat(L_0), or else a basis row of L_0
    of infinite order."""
    ring = i.ring
    one = ring.field.one
    sigma = p_saturation(character_from_cellular(j, cell))
    min_primes = [character_prime_ideal(ring, s) for s in character_saturations(sigma)]
    cur = Ideal(i.ring, i.gb().polys)
    for _ in range(200):
        if cur.is_unit():
            return cur
        embedded = [
            rho for rho in associated_prime_characters(cur, cell)
            if not any(q.contains(character_prime_ideal(ring, rho)) for q in min_primes)
        ]
        if not embedded:
            return cur
        seen.setdefault("embedded", len(embedded))
        rho = embedded[0]
        l0 = sigma.lattice.intersection(rho.lattice)
        infinite = [row for row in l0.basis
                    if _brute_order(sigma.value(row) / rho.value(row), one) is None]
        if l0.rank == rho.lattice.rank and not infinite:
            seen.setdefault("cases", set()).add(1)
            cur = _case_1_colon_ladder(cur, sigma, rho, cell)
        else:
            seen.setdefault("cases", set()).add(2)
            sat = l0.saturation()
            outside = [row for row in rho.lattice.basis if row not in sat]
            cur = _case_2_colon_ladder(cur, rho, (outside + infinite)[0], cell)
    raise EscalationLimit("localization loop failed to terminate")


def _cellular_with_embedded_primes(rng):
    """A cellular binomial ideal on the cell of its x variables: powers of
    the off-cell variables u, w and off-cell variables times binomials in
    the cell, saturated at the cell product.  Its embedded primes carry
    lattices that the minimal ones lack, which is Case 2 of `localize`."""
    field = rng.choice([QQ, FiniteField(5), FiniteField(7)])
    ncell, noff = rng.randint(2, 3), rng.randint(1, 2)
    R = Ring(field, [f"x{i}" for i in range(ncell)] + ["u", "w"][:noff])
    n = ncell + noff
    cell = tuple(range(ncell))

    def binomial():
        a, b = (tuple(rng.randint(0, 2) for _ in cell) + (0,) * noff for _ in range(2))
        return R.monomial(a) - R.monomial(b, rng.choice([1, -1] if field is QQ else [1, -1, 2, 3]))

    gens = [R.var(v) ** rng.randint(2, 3) for v in range(ncell, n)]
    gens += [R.var(rng.randrange(ncell, n)) * binomial() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        gens.append(binomial())
    return saturate_monomial(Ideal(R, gens), cell_product(R, cell)), cell


def _cellular_with_split_minimal_primes(rng):
    """A cellular ideal whose lattice is not saturated: a cell binomial
    x^(g·a) − ζ·x^(g·b) with g in {2, 3} over a field holding the roots it
    needs, plus an off-cell variable u times cell binomials x^a − ζ'·x^b.
    Localized at one of its minimal primes, the others are of finite index
    in its lattice, which is Case 1 of `localize`."""
    field, units = rng.choice([
        (CycloField(6), [zeta(6, k) for k in range(6)]),
        (FiniteField(7), list(range(1, 7))),
        (FiniteField(13), list(range(1, 13))),
    ])
    R = Ring(field, ["x0", "x1", "u"])
    cell = (0, 1)
    g = rng.choice([2, 3])
    a, b = rng.choice([((1, 0), (0, 1)), ((1, 0), (0, 0)), ((2, 0), (0, 1))])

    def binomial(e, f, k=1):
        c = rng.choice(units)
        return R.monomial((k * e[0], k * e[1], 0)) - R.monomial((k * f[0], k * f[1], 0), c)

    gens = [binomial(a, b, g), R.var(2) ** rng.randint(2, 3)]
    for _ in range(rng.randint(1, 2)):
        e, f = (tuple(rng.randint(0, 2) for _ in cell) for _ in range(2))
        gens.append(R.var(2) * binomial(e, f))
    return saturate_monomial(Ideal(R, gens), cell_product(R, cell)), cell


def _localization_inputs():
    """Seeded (I, J, cell) triples for `localize`: I cellular, J either I or
    one of its associated primes."""
    rng = random.Random(18)
    out = []
    for make in [_cellular_with_embedded_primes] * 80 + [_cellular_with_split_minimal_primes] * 40:
        i, cell = make(rng)
        if i.is_unit():
            continue
        assert is_cellular(i) == (True, cell), i
        try:
            ass = associated_prime_characters(i, cell)
        except (RootNotInField, RootNotCyclotomic):  # the field lacks a root it needs
            continue
        out.append((i, i, cell))
        out.append((i, character_prime_ideal(i.ring, rng.choice(ass)), cell))
    return out


def test_localize_matches_the_colon_loop():
    # I_(J) is unique, so one saturation must give what the loop of
    # colon ladders gives
    reached = {1: 0, 2: 0}
    two_embedded = 0
    for i, j, cell in _localization_inputs():
        seen = {}
        want = _localize_loop(i, j, cell, seen)
        assert localize(i, j, cell).key() == want.key(), (i, j)
        for case in seen.get("cases", ()):
            reached[case] += 1
        two_embedded += seen.get("embedded", 0) >= 2
    assert min(reached.values()) >= 10 and two_embedded >= 5, (reached, two_embedded)


def test_localize_scans_and_saturates_once(monkeypatch):
    calls = {"ass": 0, "sat": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(decompose, "associated_prime_characters",
                        counted("ass", associated_prime_characters))
    monkeypatch.setattr(decompose, "saturate_poly", counted("sat", saturate_poly))
    for i, j, cell in _localization_inputs():
        calls.update(ass=0, sat=0)
        localize(i, j, cell)
        assert calls["ass"] == 1 and calls["sat"] <= 1, (i, j, calls)


def test_extends_matches_prime_containment():
    # P_rho ⊆ P_s exactly when s extends rho (ES Thm 2.1), for the minimal
    # primes of J and the associated primes of I on the cell
    verdicts = []
    for i, j, cell in _localization_inputs():
        ring = i.ring
        sats = character_saturations(p_saturation(character_from_cellular(j, cell)))
        chars = {c.key(): c for c in sats + associated_prime_characters(i, cell)}
        primes = {k: character_prime_ideal(ring, c) for k, c in chars.items()}
        for s in sats:
            for k, rho in chars.items():
                want = primes[s.key()].contains(primes[k])
                assert s.extends(rho) == want, (s, rho)
                verdicts.append(want)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50, len(verdicts)


def test_localize_builds_no_prime_ideal_of_j(monkeypatch):
    calls = []

    def counted(ring, rho):
        calls.append(rho)
        return character_prime_ideal(ring, rho)

    monkeypatch.setattr(decompose, "character_prime_ideal", counted)
    R = Ring(QQ, ["x", "y", "z"])
    x, y, z = (R.var(v) for v in range(3))
    for P in (Ideal(R, (x - y,)), Ideal(R, (x - y, y**2 - z))):
        assert localize(P, P, (0, 1, 2)) is P
    assert calls == []


def _frobenius_power(p_ideal, q):
    """P^[q], generated by the q-th powers of P's generators, each taken
    term by term as Frobenius does in char p."""
    ring = p_ideal.ring
    return Ideal(ring, [
        Polynomial.from_dict(ring, {tuple(q * x for x in e): c**q for e, c in g.terms})
        for g in p_ideal.gens
    ])


def _component_hull_by_cell_saturation(j, cell, s, q):
    """Reference for `_component_hull`: the hull of J + I(s) in char 0, of
    J + P_s^[q] in char p, each saturated by the whole cell product."""
    ring = j.ring
    if q == 1:
        extra = ideal_from_character(ring, s)
    else:
        extra = _frobenius_power(character_prime_ideal(ring, s), q)
    r = saturate_poly(Ideal(ring, j.gens + extra.gens), cell_product(ring, cell))
    return localize(r, r, cell)


def _hull_inputs(seed, count):
    """Seeded (J, cell, s, q): J cellular, s an associated prime of J, and q
    = 1 in char 0, q in {p, p^2} in char p."""
    rng = random.Random(seed)
    out = []
    for make in [_cellular_with_embedded_primes] * (3 * count) + [_cellular_with_split_minimal_primes] * count:
        j, cell = make(rng)
        if j.is_unit():
            continue
        try:
            ass = associated_prime_characters(j, cell)
        except (RootNotInField, RootNotCyclotomic):  # the field lacks a root it needs
            continue
        p = j.ring.field.char
        out.extend((j, cell, s, q) for s in ass for q in ((p, p * p) if p else (1,)))
    return out


def _rank_class(s):
    return "zero" if s.rank == 0 else "full" if s.rank == len(s.cell) else "partial"


def test_component_hull_matches_the_cell_saturation():
    # one formula in every characteristic: basis binomials, Frobenius-powered
    # in char p, saturated only at the free variables
    reached = {}
    for j, cell, s, q in _hull_inputs(9, 20):
        want = _component_hull_by_cell_saturation(j, cell, s, q)
        assert _component_hull(j, cell, s, q).key() == want.key(), (j, s, q)
        cls = (_rank_class(s), q > 1)
        reached[cls] = reached.get(cls, 0) + 1
    assert len(reached) == 6 and min(reached.values()) >= 10, reached


def test_component_hull_saturates_only_at_free_variables(monkeypatch):
    # before the hull's localize no auxiliary variable is adjoined, and the
    # saturation asks for saturation orders only at the free variables of
    # s: not at all at full rank, nor when nothing was added to J (rank 0,
    # in char 0 or on a cell of all the variables: K = J is cellular)
    from binomials import ideals

    aux, asked = [], []
    real_aux, real_order = ideals._with_aux, ideals.saturation_order
    monkeypatch.setattr(ideals, "_with_aux", lambda *args: aux.append(args) or real_aux(*args))
    monkeypatch.setattr(ideals, "saturation_order",
                        lambda i, v: asked.append(v) or real_order(i, v))
    monkeypatch.setattr(decompose, "localize", lambda i, j, cell: i)
    reached = {}
    for j, cell, s, q in _hull_inputs(9, 5):
        aux.clear()
        asked.clear()
        _component_hull(j, cell, s, q)
        pivots = {s.cell[next(k for k, x in enumerate(row) if x)] for row in s.lattice.basis}
        free = [v for v in s.cell if v not in pivots]
        assert (not free) == (_rank_class(s) == "full")
        added = s.rank > 0 or (q > 1 and len(cell) < j.ring.nvars)
        assert not aux, (j, s, q)
        assert asked == (free if added else []), (j, s, q)
        cls = _rank_class(s) if added else "nothing added"
        reached[cls] = reached.get(cls, 0) + 1
    assert min(reached.values()) >= 5 and len(reached) == 4, reached


def test_localize_drops_everything_when_disjoint():
    R = Ring(QQ, ["x"])
    x = R.var(0)
    I = Ideal(R, (x - 2,))
    out = localize(I, Ideal(R, (x - 1,)), (0,))
    assert out.is_unit()


def test_primary_decomposition_x6_minus_1():
    R = Ring(QQ, ["x"])
    x = R.var(0)
    comps = primary_decomposition(Ideal(R, (x**6 - 1,)))
    assert len(comps) == 6
    roots = []
    for pc in comps:
        (g,) = pc.ideal.gb().polys
        assert g.total_degree() == 1 and not pc.embedded
        roots.append(-g.coefficient_of((0,)))
    for r in roots:
        assert r**6 == 1
    assert len({repr(r) for r in roots}) == 6


def test_primary_decomposition_char2():
    F2 = FiniteField(2)
    R = Ring(F2, ["x"])
    x = R.var(0)
    comps = primary_decomposition(Ideal(R, (x * x - 1,)))
    assert len(comps) == 1
    assert comps[0].ideal == Ideal(R, (x * x - 1,))
    assert comps[0].prime == Ideal(R, (x - 1,))


def test_primary_decomposition_frobenius_binomial():
    # (x^2 - y^2) over F_2 is (x-y)^2-primary-free: it is (x-y)^2's ideal
    F2 = FiniteField(2)
    R = Ring(F2, ["x", "y"])
    x, y = R.var(0), R.var(1)
    comps = primary_decomposition(Ideal(R, (x * x - y * y,)))
    assert len(comps) == 1
    assert comps[0].prime == Ideal(R, (x - y,))


def test_is_cellular_against_rabinowitsch():
    # reference: an off-cell x_v is nilpotent iff (I : x_v^inf) is the unit ideal
    rnd = random.Random(15)
    outcomes = set()
    for _ in range(150):
        R = Ring(rnd.choice([QQ, FiniteField(5)]), ["x", "y", "z"])
        gens = []
        for _ in range(rnd.randint(1, 3)):
            e1 = tuple(rnd.randint(0, 3) for _ in range(3))
            e2 = tuple(rnd.randint(0, 3) for _ in range(3))
            gens.append(R.monomial(e1) - R.monomial(e2) * rnd.choice([0, 1, -1, 2]))
        I = Ideal(R, gens)
        if I.is_unit() or I.is_zero():
            continue
        cell = nonzerodivisor_variables(I)
        off = [v for v in range(3) if v not in cell]
        expected = all(saturate_poly(I, R.var(v)).is_unit() for v in off)
        assert is_cellular(I) == (expected, cell), gens
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_thickened_line_not_primary():
    R = Ring(QQ, ["x1", "x2", "x3"])
    w1, w2, w3 = (R.var(i) for i in range(3))
    I = Ideal(R, (w1 * w1, w1 * w2 - w1 * w3))
    ok, cell = is_cellular(I)
    assert ok and cell == (1, 2)
    rep = is_primary(I)
    assert not rep.primary
    # direct computation gives radical (x1)
    assert rep.radical == Ideal(R, (w1,))
    assert radical(I) == Ideal(R, (w1,))
    comps = primary_decomposition(I)
    assert intersect_all([c.ideal for c in comps], R) == I
    primes = {c.prime.key() for c in comps}
    assert primes == {
        Ideal(R, (w1,)).key(),
        Ideal(R, (w1, w2 - w3)).key(),
    }


def test_primary_test_without_cell_decides_non_cellular_input():
    # with no cell given, primary_test must not take the inferred cell of a
    # non-cellular ideal as if it were cellular: it answers like is_primary
    R1 = Ring(QQ, ["x"])
    x = R1.var(0)
    R2 = Ring(QQ, ["x", "y"])
    u, v = R2.var(0), R2.var(1)
    for I in (Ideal(R1, (x * x - x,)), Ideal(R2, (u * u - u * v, u * v - v * v))):
        assert not is_cellular(I)[0]
        rep, ref = primary_test(I), is_primary(I)
        assert not rep.primary and not ref.primary
        assert rep.radical == ref.radical == radical(I)
        assert {w.key() for w in rep.witnesses} == {w.key() for w in ref.witnesses}


def test_zero_and_unit_edges():
    R = Ring(QQ, ["x", "y"])
    zero = Ideal(R)
    assert radical(zero) is zero
    assert minimal_primes(zero) == [zero]
    comps = primary_decomposition(zero)
    assert len(comps) == 1 and comps[0].ideal.is_zero()
    unit = Ideal(R, (R.one,))
    assert radical(unit) is unit
    assert primary_decomposition(unit) == []
    assert minimal_primes(unit) == []


def test_quartic_plus_one_needs_eighth_roots():
    R = Ring(QQ, ["x"])
    x = R.var(0)
    comps = primary_decomposition(Ideal(R, (x**4 + 1,)))
    assert len(comps) == 4
    for pc in comps:
        (g,) = pc.ideal.gb().polys
        r = -g.coefficient_of((0,))
        assert r**4 == -1


def test_gf9_full_splitting():
    F9 = FiniteField(3, 2)
    R = Ring(F9, ["x"])
    x = R.var(0)
    comps = primary_decomposition(Ideal(R, (x**8 - 1,)))
    assert len(comps) == 8
    assert all(not pc.embedded for pc in comps)


def test_gf3_missing_roots_is_an_error():
    from binomials.errors import RootNotInField

    R = Ring(FiniteField(3), ["x"])
    x = R.var(0)
    with pytest.raises(RootNotInField):
        primary_decomposition(Ideal(R, (x**4 - 1,)))


def test_hull_with_two_embedded_primes():
    R = Ring(QQ, ["x", "y", "z"])
    x, y, z = (R.var(i) for i in range(3))
    pieces = [Ideal(R, (x,)), Ideal(R, (x * x, y * y)), Ideal(R, (x**3, z**3))]
    I = intersect_all(pieces, R)
    assert I.is_binomial()
    assert hull(I) == Ideal(R, (x,))
    comps = primary_decomposition(I)
    assert intersect_all([pc.ideal for pc in comps], R) == I
    assert sum(1 for pc in comps if pc.embedded) == 2


def test_non_radical_mixed_ideal():
    R = Ring(QQ, ["x", "y", "z"])
    x, y, z = (R.var(i) for i in range(3))
    I = Ideal(R, (x * y, y * z - z * z))
    rad = radical(I)
    assert rad.contains(x * z) and not I.contains(x * z)
    mp = minimal_primes(I)
    expected = [Ideal(R, (x, z)), Ideal(R, (x, y - z)), Ideal(R, (y, z))]
    assert len(mp) == 3
    for e in expected:
        assert any(p == e for p in mp)


def _primary_pruned_by_all_others(comps, ring):
    """Reference pruning: an embedded candidate is dropped when it contains
    the intersection of all the other components; rescan after each drop."""
    comps = list(comps)
    changed = True
    while changed:
        changed = False
        for idx, pc in enumerate(comps):
            if not pc.embedded:
                continue
            others = [c.ideal for j, c in enumerate(comps) if j != idx]
            if others and pc.ideal.contains(intersect_all(others, ring)):
                comps.pop(idx)
                changed = True
                break
    return comps


def _cells_pruned_by_all_others(comps, ideal):
    """Reference pruning: keep the inclusion-minimal pieces, then, smallest
    cells first, drop a piece when the others still intersect to the ideal;
    rescan after each drop and return the largest cells first."""
    kept = [a for a in comps
            if not any(a is not b and a.ideal.contains(b.ideal) and a.ideal != b.ideal
                       for b in comps)]
    kept.sort(key=lambda c: (len(c.cell), c.cell))
    changed = True
    while changed and len(kept) > 1:
        changed = False
        for idx in range(len(kept)):
            others = [c.ideal for j, c in enumerate(kept) if j != idx]
            if intersect_all(others, ideal.ring) == ideal:
                kept.pop(idx)
                changed = True
                break
    kept.sort(key=lambda c: (-len(c.cell), c.cell))
    return kept


def test_localized_pruning_matches_all_others_rule():
    fixed = [
        (QQ, "x,y", "x^3-y^3, x^4*y^5-x^5*y^4", True),
        # the curve: cellular only, its primary pass takes about 20 s
        (QQ, "a,b,c,d", "c^5-b^2*d^3, a^5*d^2-b^7, b^5-a^3*c^2, a^2*d^5-c^7", False),
        (QQ, "x1,x2,x3,y", "x1-y*x2, x2-y*x3, x3-y*x1", True),
        (CycloField(6), "x", "x^6-1", True),
        (FiniteField(2), "x", "x^2-1", True),
        (FiniteField(2, 3, (1, 1, 0, 1)), "x,y", "x^2*y-t*y^3", True),
        # each has a redundant embedded primary candidate
        (QQ, "x,y,z", "x^4*z^2+x^3*z^3, x^3*y^3*z^4+x^3*y^3*z^3, x^2*y^4*z^2+x^2*y^2*z^2", True),
        (QQ, "x,y,z", "x^3*y^3-x^3*y^4, x^2*y^2*z^2-x^3*y*z^2", True),
        (FiniteField(5), "x,y", "x^4*y^2-x^4, x^3*y^2+x^3*y, x^2*y^2-x^2*y^4", True),
    ]
    cases = []
    for field, names, gens, primary in fixed:
        R = Ring(field, names.split(","))
        cases.append((Ideal(R, [R.parse(g) for g in gens.split(", ")]), primary))
    # monomial multiples of binomials leave embedded candidates to prune
    rng = random.Random(7)
    F5 = FiniteField(5)
    for k in range(60):
        R = Ring(QQ if k % 2 else F5, ["x", "y", "z"][: rng.choice((2, 3))])
        gens = []
        for _ in range(rng.choice((2, 3))):
            m, a, b = (tuple(rng.randrange(3) for _ in range(R.nvars)) for _ in range(3))
            gens.append(R.monomial(m) * (R.monomial(a) - R.monomial(b, rng.choice((1, -1)))))
        cases.append((Ideal(R, gens), True))
    dropped = {"cellular": 0, "primary": 0}
    for ideal, primary in cases:
        if ideal.is_unit() or ideal.is_zero():
            continue
        ring = ideal.ring
        pieces = _cellular_pieces(ideal)
        kept = _prune_redundant(pieces, _cell_below, ring)
        assert kept == _cells_pruned_by_all_others(pieces, ideal), ideal
        dropped["cellular"] += len(kept) < len(pieces)
        if not primary:
            continue
        try:
            cands = _primary_candidates(ideal)
        except RootNotInField:  # GF(5) lacks the roots of unity this ideal needs
            continue
        kept = _prune_redundant(cands, _prime_below, ring)
        assert kept == _primary_pruned_by_all_others(cands, ring), ideal
        dropped["primary"] += len(kept) < len(cands)
    assert dropped["cellular"] >= 10 and dropped["primary"] >= 3, dropped


def test_certificate_fold_does_not_depend_on_input_order():
    # intersect_all folds by basis length, so a permutation of its inputs
    # can only reorder ties; the unit ideal and I itself are skipped
    showcase = (
        "b*d^2-a*f^2, b*c*e-a*c*f, b*c*d-a*c*e, b^2*e-a*b*f, b^2*c, a*e^2-b*f^2, "
        "a*d^2-b*e^2, a*c*d-b*c*f, a*b*e-a^2*f, a*b*c, a*b^2-b^3, a^2*e-b^2*f, a^2*c, "
        "b^4, a^2*b-b^3, a^3-b^3, c^3*e-c^3*f, c^4, b^3*d-b^3*f, a*c^3-b*c^3, "
        "c*d^4-c*e^2*f^2"
    )
    rng = random.Random(16)
    for field, names, gens, shuffles in (
        (CycloField(12), "a,b,c,d,e,f", showcase, 2),
        (QQ, "x1,x2,x3,y", "x1-y*x2, x2-y*x3, x3-y*x1", 8),
    ):
        R = Ring(field, names.split(","))
        I = Ideal(R, [R.parse(g) for g in gens.split(", ")])
        comps = [pc.ideal for pc in primary_decomposition(I)] + [Ideal(R, (R.one,)), I]
        orders = [comps, comps[::-1]]
        for _ in range(shuffles):
            orders.append(rng.sample(comps, len(comps)))
        assert {intersect_all(order, R).key() for order in orders} == {I.key()}


def test_hull_and_components_agree_with_the_f25_variety_oracle():
    # V(hull I) = V(I), and the components' primes cover V(I), on every
    # point of F_25^2; the brute-force oracle shares no code with localize.
    # Pairs of generators, then triples.
    from f5_oracle import (
        POINTS_25,
        _mono_value,
        all_generators,
        all_ideal_generating_sets,
        f25_mul,
        variety,
    )

    F25 = FiniteField(5, 2, (3, 0, 1))  # t^2 = 2, matching the oracle tables
    R = Ring(F25, ["x", "y"])
    points = range(len(POINTS_25))

    def zeros(ideal):
        polys = [
            [(e, (tuple(c.coeffs) + (0,))[:2]) for e, c in p.terms] for p in ideal.gb().polys
        ]

        def vanishes(i):
            for terms in polys:
                v = (0, 0)
                for e, c in terms:
                    w = f25_mul(c, _mono_value(e, i))
                    v = ((v[0] + w[0]) % 5, (v[1] + w[1]) % 5)
                if v != (0, 0):
                    return False
            return True

        return {i for i in points if vanishes(i)}

    def check(sets):
        checked = embedded = 0
        for gs in sets:
            ideal = Ideal(R, [
                R.monomial(e1, c1) + (R.monomial(e2, c2) if e2 is not None else R.zero)
                for e1, c1, e2, c2 in gs
            ])
            try:
                comps = primary_decomposition(ideal)
                h = hull(ideal)
            except RootNotInField:  # a component needs GF(5^4)
                continue
            vi = set(variety(gs, points))
            assert zeros(h) == vi, gs
            assert set().union(*(zeros(pc.prime) for pc in comps)) == vi, gs
            checked += 1
            embedded += any(pc.embedded for pc in comps)
        return checked, embedded

    rng = random.Random(18)
    checked, embedded = check(rng.sample(all_ideal_generating_sets(), 150))
    assert checked >= 130 and embedded >= 10, (checked, embedded)
    checked, embedded = check([rng.sample(all_generators(), 3) for _ in range(60)])
    assert checked >= 55 and embedded >= 1, (checked, embedded)
