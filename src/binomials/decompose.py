"""Radical, cellular, associated-prime, hull, and primary decomposition.

The cell scan underlying the radical and minimal-prime computations works
per coordinate cell Z: substitute the off-cell variables by zero in the
reduced Groebner basis and read the partial character straight off the
binomials that remain (ES Thm 2.1), with no Groebner run per cell.  The
character of a cellular piece and the witness checks of `primary_test` are
read the same way, off the piece's own reduced basis, with no elimination.
Decomposition proper runs the witness/standard-monomial machinery on
cellular pieces, removes embedded primes by one saturation per hull, and
certifies every output (exact intersection, primary test) before returning
it.  The piece at each associated prime starts from one formula in every
characteristic, the prime's basis binomials (Frobenius-powered in char p),
saturated only at its free variables and not at all at full rank.

Every saturation at a monomial, the cellular pieces' and the components',
is `saturate_monomial` on the colon tree; only `localize` saturates through
an auxiliary variable, by a product of non-monomial polynomials.  The
witness colons (I : x^m), one per standard monomial m, all come from
`colon_monomial`, whose tree stays on the `Ideal`: when a hull's
associated-prime scan finds no embedded prime, the primary test that
certifies it reuses that scan's colons.

`localize` decides on characters alone which associated primes of I lie in
a minimal prime of J (P_rho ⊆ P_sigma' iff sigma' extends rho) and which
polynomial separates an embedded one (a root-of-unity order or a lattice
row), so it builds no prime ideal of J.
"""

from itertools import combinations
from math import lcm, prod

from . import checks
from .errors import BinomialsError, EscalationLimit
from .characters import (
    PartialCharacter,
    cell_character,
    character_from_cellular,
    character_prime_ideal,
    character_saturations,
    free_variables,
    ideal_from_character,
    lattice_binomial,
    p_saturation,
)
from .ideals import (
    MAX_ESCALATION,
    Ideal,
    cell_product,
    cellular_localize,
    colon_monomial,
    intersect_all,
    quasi_power_ratio,
    saturate_monomial,
    saturate_poly,
    saturation_order,
    standard_monomials,
    nonzerodivisor_variables,
)
from .scalars import root_of_unity_order, scalar_order


class CellularComponent:
    __slots__ = ("ideal", "cell", "exponents")

    def __init__(self, ideal, cell, exponents):
        self.ideal = ideal
        self.cell = tuple(cell)
        self.exponents = tuple(exponents)

    def __repr__(self):
        return f"CellularComponent(cell={self.cell}, ideal={self.ideal!r})"


class PrimaryComponent:
    __slots__ = ("ideal", "prime", "char", "cell", "embedded", "multiplicity")

    def __init__(self, ideal, prime, char, cell):
        self.ideal = ideal
        self.prime = prime
        self.char = char
        self.cell = tuple(cell)
        self.embedded = False  # set once all candidates are known
        self.multiplicity = None  # set by the CLI's `primary` command

    def __repr__(self):
        flag = "embedded" if self.embedded else "minimal"
        return f"PrimaryComponent({flag}, cell={self.cell}, ideal={self.ideal!r})"


class PrimaryTestReport:
    """Outcome of the primary test: decision, radical, and NO-witnesses."""

    __slots__ = ("primary", "radical", "sigma", "witnesses", "reason")

    def __init__(self, primary, radical, sigma, witnesses=None, reason=""):
        self.primary = primary
        self.radical = radical
        self.sigma = sigma
        self.witnesses = witnesses
        self.reason = reason

    def __bool__(self):
        return self.primary


# ---------------------------------------------------------------------------
# the cell scan


def cell_scan(i):
    """All proper cells of I with their characters, as (cell, rho) pairs,
    largest cells first."""
    ring = i.ring
    n = ring.nvars
    gens = i.gb().polys
    out = []
    for size in range(n, -1, -1):
        for cell in combinations(range(n), size):
            rho = cell_character(gens, cell, ring.field)
            if rho is not None:
                out.append((cell, rho))
    return out


# ---------------------------------------------------------------------------
# radical and minimal primes


def radical(i):
    """√I: intersect, over all proper cells, the cell variables plus the
    p-saturated cell lattice ideal (2^n cells instead of the factorial
    variable recursion; the radical of a binomial ideal stays binomial)."""
    ring = i.ring
    if i.is_zero() or i.is_unit():
        return i
    pieces = []
    for _, rho in cell_scan(i):
        rho_p = p_saturation(rho)
        pieces.append(character_prime_ideal(ring, rho_p))
    out = intersect_all(pieces, ring)
    if all(len(g.terms) <= 2 for g in i.gens) and not out.is_binomial():
        raise BinomialsError("radical of a binomial ideal must be binomial")
    if checks.ENABLED:
        assert out.contains(i)
    return out


def minimal_prime_entries(i):
    """Irredundant minimal primes as (cell, character, ideal) triples."""
    ring = i.ring
    if i.is_unit():
        return []
    if i.is_zero():
        full = tuple(range(ring.nvars))
        return [(full, PartialCharacter.trivial(full, ring.field), i)]
    entries = []
    for cell, rho in cell_scan(i):
        for s in character_saturations(p_saturation(rho)):
            entries.append((cell, s))
    seen = {}
    for cell, s in entries:
        p_ideal = character_prime_ideal(ring, s)
        seen.setdefault(p_ideal.key(), (cell, s, p_ideal))
    items = [seen[k] for k in sorted(seen, key=_key_sort)]
    # by prime avoidance a prime contains an intersection of primes only if
    # it contains one of them, so this pairwise test is already the local
    # redundancy test of _prune_redundant, with no intersection computed;
    # the items have distinct keys, so containment here is strict
    keep = []
    for idx, (cell, s, p_ideal) in enumerate(items):
        redundant = False
        for jdx, (_, _, q_ideal) in enumerate(items):
            if idx != jdx and p_ideal.contains(q_ideal):
                redundant = True
                break
        if not redundant:
            keep.append((cell, s, p_ideal))
    keep.sort(key=lambda t: _char_sort_key(t[1]))
    return keep


def minimal_primes(i):
    """Irredundant binomial primes intersecting to √I (cell scan form)."""
    return [p for _, _, p in minimal_prime_entries(i)]


def _key_sort(k):
    return repr(k)


def _char_sort_key(ch):
    return (-len(ch.cell), ch.cell, ch.lattice.basis, tuple(repr(v) for v in ch.values))


# ---------------------------------------------------------------------------
# cellular decomposition


def is_cellular(i):
    """(cellular?, cell).  Cellular: cell variables are nonzerodivisors, the
    others nilpotent, and I is saturated with respect to the cell product.

    x_v is nilpotent iff no prime over I avoids it, i.e. iff v lies in no
    proper cell: a minimal prime's cell is proper, and a proper cell carries
    a prime over I that avoids its variables.
    """
    if i.is_unit() or i.is_zero():
        return (not i.is_unit(), tuple(range(i.ring.nvars)))
    cell = nonzerodivisor_variables(i)
    off = set(range(i.ring.nvars)) - set(cell)
    if off and any(off.intersection(z) for z, _ in cell_scan(i)):
        return (False, cell)
    return (True, cell)


def cellular_decomposition(i):
    """Cellular components with verified exact intersection.

    Starting exponents are the per-variable saturation exponents; all are
    doubled until the intersection identity holds (no a-priori certificate
    exists, so the identity is checked each round).  Redundant components
    are then dropped by the localized test of `_prune_redundant`: a
    Z-cellular piece is tested only against the pieces on cells containing Z.
    """
    ring = i.ring
    if i.is_unit():
        return []
    if i.is_zero():
        return [CellularComponent(i, tuple(range(ring.nvars)), (1,) * ring.nvars)]
    kept = _prune_redundant(_cellular_pieces(i), _cell_below, ring)
    if checks.ENABLED:
        cells = [c.cell for c in kept]
        assert len(set(cells)) == len(cells)
        assert intersect_all([c.ideal for c in kept], ring) == i
    return kept


def _cellular_pieces(i):
    """One cellular localization per proper cell (largest cells first), with
    the exponents doubled until the pieces intersect to exactly I."""
    ring = i.ring
    proper = [cell for cell, _ in cell_scan(i)]
    exps = [max(saturation_order(i, v), 1) for v in range(ring.nvars)]
    for _ in range(MAX_ESCALATION):
        comps = []
        for cell in proper:
            j = cellular_localize(i, cell, exps)
            if not j.is_unit():
                comps.append(CellularComponent(j, cell, tuple(exps)))
        if intersect_all([c.ideal for c in comps], ring) == i:
            return comps
        exps = [2 * e for e in exps]
    raise EscalationLimit("cellular decomposition exponents exceeded escalation bound")


def _cell_below(c, d):
    """d survives localizing at the Z-cellular c: its cell strictly contains Z."""
    return set(d.cell) > set(c.cell)


def _prime_below(c, d):
    """d survives localizing at the prime P of c: its prime lies inside P."""
    return c.prime.contains(d.prime)


def _prune_redundant(comps, below, ring):
    """The members of `comps` that are not redundant, in their order.

    Localizing at a member c turns the members not `below` it into units, so
    c is redundant iff it contains the intersection of those below it (and is
    kept if none is).  Primary: each other Q_j holds a power of some s_j in
    P_j outside the prime P of c, and s·J ⊆ c with s = ∏ s_j forces J ⊆ c.
    Cellular: each other member holds a power of a cell variable of c, a
    nonzerodivisor modulo c.  This needs every member primary (cellular),
    which `primary_decomposition` certifies and `cellular_localize` ensures.
    As `below` is a strict partial order, a drop changes no other verdict,
    so one pass drops exactly the members redundant at the start.
    """
    kept = list(comps)
    for c in comps:
        under = [d.ideal for d in kept if d is not c and below(c, d)]
        if under and c.ideal.contains(intersect_all(under, ring)):
            kept = [d for d in kept if d is not c]
    return kept


# ---------------------------------------------------------------------------
# witness machinery on a cellular ideal


def primary_test(i, cell=None):
    """Decide primariness of a cellular ideal; the radical comes for free.

    Returns a PrimaryTestReport.  In the NO case two distinct associated
    primes are reported as witnesses.  Without a cell this is `is_primary`,
    which decides non-cellular input too.

    Each witness colon (I : x^m) is cellular with the same cell, so the
    elements of its reduced degrevlex basis that involve no off-cell
    variable generate (I : x^m) ∩ k[cell] (proof at
    `character_from_cellular`); the test asks the lattice ideal of sigma
    to contain them, with no elimination run.
    """
    if cell is None:
        return is_primary(i)
    ring = i.ring
    cell = tuple(sorted(cell))
    off = [v for v in range(ring.nvars) if v not in set(cell)]
    sigma = p_saturation(character_from_cellular(i, cell))
    rad = character_prime_ideal(ring, sigma)
    if not sigma.is_saturated():
        sats = character_saturations(sigma)
        w1 = character_prime_ideal(ring, sats[0])
        w2 = character_prime_ideal(ring, sats[1])
        return PrimaryTestReport(
            False, rad, sigma, (w1, w2), "radical is not prime"
        )
    _, maximal = standard_monomials(i, off)
    sigma_ideal = ideal_from_character(ring, sigma)
    for m in maximal:
        if not any(m):
            continue
        im = colon_monomial(i, ring.monomial(m))
        if all(sigma_ideal.contains(g) for g in im.gb().polys if not g.involves(off)):
            continue
        rho = p_saturation(character_from_cellular(im, cell))
        w2 = character_prime_ideal(ring, character_saturations(rho)[0])
        return PrimaryTestReport(
            False,
            rad,
            sigma,
            (rad, w2),
            f"witness monomial exhibits a second associated prime",
        )
    return PrimaryTestReport(True, rad, sigma)


def is_primary(i):
    """Primariness decision for any binomial ideal.

    Cellular input runs the witness test directly.  A primary ideal is necessarily
    cellular (its single associated prime fixes the cell), so non-cellular
    input is decided NO, with two associated primes of the certified primary
    decomposition as witnesses.
    """
    cellular_ok, inferred = is_cellular(i)
    if cellular_ok:
        return primary_test(i, inferred)
    comps = primary_decomposition(i)
    rad = radical(i)
    witnesses = (comps[0].prime, comps[1].prime) if len(comps) >= 2 else None
    return PrimaryTestReport(False, rad, None, witnesses, "ideal is not cellular")


def associated_prime_characters(i, cell):
    """Saturated characters of all associated primes of a cellular ideal,
    one witness colon per standard monomial, duplicate-free and ordered.
    The colons stay in i's colon tree for a later `primary_test` of i."""
    ring = i.ring
    cell = tuple(sorted(cell))
    off = [v for v in range(ring.nvars) if v not in set(cell)]
    stand, _ = standard_monomials(i, off)
    taus = {}
    for m in stand:
        tau = character_from_cellular(colon_monomial(i, ring.monomial(m)), cell)
        taus.setdefault(tau.key(), tau)
    primes = {}
    for tau in taus.values():
        for s in character_saturations(tau):
            primes.setdefault(s.key(), s)
    out = sorted(primes.values(), key=_char_sort_key)
    return out


# ---------------------------------------------------------------------------
# hull / localization at minimal primes


def localize(i, j, cell):
    """I_(J): intersection of the primary components of I contained in a
    minimal prime of J (both cellular with respect to the same cell).

    One scan of Ass(I) and one saturation.  The minimal primes of J are the
    P_sigma' for sigma' a saturation of sigma, the p-saturated character of
    J, and an associated prime P_rho of I lies inside one of them exactly
    when sigma' extends rho.  Proof: let P = M_Z + I_+(·) on the cell Z;
    then P_sigma' ∩ k[Z] = I_+(sigma'), and for a saturated sigma' the
    binomial x^(m+) − c·x^(m−) lies in I_+(sigma') iff m is in L_sigma' and
    c = sigma'(m).  I_+(rho) is its basis binomials saturated at the cell,
    and I_+(sigma') is saturated, so P_rho ⊆ P_sigma' iff sigma' takes
    rho's values on rho's basis rows.  No prime ideal of J is built.

    For each embedded prime P_rho, one extended by no sigma', pick a
    polynomial f_rho in P_rho and in no P_sigma' (`_embedded_prime_poly`);
    a prime holding an earlier f is skipped.  Then I : (∏ f_rho)^∞ keeps
    exactly the primary components whose primes hold no f_rho (ES §6–7):
    those inside a minimal prime of J, since a prime inside P_sigma' holds
    only what P_sigma' holds.  That is I_(J), whichever valid f are picked.

    I_(J) of a cellular binomial ideal is binomial; that is checked.
    """
    ring = i.ring
    cell = tuple(sorted(cell))
    sigma = p_saturation(character_from_cellular(j, cell))
    sats = character_saturations(sigma)
    if i.is_unit():
        return i
    fs = []
    for rho in associated_prime_characters(i, cell):
        if any(s.extends(rho) for s in sats):
            continue
        p_ideal = character_prime_ideal(ring, rho)
        if any(p_ideal.contains(f) for f in fs):
            continue
        fs.append(_embedded_prime_poly(sigma, rho, cell, ring))
    if not fs:
        return i
    out = saturate_poly(i, prod(fs))
    if not out.is_binomial():
        raise BinomialsError("localization of a cellular binomial ideal is not binomial")
    return out


def _embedded_prime_poly(sigma, rho, cell, ring):
    """A polynomial in P_rho and in no P_sigma', for P_rho an embedded prime
    of `localize` (no saturation sigma' of sigma extends rho).

    Case 2, m a basis row of L_rho outside Sat(L_sigma) = L_sigma', or else
    a basis row of L_0 = L_sigma ∩ L_rho on which sigma/rho is not a root of
    unity.  f = b = x^(m+) − rho(m)·x^(m−) is in P_rho.  If P_sigma' held
    b, m would lie in L_sigma' with sigma'(m) = rho(m); the first m lies
    outside L_sigma', and the second lies in L_sigma, so sigma'(m) =
    sigma(m) ≠ rho(m).

    Case 1, otherwise: L_rho lies in Sat(L_sigma), so L_0 has finite index
    in L_rho, and sigma/rho is a root of unity on all of L_0.  These are
    exactly the conditions for the agreement lattice {m in L_0 : sigma(m) =
    rho(m)} to have finite index in L_rho.  Take the first basis row m of L_0
    with sigma(m) != rho(m); one exists, or some sigma' would extend rho.
    Let b = x^(m+) − c·x^(m−) for c = sigma(m), and o the order of the root
    of unity zeta = rho(m)/c (prime to p in char p, as is the order of every
    root of unity there).  Then
    f = b^[o]/b = sum over k < o of x^((o−1−k)·m+)·(c·x^(m−))^k.
    Modulo P_rho, x^(m+) ≡ zeta·c·x^(m−), so
    f ≡ (c·x^(m−))^(o−1)·sum_k zeta^(o−1−k) = 0.  Modulo P_sigma',
    x^(m+) ≡ c·x^(m−), as m is in L_sigma ⊆ L_sigma', so
    f ≡ o·(c·x^(m−))^(o−1), with o != 0 and x^(m−) outside the prime.
    """
    field = ring.field
    sat = sigma.lattice.saturation()
    m = next((row for row in rho.lattice.basis if row not in sat), None)
    l0 = sigma.lattice.intersection(rho.lattice).basis
    if m is None:
        m = next((row for row in l0 if root_of_unity_order(
            sigma.value(row) / rho.value(row), field) is None), None)
    if m is not None:
        return lattice_binomial(ring, cell, m, rho.value(m))
    m = next((row for row in l0 if sigma.value(row) != rho.value(row)), None)
    if m is None:
        raise BinomialsError("embedded prime is extended by a saturation of sigma")
    c = sigma.value(m)
    o = root_of_unity_order(rho.value(m) / c, field)
    if o > 10_000:
        raise EscalationLimit("root of unity order out of range")
    return quasi_power_ratio(lattice_binomial(ring, cell, m, c), o, 1)


def hull(i):
    """Hull(I) = I_(√I): the intersection of minimal primary components.

    For cellular I this is one `localize`, one associated-prime scan and
    one saturation; for general binomial I each minimal prime is localized
    inside the cellular component of its own cell and the pieces are
    intersected.  Each piece is checked binomial in `localize`; whether
    their intersection, the non-cellular hull, is binomial is an open
    question in general, so it is not assumed.

    Every minimal prime P on a cell Z finds the piece on Z.  The pieces
    intersect to I, so by prime avoidance P holds one of them, C; P is then
    minimal over C, and every prime minimal over a cellular ideal lies on
    its cell.
    """
    cellular_ok, cell = is_cellular(i)
    if cellular_ok:
        return localize(i, i, cell)
    comps = cellular_decomposition(i)
    by_cell = {c.cell: c for c in comps}
    pieces = []
    for pcell, s, p_ideal in minimal_prime_entries(i):
        comp = by_cell.get(tuple(pcell))
        if comp is None:
            raise BinomialsError("a minimal prime has no cellular piece on its cell")
        pieces.append(localize(comp.ideal, p_ideal, comp.cell))
    return intersect_all(pieces, i.ring)


# ---------------------------------------------------------------------------
# primary decomposition


def _component_hull(j, cell, s, q):
    """The piece of the Z-cellular J at the associated prime P_s (ES §7):
    Hull((J + I(s)) : (∏ Z)^∞) in char 0, where q = 1, and
    Hull((J + P_s^[q]) : (∏ Z)^∞) in char p, for q a power of p.

    Both are built from K = J + B_s^[q], where B_s are the Hermite basis
    binomials of s, plus x_v^q for each off-cell v in char p, and then
    r = K : (∏ free)^∞ over the free variables of s (`free_variables`).
    When nothing was added (rank 0, in char 0 or on a cell of all the
    variables), K is J, which is Z-cellular and so already saturated.

    1. I(s) = (B_s) : (∏ Z)^∞ (`ideal_from_character`), so
       (J + I(s)) : (∏ Z)^∞ = (J + B_s) : (∏ Z)^∞.
    2. In char p Frobenius is a ring map, so P^[q] is generated by the
       q-th powers of any generating set of P, here the off-cell
       variables and a generating set of I(s).  For f in I(s) some cell
       monomial m has m·f in (B_s), so m^q·f^q lies in (B_s^[q]).  Hence
       (J + P_s^[q]) : (∏ Z)^∞ = (J + M^[q] + B_s^[q]) : (∏ Z)^∞, with M
       the ideal of the off-cell variables.
    3. B_s^[q] are the Hermite basis binomials of q·L_s, valued s^q,
       and q·L_s has the pivots of L_s.  The free-variable lemma at
       `ideal_from_character` gives K : (∏ Z)^∞ = K : (∏ free)^∞, so a
       full-rank s needs no saturation at all.
    """
    ring = j.ring
    gens = [
        lattice_binomial(ring, s.cell, [q * x for x in row], val**q)
        for row, val in zip(s.lattice.basis, s.values)
    ]
    if ring.field.char:
        gens += [ring.var(v) ** q for v in range(ring.nvars) if v not in cell]
    r = Ideal(ring, j.gens + tuple(gens))
    free = free_variables(s)
    if free and gens:
        r = saturate_monomial(r, cell_product(ring, free))
    return localize(r, r, cell)


def _cellular_primary_components(comp):
    """Primary components of one cellular piece as (character, ideal) pairs.

    The component at the prime of s is `_component_hull` with q = 1 in
    char 0; in char p the Frobenius exponent q = p^e escalates until the
    components intersect to J.
    """
    j = comp.ideal
    ring = j.ring
    cell = comp.cell
    ass = associated_prime_characters(j, cell)
    p = ring.field.char
    if p == 0:
        return [(s, _component_hull(j, cell, s, 1)) for s in ass]
    for e in range(1, MAX_ESCALATION + 1):
        out = [(s, _component_hull(j, cell, s, p**e)) for s in ass]
        if intersect_all([qq for _, qq in out], ring) == j:
            return out
    raise EscalationLimit("Frobenius exponent escalation exceeded bound")


def primary_decomposition(i):
    """Minimal binomial primary decomposition (cellular pass, then hulls).

    Redundancy is decided locally: a P-primary candidate Q is dropped iff it
    contains the intersection of the candidates whose primes lie inside P
    (`_prune_redundant`).  That test assumes every candidate is primary, so
    the certificates always run: the intersection must equal the input, and
    every component must pass the primary test with its prime as radical.
    """
    ring = i.ring
    if i.is_unit():
        return []
    comps = _prune_redundant(_primary_candidates(i), _prime_below, ring)
    total = intersect_all([pc.ideal for pc in comps], ring)
    if total != i:
        raise BinomialsError("primary decomposition failed the intersection check")
    for pc in comps:
        report = primary_test(pc.ideal, pc.cell)
        if not report.primary:
            raise BinomialsError("component failed the primary certificate")
        if report.radical != pc.prime:
            raise BinomialsError("component radical differs from its prime")
    return comps


def _primary_candidates(i):
    """Primary components of the cellular pieces, one per prime, ordered and
    flagged minimal or embedded; redundant ones are still among them.

    A prime fixes its cell (x_v lies in it exactly when v is off the cell),
    distinct saturated characters on one cell give distinct primes (ES Thm
    2.1), and each piece's characters are distinct, so no prime recurs."""
    ring = i.ring
    cellular_ok, cell = is_cellular(i)
    if cellular_ok:
        cells = [CellularComponent(i, cell, (1,) * ring.nvars)]
    else:
        cells = cellular_decomposition(i)
    raw = []
    for comp in cells:
        for s, q_s in _cellular_primary_components(comp):
            raw.append(PrimaryComponent(q_s, character_prime_ideal(ring, s), s, comp.cell))
    comps = sorted(raw, key=lambda pc: _char_sort_key(pc.char))
    for pc in comps:
        pc.embedded = any(other is not pc and _prime_below(pc, other) for other in comps)
    return comps


# ---------------------------------------------------------------------------
# circuits


def circuit_ideal(ring, rho):
    """C(rho): binomials of the circuits of the (saturated) lattice."""
    gens = [lattice_binomial(ring, rho.cell, c, rho.value(c)) for c in rho.lattice.circuits()]
    return Ideal(ring, gens)


def effective_field(ring, *ideal_groups):
    """Smallest declared field containing every coefficient seen."""
    field = ring.field
    if field.char:
        return field
    n = field.order
    for group in ideal_groups:
        for ideal in group:
            for g in ideal.gb().polys:
                for _, c in g.terms:
                    n = lcm(n, scalar_order(c))
    from .scalars import CycloField

    return CycloField(n)
