"""Ideal-level constructions: elimination, colon, saturation, intersection,
homogenization, quasi-powers, cellular localization.

Monomial colons and saturations use no auxiliary variable: by
Bayer–Stillman, (J : x_v^k) for homogeneous J is read off the degrevlex
basis with x_v compared last, so they run on the homogenization of the
ideal, where a binomial stays a binomial.  An `Ideal` keeps its
homogenization I^h and the tree of colons (I^h : x^e) built on it, so
`colon_monomial`, the one entry point for (I : x^e), computes each node once
per object.  The same basis gives `saturation_order`, the k with
(I : x_v^k) = (I : x_v^∞), so `saturate_monomial`, the one saturation at a
monomial, is one colon per variable of the monomial.  The auxiliary variable
t serves only what leaves monomials: `intersect`, one elimination run on
t·I + (1−t)·J (`intersect_all` folds smallest basis first), and
`saturate_poly`, by which `localize` removes embedded primes with a product
of quasi-power ratios and binomials.  Both start from the reduced degrevlex
basis kept on the input, which its unit test has built.  An ideal is one
object: an operation with nothing to do (a unit or zero factor, an empty
elimination, a quasi-power ratio with d = e) returns its input, whose bases
and colon tree are then reused, never a copy regenerated by its basis.  Binomiality of results is
checked where the theory guarantees it.
"""

from itertools import product

from .errors import (
    BinomialsError,
    InfiniteStandardSet,
    NonzerodivisorViolated,
    NotTwoTerm,
)
from .groebner import groebner_basis
from .intlattice import p_part
from .poly import (
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    collect_terms,
    elim_order,
    mono_deg,
    mono_div,
    mono_divides,
    render_poly,
)

# rounds of every escalation loop (exponent doublings, Frobenius powers)
# before it gives up with EscalationLimit
MAX_ESCALATION = 20


class Ideal:
    """Finitely generated ideal with cached reduced Groebner bases,
    homogenization and monomial colon tree."""

    __slots__ = ("ring", "gens", "_gb", "_key", "_homogenized", "_colons")

    def __init__(self, ring, gens=()):
        self.ring = ring
        self.gens = tuple(g for g in gens if g.terms)
        self._gb = {}
        self._key = None
        self._homogenized = None
        self._colons = None

    def gb(self, order=DEGREVLEX):
        got = self._gb.get(order.id())
        if got is None:
            got = groebner_basis(self.gens, order, self.ring)
            self._gb[order.id()] = got
        return got

    # -- predicates

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        if any(len(g.terms) == 1 and not any(g.terms[0][0]) for g in self.gens):
            return True
        gb = self.gb()
        return bool(gb.polys) and gb.is_trivial

    def is_binomial(self):
        return self.gb().is_binomial

    def contains(self, f):
        if isinstance(f, Ideal):
            return all(self.contains(g) for g in f.gens)
        if not f.terms:
            return True
        return self.gb().contains(f)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            return False
        return self.contains(other) and other.contains(self)

    def __hash__(self):
        return hash((self.ring, self.key()))

    def key(self):
        """Canonical key: the reduced degrevlex GB with canonical scalars."""
        if self._key is None:
            self._key = tuple(p.key() for p in self.gb().polys)
        return self._key

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise ValueError("ideal sum across rings")
            return Ideal(self.ring, self.gens + other.gens)
        if isinstance(other, Polynomial):
            return Ideal(self.ring, self.gens + (other,))
        return Ideal(self.ring, self.gens + tuple(other))

    def __repr__(self):
        return f"Ideal({', '.join(render_poly(g) for g in self.gb().polys) or '0'})"


# ---------------------------------------------------------------------------
# elimination and auxiliary-variable constructions


def _fresh_name(ring, base):
    name = base
    k = 0
    while name in ring._index:
        name = f"{base}{k}"
        k += 1
    return name


def eliminate(i, keep):
    """I ∩ k[keep] as an ideal of the same ring, via a block elimination order."""
    ring = i.ring
    keep = set(keep)
    drop = [v for v in range(ring.nvars) if v not in keep]
    if not drop:
        return i
    gb = i.gb(elim_order(drop, ring.nvars))
    kept = [p for p in gb if not p.involves(drop)]
    if all(len(g.terms) <= 2 for g in i.gens) and any(len(p.terms) > 2 for p in kept):
        raise BinomialsError("elimination broke binomiality")
    return Ideal(ring, kept)


def _with_aux(i, build):
    """Append a fresh variable t, run `build(up, t)` for extra generators,
    eliminate t, and map back down."""
    ring = i.ring
    n = ring.nvars
    rt = ring.extended(_fresh_name(ring, "_t"))
    up_map = list(range(n))
    t = rt.var(n)

    def up(p):
        return p.project(rt, up_map)

    gens = build(up, t)
    gb = groebner_basis(gens, elim_order([n], n + 1), rt)
    down_map = up_map + [None]
    kept = [p.project(ring, down_map) for p in gb if not p.involves([n])]
    return Ideal(ring, kept)


def intersect(i, j):
    """I ∩ J via eliminating t from t·I + (1−t)·J."""
    if i.ring != j.ring:
        raise ValueError("intersection across rings")
    if i.is_zero() or j.is_unit():
        return i
    if j.is_zero() or i.is_unit():
        return j
    return _with_aux(
        i,
        lambda up, t: [up(f) * t for f in i.gb().polys]
        + [up(g) * (t.ring.one - t) for g in j.gb().polys],
    )


def intersect_all(ideals, ring):
    """Left fold of pairwise intersections, skipping redundant factors.

    Units are dropped and the rest folded in ascending order of the length
    of their reduced degrevlex basis, which `is_unit` has built.  A step is
    one elimination run on t·A + (1−t)·K, and the accumulator A's basis
    tends to grow with each factor K folded in: a long K taken early
    lengthens A for every later step, taken late for few.  As in merging
    the shortest lists first, A stays short for as many steps as possible.
    The order does not change the ideal, so neither its reduced basis."""
    acc = None
    for k in sorted((k for k in ideals if not k.is_unit()), key=lambda k: len(k.gb().polys)):
        if acc is None:
            acc = k
            continue
        if k.contains(acc):
            continue
        if acc.contains(k):
            acc = k
            continue
        acc = intersect(acc, k)
    if acc is None:
        return Ideal(ring, (ring.one,))
    return acc


def saturate_poly(i, f):
    """(I : f^∞) by the t-trick: adjoin t, add t·f − 1, eliminate t."""
    if not f.terms:
        raise ValueError("saturation by zero")
    if i.is_zero():
        return i
    return _with_aux(
        i, lambda up, t: [up(g) for g in i.gb().polys] + [t * up(f) - t.ring.one]
    )


def divide_exact(g, f):
    """Exact quotient g / f (raises if not divisible)."""
    quot = []
    work = g
    lmf, lcf = f.lt(DEGREVLEX)
    while work.terms:
        e, c = work.lt(DEGREVLEX)
        if not mono_divides(lmf, e):
            raise ValueError("inexact polynomial division")
        q = mono_div(e, lmf)
        qc = c / lcf
        quot.append((q, qc))
        work = work - f.mul_term(q, qc)
    return collect_terms(g.ring, quot)


def colon_poly(i, f):
    """(I : f) = (I ∩ (f)) / f; general single-polynomial colon."""
    if not f.terms:
        raise ValueError("colon by zero")
    if i.is_zero():
        return i
    w = intersect(i, Ideal(i.ring, (f,)))
    return Ideal(i.ring, tuple(divide_exact(g, f) for g in w.gens))


def colon_monomial(i, m):
    """(I : m) for a monomial m = x^e: node e of the colon tree of I, with
    h = 1.  Exact because I^h is h-saturated and so is each colon of it by a
    monomial in the old variables."""
    e = _monomial_exponent(m)
    if not any(e):
        return i
    return dehomogenize(_colon_node(i, e), i.ring)


def saturate_monomial(i, m):
    """(I : m^∞) for a monomial m, one colon-tree step per variable of m:
    (I : (x_v·m')^∞) = ((I : x_v^∞) : m'^∞), and (I : x_v^∞) is the colon
    by x_v to its `saturation_order`.  No auxiliary variable.  The colons
    divide basis elements by monomials, so binomial generators stay
    binomial; that is checked on the generators, with no Groebner run."""
    out = i
    for v, x in enumerate(_monomial_exponent(m)):
        if x:
            out = colon_monomial(out, i.ring.var(v) ** saturation_order(out, v))
    if all(len(g.terms) <= 2 for g in i.gens) and any(len(g.terms) > 2 for g in out.gens):
        raise BinomialsError("monomial saturation broke binomiality")
    return out


def saturation_order(i, v):
    """Smallest k with (I : x_v^k) = (I : x_v^∞), for the variable x_v.

    This is the largest x_v-order in the revlex basis of I^h with x_v last:
    its leading monomials minimally generate the initial ideal, so no
    smaller k clears x_v from all of them.  It has no bound, and it is 0
    exactly when x_v is a nonzerodivisor modulo I."""
    return max((_order_in(g, v) for g in revlex_basis(homogenize(i), v)), default=0)


# ---------------------------------------------------------------------------
# homogenization and Bayer–Stillman monomial colons


def homogenize(i):
    """Projective-closure ideal: homogenize a degree-order Groebner basis.
    The homogenizing variable is appended last.  The result is kept on i,
    so its Groebner bases are computed once per i."""
    if i._homogenized is None:
        rh = i.ring.extended(_fresh_name(i.ring, "x0"))
        gens = []
        for g in i.gb(DEGREVLEX):
            d = g.total_degree()
            gens.append(Polynomial.from_dict(rh, {e + (d - mono_deg(e),): c for e, c in g.terms}))
        i._homogenized = Ideal(rh, gens)
    return i._homogenized


def dehomogenize(j, ring):
    """J with its last (homogenizing) variable set to 1, as an ideal of ring;
    the terms of a homogeneous polynomial stay distinct."""
    gens = [Polynomial.from_dict(ring, {e[:-1]: c for e, c in g.terms}) for g in j.gens]
    return Ideal(ring, gens)


def revlex_basis(j, v):
    """Reduced Groebner basis of J in degrevlex with x_v compared last."""
    n = j.ring.nvars
    return j.gb(MonomialOrder("degrevlex", perm=tuple(u for u in range(n) if u != v) + (v,)))


def _order_in(g, v):
    """The largest power of x_v dividing g."""
    return min(e[v] for e, _ in g.terms)


def colon_homogeneous(j, v, k):
    """(J : x_v^k) for homogeneous J (Bayer–Stillman, Invent. Math. 1987):
    divide each g of the revlex basis with x_v last by x_v^min(k, ord_v g)."""
    gens = []
    for g in revlex_basis(j, v):
        s = min(k, _order_in(g, v))
        if s:
            terms = tuple((e[:v] + (e[v] - s,) + e[v + 1:], c) for e, c in g.terms)
            g = Polynomial(j.ring, terms)
        gens.append(g)
    return Ideal(j.ring, gens)


def _colon_node(i, e):
    """(I^h : x^e), kept on i: made from the node with e's first nonzero
    exponent cleared by one revlex basis (`colon_homogeneous`), so every power
    of that variable below the same node shares one Groebner run."""
    tree = i._colons
    if tree is None:
        tree = i._colons = {(0,) * len(e): homogenize(i)}
    got = tree.get(e)
    if got is None:
        v = next(u for u, x in enumerate(e) if x)
        got = tree[e] = colon_homogeneous(_colon_node(i, e[:v] + (0,) + e[v + 1:]), v, e[v])
    return got


def _monomial_exponent(m):
    if len(m.terms) != 1:
        raise ValueError(f"{render_poly(m)} is not a monomial")
    return m.terms[0][0]


# ---------------------------------------------------------------------------
# quasi-powers (the binomial substitute for powers)


def _two_term_parts(b):
    """(α, β, c) for b = x^α − c·x^β up to a scalar, x^α its degrevlex lead."""
    if len(b.terms) != 2:
        raise NotTwoTerm(f"{render_poly(b)} does not have exactly two terms")
    (ea, ca), (eb, cb) = b.terms
    return ea, eb, -(cb / ca)


def quasi_power(b, d):
    """b^[d] := x^(d·α) − c^d · x^(d·β) for b with monic form x^α − c·x^β."""
    ea, eb, c = _two_term_parts(b)
    ring = b.ring
    return Polynomial.from_dict(
        ring,
        {
            tuple(d * x for x in ea): ring.field.one,
            tuple(d * x for x in eb): -(c**d),
        },
    )


def quasi_power_ratio(b, d, e):
    """The polynomial b^[d] / b^[e] (requires e | d)."""
    if d % e:
        raise ValueError("quasi-power ratio needs e | d")
    ea, eb, c = _two_term_parts(b)
    m = d // e
    ce = c**e
    terms = ((tuple(e * (m - 1 - i) * x + e * i * y for x, y in zip(ea, eb)), ce**i)
             for i in range(m))
    return collect_terms(b.ring, terms)


def _leading_monomial_poly(b, ring):
    ea, _, _ = _two_term_parts(b)
    return ring.monomial(ea)


def check_nonzerodivisor_lead(i, b):
    """Verify the quasi-power colon precondition exactly: (I : x^a) = I,
    i.e. no variable of x^a is a zerodivisor modulo I."""
    xa = _leading_monomial_poly(b, i.ring)
    if any(saturation_order(i, v) for v, x in enumerate(xa.terms[0][0]) if x):
        raise NonzerodivisorViolated(
            f"leading monomial {render_poly(xa)} is a zerodivisor mod the ideal"
        )


def colon_quasipower(i, b, d):
    """(I : quasi_power(b, d)), uncertified, for x^a the lead of b a
    nonzerodivisor modulo I.  Returns (ideal, d)."""
    check_nonzerodivisor_lead(i, b)
    return colon_poly(i, quasi_power(b, d)), d


def colon_quasipower_ratio(i, b, d, e):
    """(I : quasi_power_ratio(b, d, e)) via the coprime-factor identity:
    ((I + (I : b^[d]) · b^[e]) : (x^a)^inf).

    An insufficiently divisible d may give a non-binomial ideal; callers
    check binomiality themselves.
    """
    if d % e:
        raise ValueError("need e | d")
    if e % p_part(d, i.ring.field.char):
        raise ValueError("need q | e for the p-part q of d")
    check_nonzerodivisor_lead(i, b)
    if d == e:
        return i
    k = colon_poly(i, quasi_power(b, d))
    f = quasi_power(b, e)
    j0 = Ideal(i.ring, i.gens + tuple(g * f for g in k.gens))
    return saturate_monomial(j0, _leading_monomial_poly(b, i.ring))


# ---------------------------------------------------------------------------
# cellular localization


def cell_product(ring, cell):
    e = tuple(int(i in set(cell)) for i in range(ring.nvars))
    return ring.monomial(e)


def cellular_localize(i, cell, exps):
    """((I + ({x_i^d_i} for i outside the cell)) : (prod of cell vars)^inf)."""
    ring = i.ring
    inside = set(cell)
    gens = list(i.gens)
    for v in range(ring.nvars):
        if v not in inside:
            gens.append(ring.monomial(tuple(exps[v] if j == v else 0 for j in range(ring.nvars))))
    return saturate_monomial(Ideal(ring, gens), cell_product(ring, cell))


def nonzerodivisor_variables(i):
    """Indices v with (I : x_v) = I, those with saturation order 0."""
    return tuple(v for v in range(i.ring.nvars) if not saturation_order(i, v))


# ---------------------------------------------------------------------------
# standard monomials


def standard_monomials(ideal, var_indices):
    """Monomials in the given variables outside in(I): (all, maximal).

    Requires the staircase restricted to those variables to be finite, i.e.
    a pure power of each variable must appear among the leading monomials;
    otherwise InfiniteStandardSet is raised.
    """
    gb = ideal.gb()
    nv = gb.ring.nvars
    vs = sorted(var_indices)
    vset = set(vs)
    lms = [
        lm
        for lm in gb.leading_monomials()
        if all(i in vset for i, x in enumerate(lm) if x)
    ]
    if any(not any(lm) for lm in lms):
        return [], []  # unit ideal: no standard monomials
    bounds = [1] * nv
    for v in vs:
        pure = [lm[v] for lm in lms if all(x == 0 for i, x in enumerate(lm) if i != v)]
        if not pure:
            raise InfiniteStandardSet(
                f"no pure power of variable {gb.ring.names[v]} in the initial ideal"
            )
        bounds[v] = min(pure)
    out = [e for e in product(*map(range, bounds)) if not any(mono_divides(lm, e) for lm in lms)]
    maximal = [
        e for e in out
        if all(any(mono_divides(lm, e[:v] + (e[v] + 1,) + e[v + 1:]) for lm in lms) for v in vs)
    ]
    keyf = DEGREVLEX.key_function(nv)
    out.sort(key=keyf)
    maximal.sort(key=keyf)
    return out, maximal
