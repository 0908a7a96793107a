"""Buchberger's algorithm with Gebauer-Moeller pair updates, normal forms,
and reduced Groebner bases.

Pairs are selected once, when a new element h joins the basis (Gebauer and
Moeller, JSC 1988; Becker-Weispfenning, Groebner Bases, 5.5): new pairs whose
lcm another new pair's lcm divides or whose leading monomials are coprime
are never queued, queued pairs that h makes redundant are dropped, and h
evicts every active element whose leading monomial it divides.  The active
elements are then a minimal basis, and one tail-reduction pass makes it the
reduced one.

Binomial inputs stay binomial throughout: an S-pair of two binomials has at
most two terms and every reduction step of a term against a binomial yields
a term, so the engine checks (rather than re-derives) that closure as it
runs and raises BinomialsError if it fails.  The general path handles
arbitrary term counts for colon/intersection workloads.
"""

from heapq import heapify, heappop
from itertools import chain, islice
from operator import itemgetter

from . import checks
from .errors import BinomialsError
from .poly import (
    DEGREVLEX,
    Polynomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def _prepare(p, keyf):
    """Terms of p as (key, exponent, coefficient), descending by key."""
    return sorted([(keyf(e), e, c) for e, c in p.terms], key=itemgetter(0), reverse=True)


def _merge_sub(a, i0, b, shift, factor, keyf):
    """a[i0:] minus factor * x^shift * b, both descending term lists."""
    # a monomial order is multiplicative, so the shifted b stays sorted
    b = [(keyf(e := mono_mul(eb, shift)), e, -(factor * cb)) for _, eb, cb in b]
    out = []
    i, j = i0, 0
    while i < len(a) and j < len(b):
        ka, kb = a[i][0], b[j][0]
        if ka > kb:
            out.append(a[i])
            i += 1
        elif kb > ka:
            out.append(b[j])
            j += 1
        else:
            c = a[i][2] + b[j][2]
            if c:
                out.append((ka, a[i][1], c))
            i += 1
            j += 1
    return out + a[i:] + b[j:]


def _reduce_prepared(f, basis_lms, basis_terms, keyf):
    """Normal form of a prepared term list modulo monic prepared divisors."""
    work = f
    out = []
    i = 0
    while i < len(work):
        _, e0, c0 = work[i]
        for lm, terms in zip(basis_lms, basis_terms):
            if mono_divides(lm, e0):
                work = _merge_sub(work, i + 1, terms[1:], mono_div(e0, lm), c0, keyf)
                i = 0
                break
        else:
            out.append(work[i])
            i += 1
    return out


class GroebnerBasis:
    """A (reduced) Groebner basis bound to its ring and monomial order."""

    __slots__ = ("ring", "order", "polys", "_keyf", "_lms", "_prepped")

    def __init__(self, ring, order, keyf, prepped):
        """From the prepared term lists of a run under the key function keyf."""
        self.ring = ring
        self.order = order
        self.polys = tuple(Polynomial.from_dict(ring, {e: c for _, e, c in t}) for t in prepped)
        self._keyf = keyf
        self._prepped = prepped
        self._lms = [t[0][1] for t in prepped]

    @property
    def is_binomial(self):
        return all(len(p.terms) <= 2 for p in self.polys)

    @property
    def is_trivial(self):
        return len(self.polys) == 1 and not any(self._lms[0])

    def leading_monomials(self):
        return list(self._lms)

    def normal_form(self, f):
        if not f.terms:
            return f
        keyf = self._keyf
        red = _reduce_prepared(_prepare(f, keyf), self._lms, self._prepped, keyf)
        if checks.ENABLED and self.is_binomial and len(f.terms) == 1:
            assert len(red) <= 1, "normal form of a term modulo binomials must be a term"
        return Polynomial.from_dict(self.ring, {e: c for _, e, c in red})

    def contains(self, f):
        return not self.normal_form(f).terms

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis({list(self.polys)!r})"


def groebner_basis(gens, order=DEGREVLEX, ring=None):
    """The unique reduced Groebner basis of the given generators."""
    gens = [g for g in gens if g.terms]
    if ring is None:
        if not gens:
            raise ValueError("need a ring for the zero ideal")
        ring = gens[0].ring
    keyf = order.key_function(ring.nvars)
    if not gens:
        return GroebnerBasis(ring, order, keyf, [])
    binomial_input = all(len(g.terms) <= 2 for g in gens)

    basis = []       # prepared term lists, monic, by index
    lms = []
    active = []      # indices of the minimal basis so far
    act_lms = []     # leading monomials and term lists of ``active``,
    act_terms = []   # the divisors every reduction runs against
    heap = []        # queued pairs (deg lcm, i, j, lcm)

    def push_poly(prep):
        """Add a reduced polynomial h and update pairs and active set."""
        lead = prep[0]
        if lead[2] != ring.field.one:
            inv = ring.field.one / lead[2]
            prep = [(k, e, c * inv) for k, e, c in prep]
        h = len(basis)
        lm_h = prep[0][1]
        basis.append(prep)
        lms.append(lm_h)
        # new pairs (g, h): drop one whose lcm is divisible by the lcm of a
        # pair still to be looked at or already kept (criteria M and F); a
        # coprime pair is kept here, to stand for its lcm, and dropped below
        lcms = [mono_lcm(lms[g], lm_h) for g in active]
        kept = []
        for n, (l, g) in enumerate(zip(lcms, active)):
            coprime = mono_mul(lms[g], lm_h) == l
            others = chain(islice(lcms, n + 1, None), map(itemgetter(0), kept))
            if coprime or not any(mono_divides(m, l) for m in others):
                kept.append((l, g, coprime))
        # queued pairs (a, b): drop one whose lcm lm(h) divides unless
        # (a, h) or (b, h) has the same lcm (criterion B)
        heap[:] = [
            p
            for p in heap
            if not mono_divides(lm_h, p[3])
            or mono_lcm(lms[p[1]], lm_h) == p[3]
            or mono_lcm(lms[p[2]], lm_h) == p[3]
        ]
        heap.extend((mono_deg(l), g, h, l) for l, g, coprime in kept if not coprime)
        heapify(heap)
        # lm(h) is reduced, so no active lm divides it; h evicts those it divides
        active[:] = [g for g in active if not mono_divides(lm_h, lms[g])] + [h]
        act_lms[:] = [lms[g] for g in active]
        act_terms[:] = [basis[g] for g in active]

    for prep in sorted((_prepare(g, keyf) for g in gens), key=lambda t: t[0][0]):
        red = _reduce_prepared(prep, act_lms, act_terms, keyf)
        if red:
            push_poly(red)
            if not any(red[0][1]):
                heap.clear()  # constant: unit ideal, stop early
                break

    while heap:
        deg, i, j, l = heappop(heap)
        si = mono_div(l, lms[i])
        sj = mono_div(l, lms[j])
        # S-polynomial of two monic polynomials: tails shifted (which keeps
        # them sorted) and subtracted
        tail_i = [(keyf(m := mono_mul(e, si)), m, c) for _, e, c in basis[i][1:]]
        spoly = _merge_sub(tail_i, 0, basis[j][1:], sj, ring.field.one, keyf)
        red = _reduce_prepared(spoly, act_lms, act_terms, keyf)
        if red:
            if binomial_input and len(red) > 2:
                raise BinomialsError("binomial closure violated in Buchberger loop")
            push_poly(red)
            if not any(red[0][1]):
                break  # constant: unit ideal, stop early

    # tail-reduce the active set, a minimal basis, to the reduced basis.  One
    # pass suffices: no leading monomial of a minimal basis divides another,
    # so each leading term (monic) survives its reduction and the set of
    # leading monomials that decides reducibility never changes.
    min_polys = sorted(act_terms, key=lambda prep: keyf(prep[0][1]))
    min_lms = [prep[0][1] for prep in min_polys]
    for t in range(len(min_polys)):
        other_lms = min_lms[:t] + min_lms[t + 1 :]
        other_terms = min_polys[:t] + min_polys[t + 1 :]
        min_polys[t] = _reduce_prepared(min_polys[t], other_lms, other_terms, keyf)

    gb = GroebnerBasis(ring, order, keyf, min_polys)

    if binomial_input and not gb.is_binomial:
        raise BinomialsError("reduced GB of a binomial ideal must be binomial")
    if checks.ENABLED:
        _verify_buchberger(gb)
    return gb


def _verify_buchberger(gb):
    polys, lms = gb.polys, gb._lms
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            li, lj = lms[i], lms[j]
            l = mono_lcm(li, lj)
            s = polys[i].mul_term(mono_div(l, li), gb.ring.field.one) - polys[
                j
            ].mul_term(mono_div(l, lj), gb.ring.field.one)
            assert gb.contains(s), "Buchberger criterion failed on final basis"
