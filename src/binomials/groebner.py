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

Inside a run every monomial is one int (Bachmann and Schoenemann, Monomial
representations for Groebner bases computations, ISSAC 1998).  A
``_Packing(order, n, w)`` gives each of the n variables a field of w bits;
the top g = bitlen(n) + 1 bits of each field are guard bits, zero in every
packed monomial, so an exponent is below 2^v for v = w - g.  The order's
variables (``perm``) split into a head, compared lexicographically, and a
rest, compared by degree and then reverse-lexicographically: lex is all
head, degrevlex all rest, elim(k) the first k head.  The rest fields sit
low, the last rest variable highest; above them one empty field (when the
rest is not empty), then the head fields, the first head variable highest.
With R = P & (the rest fields) and M = 2^w - 1 the order key of P is

    K(P) = P - 2R + ((R mod M) << w*r),   r = number of rest fields,

so lex has K = P and degrevlex K = ((P mod M) << w*n) - P: the head fields,
then the rest-degree in the empty field, then -R, which compares the last
rest variable first, smaller winning.  R mod M is the sum of R's fields,
since 2^w = 1 mod M, and that sum is below n*2^v < 2^(w-1), so it is exact.
K is linear in P, so the key of a shifted term is key + key(shift).

The guard bits make every operation a few int operations:
- a divides b exactly when ((b | G) - a) & G == G, G the guard mask.  Each
  field of b | G is G_i + b_i with b_i, a_i < 2^v, so subtracting a_i
  leaves G_i + (b_i - a_i) when a_i <= b_i, guard bits intact, and else a
  value in [G_i - 2^v, G_i), whose lowest guard bit is clear and which is
  not negative, so no field borrows from the next;
- the lowest guard bit of each such field therefore marks the fields where
  a_i >= b_i; spread over the field's value bits it selects a_i there and
  b_i elsewhere, which is the lcm;
- a product is a + b: each field sum is below 2^(v+1) <= 2^w, so it carries
  into no other field, and it overflows 2^v exactly when it sets a guard
  bit; a quotient is a - b; the total degree is P mod M.

The width w comes from the largest input exponent (``_width``).  A product
that sets a guard bit raises ``_Overflow``, and the run restarts at 2w;
``normal_form`` repacks the basis the same way.  A shifted term list is
checked by one test on the OR of its exponents, and term by term only when
that test fails.  A ``GroebnerBasis`` unpacks its polynomials to exponent
tuples once, when it is built.
"""

from functools import reduce
from heapq import heapify, heappop
from itertools import chain, islice
from operator import itemgetter, or_

from . import checks
from .errors import BinomialsError
from .poly import DEGREVLEX, Polynomial


class _Overflow(Exception):
    """A packed product set a guard bit: the run restarts wider."""


class _Packing:
    """The field layout of one order in n variables at width w."""

    __slots__ = ("w", "v", "shifts", "vmask", "guard", "low", "rest", "slot", "mod")

    def __init__(self, order, n, w):
        perm = order.perm if order.perm is not None else tuple(range(n))
        k = {"lex": n, "degrevlex": 0}.get(order.kind, order.block)
        head, rest = perm[:k], perm[k:]
        field = [0] * n
        for j, v in enumerate(rest):
            field[v] = j
        top = len(rest) + k - (not rest)  # above the rest and its degree field
        for j, v in enumerate(head):
            field[v] = top - j
        v = w - n.bit_length() - 1
        self.w, self.v = w, v
        self.shifts = tuple(w * f for f in field)
        self.vmask = (1 << v) - 1
        self.guard = sum(((1 << w) - 1 - self.vmask) << s for s in self.shifts)
        self.low = sum(1 << (v + s) for s in self.shifts)
        self.rest = sum(((1 << w) - 1) << (w * j) for j in range(len(rest)))
        self.slot = w * len(rest)
        self.mod = (1 << w) - 1

    def pack(self, e):
        return sum([x << s for x, s in zip(e, self.shifts)])

    def unpack(self, p):
        vmask = self.vmask
        return tuple([(p >> s) & vmask for s in self.shifts])

    def key(self, p):
        r = p & self.rest
        return p - 2 * r + ((r % self.mod) << self.slot)

    def divides(self, a, b):
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a, b):
        t = ((a | self.guard) - b) & self.low  # the fields where a_i >= b_i
        return b ^ ((a ^ b) & (t - (t >> self.v)))  # t spread over the value bits


_LAYOUTS = {}  # (order, n, w) -> _Packing; layouts only, never results


def _packing(order, n, w):
    key = (order.id(), n, w)
    pk = _LAYOUTS.get(key)
    if pk is None:
        pk = _LAYOUTS[key] = _Packing(order, n, w)
    return pk


def _width(n, top):
    """Field width for exponents up to top in n variables: room for four
    times top beside the guard bits."""
    return n.bit_length() + 1 + top.bit_length() + 2


def _top(polys):
    """The largest exponent in the polynomials."""
    return max((max(e, default=0) for p in polys for e, _ in p.terms), default=0)


def _prepare(p, pk):
    """Terms of p as (key, packed exponent, coefficient), descending by key."""
    pack, key = pk.pack, pk.key
    return sorted([(key(m := pack(e)), m, c) for e, c in p.terms], key=itemgetter(0), reverse=True)


def _divisor(prep):
    """A monic prepared polynomial as (lm, key of lm, tail, OR of the tail)."""
    tail = prep[1:]
    return prep[0][1], prep[0][0], tail, reduce(or_, [e for _, e, _ in tail], 0)


def _check_shift(tail, span, s, guard):
    """Raise _Overflow when x^s times a term of tail overflows a field; span,
    the OR of tail's exponents, bounds each field of every term."""
    if (span + s) & guard and any((e + s) & guard for _, e, _ in tail):
        raise _Overflow


def _merge_sub(a, i0, tail, span, shift, kshift, factor, guard):
    """a[i0:] minus factor * x^shift * tail, both descending term lists."""
    _check_shift(tail, span, shift, guard)
    nf = -factor
    # a monomial order is multiplicative, so the shifted tail stays sorted
    b = [(k + kshift, e + shift, nf * c) for k, e, c in tail]
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


def _reduce_prepared(f, divisors, guard):
    """Normal form of a prepared term list modulo monic divisors."""
    work = f
    out = []
    i = 0
    while i < len(work):
        k0, e0, c0 = work[i]
        eg = e0 | guard
        for lm, klm, tail, span in divisors:
            if (eg - lm) & guard == guard:
                work = _merge_sub(work, i + 1, tail, span, e0 - lm, k0 - klm, c0, guard)
                i = 0
                break
        else:
            out.append(work[i])
            i += 1
    return out


class GroebnerBasis:
    """A (reduced) Groebner basis bound to its ring and monomial order."""

    __slots__ = ("ring", "order", "polys", "_lms", "_pk", "_divs")

    def __init__(self, ring, order, pk, divs):
        """From the monic divisors of a run under the packing pk."""
        self.ring = ring
        self.order = order
        one, unpack = ring.field.one, pk.unpack
        terms = [((unpack(lm), one), *[(unpack(e), c) for _, e, c in tail])
                 for lm, _, tail, _ in divs]
        if order == DEGREVLEX:  # the canonical order: terms are sorted already
            self.polys = tuple(Polynomial(ring, t) for t in terms)
        else:
            self.polys = tuple(Polynomial.from_dict(ring, dict(t)) for t in terms)
        self._lms = [t[0][0] for t in terms]
        self._pk = pk
        self._divs = divs

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
        top = _top([f])
        while True:
            pk = self._pk
            if top <= pk.vmask:
                try:
                    red = _reduce_prepared(_prepare(f, pk), self._divs, pk.guard)
                    break
                except _Overflow:
                    pass
            self._pk = pk = _packing(self.order, self.ring.nvars, 2 * pk.w)
            self._divs = [_divisor(_prepare(p, pk)) for p in self.polys]
        if checks.ENABLED and self.is_binomial and len(f.terms) == 1:
            assert len(red) <= 1, "normal form of a term modulo binomials must be a term"
        unpack = pk.unpack
        return Polynomial.from_dict(self.ring, {unpack(e): c for _, e, c in red})

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
    w = _width(ring.nvars, _top(gens))
    while True:
        try:
            gb = _buchberger(gens, order, ring, _packing(order, ring.nvars, w))
            break
        except _Overflow:
            w *= 2
    if checks.ENABLED:
        _verify_buchberger(gb)
    return gb


def _buchberger(gens, order, ring, pk):
    """The reduced basis of gens, every monomial packed by pk."""
    if not gens:
        return GroebnerBasis(ring, order, pk, [])
    binomial_input = all(len(g.terms) <= 2 for g in gens)
    one, guard, mod = ring.field.one, pk.guard, pk.mod
    divides, lcm = pk.divides, pk.lcm

    divs = []        # monic divisors (lm, key of lm, tail, span), by index
    lms = []
    active = []      # indices of the minimal basis so far
    act_divs = []    # the divisors of ``active``, which every reduction runs against
    heap = []        # queued pairs (deg lcm, i, j, lcm)

    def push_poly(prep):
        """Add a reduced polynomial h and update pairs and active set."""
        lead = prep[0]
        if lead[2] != one:
            inv = one / lead[2]
            prep = [(lead[0], lead[1], one)] + [(k, e, c * inv) for k, e, c in prep[1:]]
        h = len(divs)
        divs.append(_divisor(prep))
        lm_h = lead[1]
        lms.append(lm_h)
        # new pairs (g, h): drop one whose lcm is divisible by the lcm of a
        # pair still to be looked at or already kept (criteria M and F); a
        # coprime pair is kept here, to stand for its lcm, and dropped below
        lcms = [lcm(lms[g], lm_h) for g in active]
        kept = []
        for n, (l, g) in enumerate(zip(lcms, active)):
            coprime = lms[g] + lm_h == l
            others = chain(islice(lcms, n + 1, None), map(itemgetter(0), kept))
            if coprime or not any(divides(m, l) for m in others):
                kept.append((l, g, coprime))
        # queued pairs (a, b): drop one whose lcm lm(h) divides unless
        # (a, h) or (b, h) has the same lcm (criterion B)
        heap[:] = [
            p
            for p in heap
            if not divides(lm_h, p[3])
            or lcm(lms[p[1]], lm_h) == p[3]
            or lcm(lms[p[2]], lm_h) == p[3]
        ]
        heap.extend((l % mod, g, h, l) for l, g, coprime in kept if not coprime)
        heapify(heap)
        # lm(h) is reduced, so no active lm divides it; h evicts those it divides
        active[:] = [g for g in active if not divides(lm_h, lms[g])] + [h]
        act_divs[:] = [divs[g] for g in active]

    for prep in sorted((_prepare(g, pk) for g in gens), key=lambda t: t[0][0]):
        red = _reduce_prepared(prep, act_divs, guard)
        if red:
            push_poly(red)
            if not red[0][1]:
                heap.clear()  # constant: unit ideal, stop early
                break

    while heap:
        _, i, j, l = heappop(heap)
        lm_i, k_i, tail_i, span_i = divs[i]
        lm_j, k_j, tail_j, span_j = divs[j]
        kl = pk.key(l)
        si, ki = l - lm_i, kl - k_i
        # S-polynomial of two monic polynomials: tails shifted (which keeps
        # them sorted) and subtracted
        _check_shift(tail_i, span_i, si, guard)
        shifted = [(k + ki, e + si, c) for k, e, c in tail_i]
        spoly = _merge_sub(shifted, 0, tail_j, span_j, l - lm_j, kl - k_j, one, guard)
        red = _reduce_prepared(spoly, act_divs, guard)
        if red:
            if binomial_input and len(red) > 2:
                raise BinomialsError("binomial closure violated in Buchberger loop")
            push_poly(red)
            if not red[0][1]:
                break  # constant: unit ideal, stop early

    # tail-reduce the active set, a minimal basis, to the reduced basis.  One
    # pass suffices: no leading monomial of a minimal basis divides another,
    # so each leading term (monic) survives its reduction and the set of
    # leading monomials that decides reducibility never changes.
    basis = sorted(act_divs, key=itemgetter(1))
    for t in range(len(basis)):
        lm, klm, tail, _ = basis[t]
        tail = _reduce_prepared(tail, basis[:t] + basis[t + 1 :], guard)
        basis[t] = (lm, klm, tail, reduce(or_, [e for _, e, _ in tail], 0))

    gb = GroebnerBasis(ring, order, pk, basis)
    if binomial_input and not gb.is_binomial:
        raise BinomialsError("reduced GB of a binomial ideal must be binomial")
    return gb


def _verify_buchberger(gb):
    polys, pk, one = gb.polys, gb._pk, gb.ring.field.one
    lms = [d[0] for d in gb._divs]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            l = pk.lcm(lms[i], lms[j])
            s = polys[i].mul_term(pk.unpack(l - lms[i]), one) - polys[j].mul_term(
                pk.unpack(l - lms[j]), one
            )
            assert gb.contains(s), "Buchberger criterion failed on final basis"
