"""Sparse multivariate polynomials over an exact field.

Monomials are plain exponent tuples.  A ``Polynomial`` stores its terms
sorted descending under a fixed canonical order (degrevlex on the declared
variable sequence); Groebner computations re-sort internally under whatever
order is active.
"""

from fractions import Fraction
from math import lcm
from operator import add, itemgetter, le, neg, sub

from .errors import EscalationLimit, FieldMismatch, ParseError, UnknownVariable
from .scalars import MAX_ZETA_ORDER, QQ, CycloElement, power, render_scalar, scalar_key, zeta


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_deg(a):
    return sum(a)


def _gather(idx):
    """e -> tuple(e[i] for i in idx) in one C call: a slice where idx is a
    run (a single index is one; itemgetter would return a scalar for it)."""
    a, n = (idx[0], len(idx)) if idx else (0, 0)
    if idx == tuple(range(a, a + n)):
        return itemgetter(slice(a, a + n))
    if idx == tuple(range(a, a - n, -1)):
        return itemgetter(slice(a, a - n if a >= n else None, -1))
    return itemgetter(*idx)


class MonomialOrder:
    """Total monomial order: lex, degrevlex, or an elimination block order.

    ``elim(k)`` compares the first k (permuted) exponents lexicographically
    and breaks ties by degrevlex on the remaining block, which makes it an
    elimination order for the first k variables.  ``perm`` reorders which
    exponent positions are compared first.
    """

    __slots__ = ("kind", "block", "perm")

    def __init__(self, kind, block=0, perm=None):
        if kind not in ("lex", "degrevlex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.block = block
        self.perm = tuple(perm) if perm is not None else None

    def id(self):
        return (self.kind, self.block, self.perm)

    def key_function(self, n):
        """Sort key on exponent tuples in n variables (larger key, larger
        monomial), gathered by C-level calls so a key costs one Python frame."""
        perm = self.perm if self.perm is not None else tuple(range(n))
        if self.kind == "lex":
            return _gather(perm)
        if self.kind == "degrevlex":
            rev = _gather(perm[::-1])
            return lambda e: (sum(e), *map(neg, rev(e)))
        head, rev = _gather(perm[: self.block]), _gather(perm[self.block:][::-1])
        return lambda e: (*head(e), sum(rev(e)), *map(neg, rev(e)))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.id() == self.id()

    def __hash__(self):
        return hash(self.id())

    def __repr__(self):
        if self.kind == "elim":
            return f"elim({self.block}, perm={self.perm})"
        return self.kind


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


def elim_order(eliminate, n):
    """Order eliminating the given variable indices (they sort first)."""
    eliminate = tuple(sorted(eliminate))
    rest = tuple(i for i in range(n) if i not in set(eliminate))
    return MonomialOrder("elim", block=len(eliminate), perm=eliminate + rest)


class Ring:
    """Polynomial ring: an exact coefficient field and named variables."""

    __slots__ = ("field", "names", "_index", "zero", "one", "term_key")

    def __init__(self, field, names):
        names = tuple(names)
        seen = set()
        for nm in names:
            if nm in seen:
                raise ValueError(f"duplicate variable {nm!r}")
            seen.add(nm)
            if _is_reserved_name(nm, field):
                raise ValueError(f"variable name {nm!r} collides with scalar tokens")
        self.field = field
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        self.term_key = DEGREVLEX.key_function(len(names))  # the canonical order
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, (((0,) * len(names), field.one),))

    @property
    def nvars(self):
        return len(self.names)

    def var(self, which):
        i = self._index[which] if isinstance(which, str) else which
        e = tuple(int(j == i) for j in range(self.nvars))
        return Polynomial(self, ((e, self.field.one),))

    def monomial(self, exp, coeff=None):
        coeff = self.field.one if coeff is None else self.coerce_scalar(coeff)
        if not coeff:
            return self.zero
        return Polynomial(self, ((tuple(exp), coeff),))

    def scalar(self, c):
        c = self.coerce_scalar(c)
        if not c:
            return self.zero
        return Polynomial(self, (((0,) * self.nvars, c),))

    def coerce_scalar(self, c):
        if isinstance(c, int):
            return self.field.scalar(c)
        if self.field.char == 0:
            if isinstance(c, (Fraction, CycloElement)):
                return c
            raise FieldMismatch(f"cannot use {c!r} over {self.field!r}")
        return self.field.scalar(c)

    def parse(self, text):
        return _PolyParser(text, self).parse()

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}")

    def extended(self, *extra):
        return Ring(self.field, self.names + tuple(extra))

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field!r}[{','.join(self.names)}]"


def _is_reserved_name(nm, field):
    if field.char == 0:
        return len(nm) > 1 and nm[0] == "z" and nm[1:].isdigit()
    return nm == "t"


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending by degrevlex."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @classmethod
    def from_dict(cls, ring, d):
        keyf = ring.term_key
        items = sorted(d.items(), key=lambda t: keyf(t[0]), reverse=True)
        return cls(ring, tuple(items))

    # -- inspection

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    @property
    def is_binomial(self):
        return len(self.terms) <= 2

    def lt(self, order=None):
        """Leading (exp, coeff) under the order (canonical if omitted)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if order is None or order == DEGREVLEX:
            return self.terms[0]
        keyf = order.key_function(self.ring.nvars)
        return max(self.terms, key=lambda t: keyf(t[0]))

    def lm(self, order=None):
        return self.lt(order)[0]

    def lc(self, order=None):
        return self.lt(order)[1]

    def total_degree(self):
        return max(mono_deg(e) for e, _ in self.terms) if self.terms else 0

    def monic(self, order=None):
        if not self.terms:
            return self
        c = self.lc(order)
        if c == self.ring.field.one:
            return self
        return Polynomial(self.ring, tuple((e, cc / c) for e, cc in self.terms))

    def involves(self, var_indices):
        s = set(var_indices)
        return any(e[i] for e, _ in self.terms for i in s)

    def coefficient_of(self, exp):
        exp = tuple(exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return self.ring.field.zero

    # -- arithmetic

    def _check(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise FieldMismatch("polynomials from different rings")
            return other
        return self.ring.scalar(other)

    def __add__(self, other):
        other = self._check(other)
        d = dict(self.terms)
        for e, c in other.terms:
            prev = d.get(e)
            c = c if prev is None else prev + c
            if c:
                d[e] = c
            elif prev is not None:
                del d[e]
        return Polynomial.from_dict(self.ring, d)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.coerce_scalar(other)
            if not c:
                return self.ring.zero
            return Polynomial(self.ring, tuple((e, cc * c) for e, cc in self.terms))
        other = self._check(other)
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                c = c1 * c2
                prev = d.get(e)
                c = c if prev is None else prev + c
                if c:
                    d[e] = c
                elif prev is not None:
                    del d[e]
        return Polynomial.from_dict(self.ring, d)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, self.ring.one)

    def mul_term(self, exp, coeff):
        if not coeff:
            return self.ring.zero
        return Polynomial(
            self.ring, tuple((mono_mul(e, exp), c * coeff) for e, c in self.terms)
        )

    # -- identity

    def key(self):
        return tuple((e, scalar_key(c)) for e, c in self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                return NotImplemented
            if len(other.terms) != len(self.terms):
                return False
            return all(
                e1 == e2 and c1 == c2
                for (e1, c1), (e2, c2) in zip(self.terms, other.terms)
            )
        if isinstance(other, int):
            return self == self.ring.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<{render_poly(self)}>"

    # -- substitution / ring movement

    def substitute_zero(self, var_indices):
        """Set the given variables to 0 (stay in the same ring)."""
        s = set(var_indices)
        d = {}
        for e, c in self.terms:
            if not any(e[i] for i in s):
                d[e] = c
        return Polynomial.from_dict(self.ring, d)

    def project(self, new_ring, index_map):
        """Map into new_ring; index_map[i] = new position of old variable i,
        or None (the exponent must be 0 there)."""
        d = {}
        nv = new_ring.nvars
        for e, c in self.terms:
            ne = [0] * nv
            ok = True
            for i, x in enumerate(e):
                if not x:
                    continue
                t = index_map[i]
                if t is None:
                    ok = False
                    break
                ne[t] = x
            if not ok:
                raise ValueError("polynomial involves a dropped variable")
            key = tuple(ne)
            prev = d.get(key)
            c2 = c if prev is None else prev + c
            if c2:
                d[key] = c2
            elif prev is not None:
                del d[key]
        return Polynomial.from_dict(new_ring, d)


# ---------------------------------------------------------------------------
# text form


def _coeff_text(c):
    s = render_scalar(c, gf_suffix=False)
    bare = s.lstrip("-")
    if "+" in bare or "-" in bare[1:] or " " in s:
        return f"({s})", False
    return s, s.startswith("-")


def render_poly(p):
    if not p.terms:
        return "0"
    ring = p.ring
    chunks = []
    for e, c in p.terms:
        mono = "*".join(
            ring.names[i] if x == 1 else f"{ring.names[i]}^{x}"
            for i, x in enumerate(e)
            if x
        )
        cs, neg = _coeff_text(c)
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        elif cs == "-1":
            body = f"-{mono}"
            neg = True
        else:
            body = f"{cs}*{mono}"
        if not chunks:
            chunks.append(body)
        elif neg:
            chunks.append(f" - {body[1:]}" if body.startswith("-") else f" + {body}")
        else:
            chunks.append(f" + {body}")
    return "".join(chunks)


def parse_scalar(text, field=QQ):
    """Read a scalar in the expression grammar of ``Ring.parse``.

    An optional ``@FIELD`` suffix, as ``render_scalar`` writes it, must name
    `field`.
    """
    body, at, tag = text.partition("@")
    if at and tag.strip() != repr(field):
        msg = f"scalar tagged @{tag.strip()} read in {field!r}"
        raise ParseError(msg, 1, len(body) + 1)
    p = Ring(field, ()).parse(body)
    return p.terms[0][1] if p.terms else field.zero


# int() refuses numerals of more than 4300 digits, and a constant power is
# computed as it is read (3^1000000000000 would not finish), so numerals are
# capped in length and constant powers in the size of their value
MAX_NUMERAL_DIGITS = 1000


def _growth_bits(c):
    """About how many bits each factor of a power c^e adds to its value, for
    a char-0 constant c: log2, rounded down, of the larger of the common
    denominator and the summed numerators of c's coefficients (0 for ±1 and
    for a zN token)."""
    coeffs = c.coeffs if isinstance(c, CycloElement) else (Fraction(c),)
    den = lcm(*(q.denominator for q in coeffs))
    num = sum(abs(q.numerator) * (den // q.denominator) for q in coeffs)
    return max(num, den).bit_length() - 1


class _PolyParser:
    """Recursive descent over the one expression grammar of the package:

        expr   = [+-]* term {(+|-) term}
        term   = factor {(*|/) factor}
        factor = -factor | atom {^ [-]digits}
        atom   = ( expr ) | integer | variable | zN | t

    ``zN`` (zeta_N) is a scalar token in characteristic 0, ``t`` (the field
    generator) in GF(p^k) with k > 1.  A parenthesized expression, a divisor
    and the base of a negative power must each be a nonzero constant, so
    every accepted text is a polynomial.
    """

    def __init__(self, text, ring):
        self.text = text
        self.pos = 0
        self.ring = ring

    def error(self, msg):
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        raise ParseError(msg, line, col)

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def digits(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        return self.text[start : self.pos]

    def nonzero_constant(self, p, start, what):
        """The value of `p`, parsed from `start`; it must be a nonzero constant."""
        if len(p.terms) != 1 or any(p.terms[0][0]):
            self.pos = start
            self.error(f"{what} must be a nonzero constant")
        return p.terms[0][1]

    def numeral(self):
        """An unsigned integer literal, refused before int() reads it when it
        has more than MAX_NUMERAL_DIGITS digits."""
        start = self.pos
        text = self.digits()
        if len(text) > MAX_NUMERAL_DIGITS:
            self.pos = start
            self.error(f"numeral of {len(text)} digits exceeds {MAX_NUMERAL_DIGITS}")
        return int(text)

    def parse(self):
        try:
            p = self.expr()
        except EscalationLimit as exc:  # a scalar that needs QQ(zeta N) above MAX_ZETA_ORDER
            self.error(str(exc))
        self.skip()
        if self.pos != len(self.text):
            self.error(f"unexpected input {self.text[self.pos:self.pos+10]!r}")
        return p

    def expr(self):
        sign = 1
        while self.peek() and self.peek() in "+-":
            if self.text[self.pos] == "-":
                sign = -sign
            self.pos += 1
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek() and self.peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            self.skip()
            start = self.pos
            q = self.factor()
            if op == "*":
                p = p * q
            else:
                p = p * (self.ring.field.one / self.nonzero_constant(q, start, "a divisor"))
        return p

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        start = self.pos
        p = self.atom()
        while self.peek() == "^":
            self.pos += 1
            self.skip()
            negative = self.text.startswith("-", self.pos)
            self.pos += negative
            at = self.pos
            if not self.text[at : at + 1].isdecimal():
                self.error("missing exponent")
            e = self.numeral()
            if negative:
                c = self.nonzero_constant(p, start, "the base of a negative power")
                p = self.ring.scalar(self.ring.field.one / c)
            if (
                self.ring.field.char == 0
                and p.terms
                and not any(p.terms[0][0])
                and e * _growth_bits(p.terms[0][1]) > MAX_NUMERAL_DIGITS * 10 // 3
            ):
                self.pos = at
                self.error(f"constant power of more than about {MAX_NUMERAL_DIGITS} digits")
            p = p**e
        return p

    def atom(self):
        ring = self.ring
        ch = self.peek()
        if not ch:
            self.error("unexpected end of input")
        if ch == "(":
            start = self.pos
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                self.error("unbalanced parenthesis")
            self.pos += 1
            self.nonzero_constant(p, start, "a parenthesized expression")
            return p
        if ch.isdecimal():
            return ring.scalar(self.numeral())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name in ring._index:
                return ring.var(name)
            order = name[1:].lstrip("0")
            if ring.field.char == 0 and name[0] == "z" and name[1:].isdecimal() and order:
                # compare lengths first: int() refuses very long digit strings
                if len(order) > len(str(MAX_ZETA_ORDER)) or int(order) > MAX_ZETA_ORDER:
                    self.pos = start
                    self.error(f"root of unity order {order[:12]} exceeds {MAX_ZETA_ORDER}")
                return ring.scalar(zeta(int(order)))
            if ring.field.char != 0 and name == "t":
                f = ring.field
                if f.k == 1:
                    self.error("scalar token t needs an extension field")
                return ring.scalar(f.element((0, 1)))
            self.error(f"unknown variable {name!r}")
        self.error(f"unexpected character {ch!r}")
