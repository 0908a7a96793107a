"""Exact coefficient arithmetic: QQ, cyclotomic fields QQ(zeta_N), finite fields GF(p^k).

Rationals are plain ``fractions.Fraction``; cyclotomic scalars are
``CycloElement`` values that remember their order N and mix freely with
rationals (arithmetic lifts both operands into QQ(zeta_lcm)).  Finite-field
scalars are ``FiniteFieldElement`` values tied to an interned ``FiniteField``.
Everything is immutable and exact.

Both extension fields are residue rings k[z]/(f) for a monic f (Phi_N over
QQ, an irreducible modulus over F_p), and one kernel does their polynomial
arithmetic: ``_mulmod`` multiplies modulo f, ``_divmod_monic`` divides by a
monic polynomial and ``_inverse_mod`` inverts modulo f by the extended Euclid
with monic remainders, on Fractions over QQ and on ints reduced mod p over
F_p.  Every inverse in QQ(zeta_N) and in a finite field above the table bound
is that one Euclid, and Rabin's irreducibility test is its coprimality check.
``power`` is the one square-and-multiply, for scalars, polynomials and the
powers of z in Rabin's test.

A ``CycloElement`` holds integer numerators over one positive denominator,
in lowest terms.  A product is ``_mulmod`` on the numerators, which stay
integers because Phi_N is monic, over the product of the denominators; a
sum cross-multiplies.  Two orders meet at their lcm m, where the integer
rows of ``_embedding`` (the powers of zeta_m that the basis of QQ(zeta_n)
becomes) lift the numerators.  A lift keeps lowest terms: Z[zeta_m] is free
over Z[zeta_n] on a basis that contains 1, so a prime dividing every lifted
numerator divides every original one.  Equal elements therefore have equal
denominators, and at one order equal numerators.  ``key`` reads an element's
minimal field off the integer Hermite form of those rows: for each m dividing
N in ascending order, the numerators lie in the row lattice of
``_embedding(m, N)`` exactly when the element lies in QQ(zeta_m), as
Z[zeta_N] ∩ QQ(zeta_m) = Z[zeta_m], and the first such m is the minimal one.

Each finite field keeps one table of its unit group, built on first use by
walking the powers of a generator g with the kernel: exp[i] = g^i, the log of
each element, and the Zech logarithms log(1 + g^i).  In a field of at most
MAX_TABLE_ORDER = 2^12 elements, multiplying, dividing, inverting and raising
to a power add or scale logs modulo q - 1, and adding reads one Zech
logarithm.  Above that bound the arithmetic stays on the kernel, and the
table, built only up to MAX_ENUMERATED_UNITS units, serves ``generator`` and
``dlog`` alone.
"""

from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import mul

from .errors import (
    BadFieldSpec,
    DivisionByZero,
    EscalationLimit,
    FieldMismatch,
    RootNotCyclotomic,
    RootNotInField,
)
from .intlattice import Lattice, hnf_with_transform, mat_mul, p_part


def euler_phi(n):
    result = n
    for p in factorint(n):
        result -= result // p
    return result


def divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factorint(n):
    """Trial-division factorization; returns {prime: multiplicity}."""
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin with the 13 prime bases up to 41 is exact below the first
# strong pseudoprime to all of them (Sorenson-Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3*10^24 (BadFieldSpec above)."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_LIMIT:
        raise BadFieldSpec(f"primality of {n} is not decided above {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_nth_root(x, n):
    """Exact n-th root of a nonnegative integer, or None."""
    if x < 0:
        return None
    if x in (0, 1) or n == 1:
        return x
    lo, hi = 0, 1
    while hi**n <= x:
        hi *= 2
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo if lo**n == x else None


def rational_nth_root(q, n):
    """Exact positive rational n-th root of a positive Fraction, or None."""
    if q <= 0:
        return None
    a = integer_nth_root(q.numerator, n)
    b = integer_nth_root(q.denominator, n)
    if a is None or b is None:
        return None
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# the residue-ring kernel: polynomials over QQ or F_p modulo a monic f


def _divmod_monic(num, f):
    """Quotient and remainder of num by the monic f (ascending lists).

    Nothing is divided, so the result is exact over any coefficients:
    Fractions in characteristic 0, plain ints that the caller reduces mod p.
    The remainder has exactly len(f) - 1 coefficients.
    """
    d = len(f) - 1
    num = list(num)
    if len(num) < d:
        num += [0] * (d - len(num))
    # synthetic division: num[i] ends as the quotient's coefficient of z^(i-d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            for j in range(d):
                if f[j]:
                    num[i - d + j] -= c * f[j]
    return num[d:], num[:d]


def _mulmod(a, b, f):
    """a * b modulo the monic f, as len(f) - 1 ascending coefficients."""
    conv = [0 * a[0]] * (len(a) + len(b) - 1)  # zero of the coefficients' type
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return _divmod_monic(conv, f)[1]


def _inverse_mod(a, f, p=0):
    """The inverse of a modulo the monic f, or None when a and f share a factor.

    Extended Euclid with monic remainders, on Fractions when p = 0 and on ints
    reduced mod p otherwise; r0 = s0 * a and r1 = s1 * a modulo f throughout.
    The inverse has len(f) - 1 coefficients.
    """

    def reduced(v):
        return [x % p for x in v] if p else v

    r0, r1 = list(f), list(a)
    s0, s1 = [0] * (len(f) - 1), [1] + [0] * (len(f) - 2)
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            return None
        inv = pow(r1[-1], -1, p) if p else 1 / Fraction(r1[-1])
        r1, s1 = reduced([c * inv for c in r1]), reduced([c * inv for c in s1])
        if len(r1) == 1:
            return s1
        q, r = _divmod_monic(r0, r1)
        r0, r1 = r1, reduced(r)
        s0, s1 = s1, reduced([x - y for x, y in zip(s0, _mulmod(q, s1, f))])


def power(x, e, one, times=mul):
    """x^e for an integer e >= 0 by square-and-multiply; `one` is x^0."""
    result = one
    while e:
        if e & 1:
            result = times(result, x)
        x = times(x, x)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the QQ(zeta_N) tower


@cache
def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, ascending, monic."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
        assert not any(rem)
    return tuple(num)


# arithmetic in QQ(zeta_N) grows faster than N, so no field above this order
# is built: not for a zN token, nor where two scalars' orders join (z997*z991
# would need N = 988027), nor for the d-th roots of unity a prime needs
MAX_ZETA_ORDER = 1000


def _modulus(order):
    """Phi_N, the modulus of QQ(zeta_N), for N up to MAX_ZETA_ORDER."""
    if order > MAX_ZETA_ORDER:
        raise EscalationLimit(
            f"QQ(zeta {order}) is above the cyclotomic order bound {MAX_ZETA_ORDER}"
        )
    return cyclotomic_polynomial(order)


def _zeta_power(order, e):
    """Integer coefficients of z^e (e >= 0) in the power basis of QQ(zeta_N):
    Phi_N is monic, so dividing by it keeps them integers."""
    return tuple(_divmod_monic([0] * e + [1], _modulus(order))[1])


@cache
def _embedding(n, m):
    """Rows: integer coefficients of each QQ(zeta_n) basis power inside QQ(zeta_m)."""
    assert m % n == 0
    step = m // n
    return tuple(_zeta_power(m, i * step) for i in range(euler_phi(n)))


@cache
def _subfield(m, n):
    """(lattice, T) for the rows of _embedding(m, n), a Z-basis of Z[zeta_m]
    inside Z[zeta_n]: the lattice holds their Hermite form H = T·rows."""
    h, t = hnf_with_transform(_embedding(m, n))
    return Lattice(len(h[0]), h), t


def _numerators(a, n):
    """The numerators of the CycloElement a at order n, a multiple of its own,
    over a's denominator, still in lowest terms (see the module docstring)."""
    if a.order == n:
        return a.num
    rows = _embedding(a.order, n)
    out = [0] * len(rows[0])
    for c, row in zip(a.num, rows):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return tuple(out)


def _make(n, num, den):
    """The element num/den of QQ(zeta_n), brought to lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num, den = [x // g for x in num], den // g
    out = CycloElement.__new__(CycloElement)
    out.order, out.num, out.den, out._key = n, tuple(num), den, None
    return out


class CycloElement:
    """Element of QQ(zeta_N) in the power basis 1, z, ..., z^(phi(N)-1).

    It holds integer numerators ``num`` over one positive denominator ``den``
    in lowest terms (gcd(den, *num) = 1), so equal elements of one order have
    equal fields.  The constructor takes a tuple of rational coefficients,
    and ``coeffs`` gives them back.  The stored order is not forced to be
    minimal; ``key`` reads the minimal order and the coefficients there.
    """

    __slots__ = ("order", "num", "den", "_key")

    def __init__(self, order, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        self.order = order
        self.num = tuple([c.numerator * (den // c.denominator) for c in coeffs])
        self.den = den
        self._key = None

    @property
    def coeffs(self):
        return tuple([Fraction(x, self.den) for x in self.num])

    # -- ring structure

    def __add__(self, other):
        if isinstance(other, CycloElement):
            n = self.order if other.order == self.order else lcm(self.order, other.order)
            a, b = _numerators(self, n), _numerators(other, n)
            da, db = self.den, other.den
            if da == db:
                return _make(n, [x + y for x, y in zip(a, b)], da)
            return _make(n, [x * db + y * da for x, y in zip(a, b)], da * db)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.numerator, other.denominator
        num = [x * q for x in self.num]
        num[0] += p * self.den
        return _make(self.order, num, self.den * q)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-x for x in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, CycloElement)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycloElement):
            n = self.order if other.order == self.order else lcm(self.order, other.order)
            prod = _mulmod(_numerators(self, n), _numerators(other, n), _modulus(n))
            return _make(n, prod, self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return Fraction(0)
        p, q = other.numerator, other.denominator
        return _make(self.order, [x * p for x in self.num], self.den * q)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        inv = _inverse_mod(self.num, _modulus(self.order))  # of num, so times den
        return CycloElement(self.order, [c * self.den for c in inv])

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            if not other:
                raise DivisionByZero("division by zero")
            return self * Fraction(other.denominator, other.numerator)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, Fraction(1))

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and (self.num[0], self.den) == other.as_integer_ratio()
        if isinstance(other, CycloElement):
            if other.den != self.den:
                return False
            if other.order == self.order:
                return self.num == other.num
            n = lcm(self.order, other.order)
            return _numerators(self, n) == _numerators(other, n)
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as the Fraction it equals
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash(self.key())

    def __repr__(self):
        return f"CycloElement({self.order}, {render_scalar(self)!r})"

    # -- structure helpers

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not rational")
        return Fraction(self.num[0], self.den)

    def key(self):
        """Hashable canonical form (minimal order, coefficient tuple)."""
        if self._key is None:
            self._key = self._minimal()
        return self._key

    def _minimal(self):
        """The element a = num/den as (m, its coordinates in QQ(zeta_m)) for
        the least m dividing N with a in QQ(zeta_m).

        Whether a lies in QQ(zeta_m) is an integer lattice question, for
        three reasons: den·a has the integer coordinates num, so it lies in
        Z[zeta_N]; the rows of _embedding(m, N), the powers of zeta_m in
        QQ(zeta_N), are a Z-basis of Z[zeta_m]; and Z[zeta_N] ∩ QQ(zeta_m) =
        Z[zeta_m] (Washington, Introduction to Cyclotomic Fields, ch. 2).
        So a lies in QQ(zeta_m) exactly when num is an integer combination x
        of those rows, and then x/den are a's coordinates there.  One Hermite
        form T·rows = H answers both: num reduces to zero by H exactly when
        it lies in their span, with coordinates c, and then x = c·T.
        """
        for m in divisors(self.order)[:-1]:
            lat, t = _subfield(m, self.order)
            coords = lat.express(self.num)
            if coords is not None:
                return (m, tuple([Fraction(x, self.den) for x in mat_mul([coords], t)[0]]))
        # at m = N the element is its own representative
        return (self.order, self.coeffs)


def zeta(n, j=1):
    """The root of unity zeta_n^j as an exact scalar."""
    j %= n
    if j == 0:
        return Fraction(1)
    g = gcd(j, n)
    n, j = n // g, j // g
    if n == 1:
        return Fraction(1)
    if n == 2:
        return Fraction(-1)
    return _make(n, _zeta_power(n, j), 1)


def scalar_order(a):
    """Cyclotomic order needed to represent a char-0 scalar."""
    if isinstance(a, CycloElement):
        return a.key()[0]
    return 1


def unit_decompose(a):
    """Write a nonzero char-0 scalar as q * zeta_o^j with q in QQ_{>0}.

    Returns (q, o, j) with gcd(j, o) = 1 (o = 1 when a is a positive
    rational).  Raises RootNotCyclotomic when no such form exists.
    """
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(a, Fraction):
        if not a:
            raise DivisionByZero("zero has no unit decomposition")
        if a > 0:
            return (a, 1, 0)
        return (-a, 2, 1)
    if a.is_rational():
        return unit_decompose(a.rational_value())
    n = a.order
    e = lcm(2, n)
    w = a**e
    if isinstance(w, CycloElement):
        if not w.is_rational():
            raise RootNotCyclotomic(f"{render_scalar(a)} is not rational times a root of unity")
        w = w.rational_value()
    q = rational_nth_root(w, e)
    if q is None:
        raise RootNotCyclotomic(
            f"{render_scalar(a)}^{e} = {render_scalar(w)} has no rational {e}-th root"
        )
    z = a / q
    # match z against the E-th roots of unity
    zz = zeta(e)
    power = Fraction(1)
    for j in range(e):
        if power == z:
            if j == 0:
                return (q, 1, 0)
            g = gcd(j, e)
            return (q, e // g, j // g)
        power = power * zz
    raise RootNotCyclotomic(f"{render_scalar(a)} is not rational times a root of unity")


def root_of_unity_order(z, field):
    """The order of z as a root of unity, or None when z is none.

    In GF(q) every unit is one, of order m / gcd(dlog z, m) for m = q − 1.
    In char 0 `unit_decompose` writes z = q·zeta_o^j with q > 0 rational,
    and z is a root of unity exactly when q = 1; a z of no such form is none.
    """
    if field.char:
        m = field.units_order
        return m // gcd(field.dlog(z), m)
    try:
        q, o, _ = unit_decompose(z)
    except RootNotCyclotomic:
        return None
    return o if q == 1 else None


# ---------------------------------------------------------------------------
# finite fields GF(p^k)


def _ff_poly_is_irreducible(coeffs, p):
    """Rabin's irreducibility test over F_p of a monic f of degree k, ascending.

    f is irreducible exactly when x^(p^k) = x modulo f and x^(p^(k/l)) - x is
    a unit modulo f for every prime l dividing k.
    """
    k = len(coeffs) - 1
    if k == 1:
        return True
    if coeffs[0] == 0:
        return False

    def x_power_minus_x(e):
        out = power([0, 1] + [0] * (k - 2), e, [1] + [0] * (k - 1),
                    lambda a, b: [c % p for c in _mulmod(a, b, coeffs)])
        out[1] = (out[1] - 1) % p
        return out

    if any(_inverse_mod(x_power_minus_x(p ** (k // q)), coeffs, p) is None
           for q in factorint(k)):
        return False
    return not any(x_power_minus_x(p**k))


# Rabin's test of a degree-k modulus takes about k*log2(p) squarings modulo
# it, each of about k^2 coefficient products plus a fixed Python cost worth
# some 128 more.  A field is built only when one test fits in this many
# products, and the modulus search tries only as many candidates as fit, so
# every header builds or is refused in under 0.7 s on a 2-core VM: GF(13^28),
# whose search runs out, is the slowest, and GF(1000003^4), which searched for
# minutes, is refused in 0.2 s.
MAX_FIELD_WORK = 5 * 10**6


def _rabin_work(p, k):
    return k * p.bit_length() * (k * k + 128)


def default_modulus(p, k):
    """Deterministic smallest monic irreducible of degree k over F_p, searched
    among the first MAX_FIELD_WORK // _rabin_work(p, k) candidates."""
    if k == 1:
        return (0, 1)
    # enumerate lower coefficients lexicographically
    tries = min(p**k, MAX_FIELD_WORK // _rabin_work(p, k))
    for idx in range(tries):
        coeffs = []
        v = idx
        for _ in range(k):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _ff_poly_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise BadFieldSpec(
        f"the modulus search of GF({p}^{k}) stops after {tries} candidates; "
        f"give one as GF({p}^{k}; modulus)"
    )


# the table of a field walks its whole unit group, which takes seconds past
# this order (GF(1000003): 2.7 s and 162 MB), so larger fields refuse
# generator() and dlog() instead
MAX_ENUMERATED_UNITS = 2**18

# fields of up to this many elements do all their arithmetic on their table;
# larger ones multiply and invert with the residue-ring kernel
MAX_TABLE_ORDER = 2**12


class FiniteField:
    """GF(p^k) with an explicit monic irreducible modulus over F_p."""

    _registry = {}

    def __new__(cls, p, k=1, modulus=None):
        # the default modulus is searched for only on a field's first use
        key = (p, k, None if modulus is None else tuple(modulus))
        inst = cls._registry.get(key)
        if inst is None:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if k < 1:
                raise ValueError(f"extension degree {k} is not positive")
            if _rabin_work(p, k) > MAX_FIELD_WORK:
                raise BadFieldSpec(
                    f"GF({p}^{k}) is above the field bound: testing a modulus "
                    f"takes about {_rabin_work(p, k)} > {MAX_FIELD_WORK} products"
                )
            full = (p, k, default_modulus(p, k) if modulus is None else key[2])
            inst = cls._registry.get(full)
            if inst is None:
                inst = super().__new__(cls)
                inst._init(*full, tested=modulus is None)
            cls._registry[key] = cls._registry[full] = inst
        return inst

    def _init(self, p, k, modulus, tested):
        if len(modulus) != k + 1 or modulus[k] != 1:
            raise ValueError("modulus must be monic of degree k")
        # default_modulus has already run Rabin's test on its modulus
        if not tested and not _ff_poly_is_irreducible(list(modulus), p):
            raise ValueError("modulus is not irreducible over F_p")
        self.p = p
        self.k = k
        self.char = p
        self.modulus = modulus
        self.units_order = p**k - 1
        self.zero = FiniteFieldElement(self, (0,) * k)
        self.one = FiniteFieldElement(self, (1,) + (0,) * (k - 1))

    @cached_property
    def _table(self):
        """(exp, log, zech) of the unit group, built on first use.

        Walks the powers of each unit in elements() order with the
        residue-ring kernel until one has order q - 1: that unit is the
        generator g.  log maps the coefficients of g^i to i, and those of
        zero to None.  In a field of up to MAX_TABLE_ORDER elements,
        exp[i] = g^i and zech[i] = log(1 + g^i), so that the arithmetic adds
        and multiplies by index.  Above that bound the table serves
        generator() and dlog() alone: exp stops at g^1 and zech is None, so
        that it holds no element per unit.
        """
        m, p = self.units_order, self.p
        if m > MAX_ENUMERATED_UNITS:
            raise EscalationLimit(
                f"{self!r} has {m} units; generators and discrete logs "
                f"are found by enumeration up to {MAX_ENUMERATED_UNITS} units"
            )
        one, seen = self.one.coeffs, set()
        for idx in range(1, m + 1):
            g = self._digits(idx)
            if g in seen:  # a power of a unit of smaller order
                continue
            log, x = {one: 0}, g
            while x != one:
                log[x] = len(log)
                x = tuple([c % p for c in _mulmod(x, g, self.modulus)])
            if len(log) == m:
                break
            seen.update(log)
        small = m < MAX_TABLE_ORDER
        exp = list(log) if small else [one, g]  # log keeps the walk's order
        log[self.zero.coeffs] = None
        zech = [log[((c[0] + 1) % p,) + c[1:]] for c in exp] if small else None
        return [FiniteFieldElement(self, c) for c in exp], log, zech

    def _digits(self, idx):
        """Coefficients of the idx-th element in elements() order."""
        return tuple(idx // self.p**i % self.p for i in range(self.k))

    def scalar(self, x):
        if isinstance(x, FiniteFieldElement):
            if x.field is not self:
                raise FieldMismatch("element of a different finite field")
            return x
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DivisionByZero("denominator divisible by p")
            num = self.scalar(x.numerator)
            return num * self.scalar(x.denominator).inverse()
        return FiniteFieldElement(self, ((x % self.p),) + (0,) * (self.k - 1))

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) < self.k:
            coeffs = coeffs + (0,) * (self.k - len(coeffs))
        return FiniteFieldElement(self, coeffs)

    def elements(self):
        """All field elements in deterministic (lexicographic) order."""
        return [self.zero] + [FiniteFieldElement(self, self._digits(idx))
                              for idx in range(1, self.p**self.k)]

    def generator(self):
        """The first element of order q - 1 in elements() order."""
        return self._table[0][1 % self.units_order]

    def dlog(self, a):
        """Discrete log base generator(), read off the table."""
        if not a:
            raise DivisionByZero("dlog of zero")
        return self._table[1][a.coeffs]

    def dth_roots(self, c, d):
        """All d-th roots of c in this field (unique root for the p-part)."""
        if not c:
            return [self.zero]
        p, k = self.p, self.k
        q = p_part(d, p)
        d //= q
        # the p-part root is unique: inverse Frobenius x -> x^(p^(k-1)), q-fold
        root = c ** (q ** (k - 1))
        if d == 1:
            return [root]
        m = self.units_order
        g0 = gcd(d, m)
        t = self.dlog(root)
        if t % g0 != 0:
            raise RootNotInField(
                f"{render_scalar(c)} has no {d}-th root in GF({p}^{k})"
            )
        minv = pow(d // g0, -1, m // g0)
        s0 = ((t // g0) * minv) % (m // g0)
        gen = self.generator()
        return [gen ** (s0 + i * (m // g0)) for i in range(g0)]

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def __reduce__(self):
        return (FiniteField, (self.p, self.k, self.modulus))


class FiniteFieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FiniteFieldElement):
            if other.field is not self.field:
                raise FieldMismatch("mixed finite fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other, negate=False):
        """self + other, or self - other when negate: one coercion, and in
        the table case one Zech step, with -g^b = g^(b + m/2) for odd p."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        m = f.units_order
        if m < MAX_TABLE_ORDER:  # g^a + g^b = g^(a + log(1 + g^(b - a)))
            exp, log, zech = f._table
            a, b = log[self.coeffs], log[o.coeffs]
            if b is None:
                return self
            if negate and f.p > 2:
                b = (b + m // 2) % m
            if a is None:
                return exp[b]
            z = zech[(b - a) % m]
            return f.zero if z is None else exp[(a + z) % m]
        s = -1 if negate else 1
        return FiniteFieldElement(
            f, tuple((a + s * b) % f.p for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        m = f.units_order
        if m < MAX_TABLE_ORDER and self:  # -1 = g^(m/2) for odd p
            exp, log, _ = f._table
            return exp[(log[self.coeffs] + (m // 2 if f.p > 2 else 0)) % m]
        return FiniteFieldElement(f, tuple((-a) % f.p for a in self.coeffs))

    def __sub__(self, other):
        return self.__add__(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.units_order < MAX_TABLE_ORDER:
            exp, log, _ = f._table
            a, b = log[self.coeffs], log[o.coeffs]
            return f.zero if a is None or b is None else exp[(a + b) % f.units_order]
        if f.k == 1:
            return FiniteFieldElement(f, ((self.coeffs[0] * o.coeffs[0]) % f.p,))
        prod = _mulmod(self.coeffs, o.coeffs, f.modulus)
        return FiniteFieldElement(f, tuple([c % f.p for c in prod]))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        f = self.field
        if f.units_order < MAX_TABLE_ORDER:
            exp, log, _ = f._table
            return exp[-log[self.coeffs] % f.units_order]
        return FiniteFieldElement(f, tuple(_inverse_mod(self.coeffs, f.modulus, f.p)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise DivisionByZero("division by zero")
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        f = self.field
        if f.units_order < MAX_TABLE_ORDER and self:
            exp, log, _ = f._table
            return exp[log[self.coeffs] * e % f.units_order]
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, f.one)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self.field.scalar(other)
            except DivisionByZero:
                return False
        if isinstance(other, FiniteFieldElement):
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.field.modulus, self.coeffs))

    def key(self):
        return (self.field.p, self.field.k, self.coeffs)

    def __repr__(self):
        return f"FiniteFieldElement({render_scalar(self)!r})"


# ---------------------------------------------------------------------------
# field specifications


class CycloField:
    """Char-0 field QQ(zeta_N); N = 1 is plain QQ.

    The order only bounds which roots of unity are *declared* available;
    arithmetic transparently enlarges as needed, up to MAX_ZETA_ORDER.
    """

    __slots__ = ("order",)
    char = 0

    def __init__(self, order=1):
        self.order = order

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def scalar(self, x):
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, (Fraction, CycloElement)):
            return x
        raise FieldMismatch(f"cannot coerce {x!r} into {self!r}")

    def dth_roots(self, c, d):
        if isinstance(c, int):
            c = Fraction(c)
        if not c:
            return [Fraction(0)]
        q, o, j = unit_decompose(c)
        t = rational_nth_root(q, d)
        if t is None:
            raise RootNotCyclotomic(
                f"{render_scalar(c)} has no {d}-th root of the form "
                "(rational) * (root of unity)"
            )
        # solutions of x^d = zeta_o^j are zeta_(o*d)^(j + o*i)
        return [t * zeta(o * d, j + o * i) for i in range(d)]

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("cyclo", self.order))

    def __repr__(self):
        return "QQ" if self.order <= 2 else f"QQ(zeta {self.order})"


QQ = CycloField(1)


def scalar_key(a):
    """Canonical hashable key of a scalar, stable across stored orders."""
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(a, Fraction):
        return (1, (a,))
    return a.key()


# ---------------------------------------------------------------------------
# text rendering of scalars


# str(int) refuses numbers above 4300 digits, so longer ones are written in
# blocks of 4000 digits
_BLOCK = 10**4000


def _render_rational(q):
    """Exact text of a rational (or int) as str() writes it, of any size."""

    def digits(n):
        blocks = []
        while n >= _BLOCK:
            n, lo = divmod(n, _BLOCK)
            blocks.append(str(lo).zfill(4000))
        return str(n) + "".join(reversed(blocks))

    text = "-" * (q < 0) + digits(abs(q.numerator))
    return text if q.denominator == 1 else f"{text}/{digits(q.denominator)}"


def render_terms(pairs):
    """The text of a sum of terms, from (coefficient text, monomial text)
    pairs, the monomial text empty for a constant: the one writer of
    polynomials, in z or t and in the ring's variables.  A coefficient 1
    or -1 is left out before a monomial, and a term whose text starts with
    "-" is joined by " - "."""
    chunks = []
    for coeff, mono in pairs:
        if not mono:
            body = coeff
        elif coeff == "1":
            body = mono
        elif coeff == "-1":
            body = f"-{mono}"
        else:
            body = f"{coeff}*{mono}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append(f" - {body[1:]}")
        else:
            chunks.append(f" + {body}")
    return "".join(chunks) or "0"


def _render_qpoly(coeffs, varname):
    powers = ["", varname] + [f"{varname}^{i}" for i in range(2, len(coeffs))]
    return render_terms(
        (_render_rational(c), powers[i]) for i, c in reversed(list(enumerate(coeffs))) if c
    )


def render_scalar(a, gf_suffix=True):
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(a, Fraction):
        return _render_rational(a)
    if isinstance(a, CycloElement):
        return _render_qpoly(a.coeffs, f"z{a.order}")
    if isinstance(a, FiniteFieldElement):
        f = a.field
        body = _render_qpoly(a.coeffs, "t")
        if not gf_suffix:
            return body
        tag = f"@GF({f.p}^{f.k})" if f.k > 1 else f"@GF({f.p})"
        return body + tag
    raise TypeError(f"not a scalar: {a!r}")
