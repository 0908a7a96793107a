"""Brute-force variety oracle over F_25 points, independent of the engine.

The f5_sweep workload checks every answer here.  Inputs are two-variable
binomial generating sets with exponents in {0,1,2}^2 and coefficients mod 5,
enumerated exactly as the acceptance suite's F_5 oracle does.  Answers come
back from the engine as text (the CLI's polynomial rendering) and are parsed
by the small grammar below, so the oracle never touches engine objects.

All arithmetic happens in GF(625) = F_5[T]/(T^4 - 2), with discrete-log
tables.  GF(25) embeds as F_5[T^2] (T^2 squares to 2, the convention of the
acceptance suite's F_25 tables, t^2 = 2), so one point set serves answers
over GF(5), GF(25) and GF(5^4): the 625 points of F_25^2.
"""

import re
from itertools import combinations

P = 5
Q = P**4
UNITS = Q - 1
LOG_MINUS_ONE = UNITS // 2

# moduli the workloads hand to the engine, as coefficient tuples low -> high
MODULUS_25 = (3, 0, 1)          # u^2 - 2
MODULUS_625 = (3, 0, 0, 0, 1)   # T^4 - 2


def _mul(a, b):
    prod = [0] * 7
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for d in range(6, 3, -1):  # T^4 = 2
        prod[d - 4] += 2 * prod[d]
    return tuple(c % P for c in prod[:4])


def _add(a, b):
    return tuple((x + y) % P for x, y in zip(a, b))


ZERO = (0, 0, 0, 0)
ONE = (1, 0, 0, 0)


def _exp_table():
    for cand in range(2, Q):
        g = (cand % 5, cand // 5 % 5, cand // 25 % 5, cand // 125)
        table = [ONE]
        x = g
        while x != ONE:
            table.append(x)
            x = _mul(x, g)
        if len(table) == UNITS:
            return table
    raise AssertionError("GF(625) has a primitive element")


EXP = _exp_table()
LOG = {x: i for i, x in enumerate(EXP)}

# image of the generator t of each engine field inside GF(625)
FIELD_T = {1: None, 2: (0, 0, 1, 0), 4: (0, 1, 0, 0)}

F25 = [(a, 0, b, 0) for a in range(P) for b in range(P)]
POINTS = [(LOG.get(x), LOG.get(y)) for x in F25 for y in F25]  # None = zero


# ---------------------------------------------------------------------------
# generating sets (same enumeration as the acceptance suite's F_5 oracle)

EXPONENTS = [(i, j) for i in range(3) for j in range(3)]


def all_generators():
    """Monomials, then monic binomials x^e1 - c*x^e2, as (e1, c1, e2, c2)."""
    gens = [(e, 1, None, 0) for e in EXPONENTS]
    for e1, e2 in combinations(EXPONENTS, 2):
        for c in range(1, P):
            gens.append((e1, 1, e2, -c))
    return gens


def all_ideal_generating_sets():
    gens = all_generators()
    return [(g,) for g in gens] + list(combinations(gens, 2))


def generator_terms(gen):
    """(e1, c1, e2, c2) as a term list [(log coeff, (i, j))]."""
    e1, c1, e2, c2 = gen
    terms = [(LOG[(c1 % P, 0, 0, 0)], e1)]
    if e2 is not None:
        terms.append((LOG[(c2 % P, 0, 0, 0)], e2))
    return terms


# ---------------------------------------------------------------------------
# rendered polynomial text -> term list

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def parse_poly(text, names, field_degree):
    """Parse the engine's rendering of a polynomial in `names` over
    GF(5^field_degree) (generator `t`) into [(log coeff, exponents)]."""
    toks = []
    for num, name, sym in _TOKEN.findall(text):
        toks.append(("n", int(num)) if num else ("v", name) if name else ("s", sym))
    pos = 0
    nvars = len(names)

    def peek():
        return toks[pos] if pos < len(toks) else ("end", None)

    def take(kind, val=None):
        nonlocal pos
        tok = peek()
        if tok[0] != kind or (val is not None and tok[1] != val):
            raise ValueError(f"bad polynomial text {text!r}")
        pos += 1
        return tok[1]

    def poly():
        out = {}
        sign = 1
        if peek() == ("s", "-"):
            take("s")
            sign = -1
        while True:
            for e, c in term().items():
                if sign < 0:
                    c = _mul(c, (P - 1, 0, 0, 0))
                out[e] = _add(out.get(e, ZERO), c)
            if peek() in (("s", "+"), ("s", "-")):
                sign = 1 if take("s") == "+" else -1
            else:
                return {e: c for e, c in out.items() if c != ZERO}

    def term():
        acc = {(0,) * nvars: ONE}
        while True:
            fac = factor()
            acc = {
                tuple(x + y for x, y in zip(e1, e2)): _mul(c1, c2)
                for e1, c1 in acc.items()
                for e2, c2 in fac.items()
            }
            if peek() != ("s", "*"):
                return acc
            take("s")

    def factor():
        kind, val = peek()
        if kind == "n":
            take("n")
            base = {(0,) * nvars: (val % P, 0, 0, 0)}
        elif kind == "v" and val in names:
            take("v")
            e = [0] * nvars
            e[names.index(val)] = 1
            base = {tuple(e): ONE}
        elif kind == "v" and val == "t" and FIELD_T.get(field_degree):
            take("v")
            base = {(0,) * nvars: FIELD_T[field_degree]}
        elif (kind, val) == ("s", "("):
            take("s")
            base = poly()
            take("s", ")")
        else:
            raise ValueError(f"bad polynomial text {text!r}")
        if peek() == ("s", "^"):
            take("s")
            k = take("n")
            out = {(0,) * nvars: ONE}
            for _ in range(k):
                out = {
                    tuple(x + y for x, y in zip(e1, e2)): _mul(c1, c2)
                    for e1, c1 in out.items()
                    for e2, c2 in base.items()
                }
                out = {e: c for e, c in out.items() if c != ZERO}
            return out
        return base

    result = poly()
    if pos != len(toks):
        raise ValueError(f"bad polynomial text {text!r}")
    return [(LOG[c], e) for e, c in result.items()]


# ---------------------------------------------------------------------------
# varieties


def _term_log(term, point):
    """log of the term's value at the point, or None when it is zero."""
    lc, (i, j) = term
    lx, ly = point
    if (i and lx is None) or (j and ly is None):
        return None
    return (lc + i * (lx or 0) + j * (ly or 0)) % UNITS


def vanishes(terms, point):
    if len(terms) == 1:
        return _term_log(terms[0], point) is None
    if len(terms) == 2:
        a = _term_log(terms[0], point)
        b = _term_log(terms[1], point)
        if a is None or b is None:
            return a is None and b is None
        return (a - b) % UNITS == LOG_MINUS_ONE
    total = ZERO
    for t in terms:
        v = _term_log(t, point)
        if v is not None:
            total = _add(total, EXP[v])
    return total == ZERO


def variety(polys, points=POINTS):
    """Indices of the points where every polynomial (term list) vanishes."""
    return frozenset(
        k for k, pt in enumerate(points) if all(vanishes(f, pt) for f in polys)
    )
