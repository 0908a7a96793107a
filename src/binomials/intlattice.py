"""Exact integer matrix normal forms and lattice operations.

Vectors are rows; a lattice is the row span of its basis matrix over ZZ.
All arithmetic is arbitrary-precision.  HNF is the canonical representation
(lattice equality = HNF equality); SNF powers saturations, quotient orders
and the diagonalized inclusions used for character extensions.
"""

from itertools import combinations
from math import gcd, prod

from . import checks
from .scalars import p_part


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[]] * len(a) if a else []
    n, m, p = len(a), len(b), len(b[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(p):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hnf_with_transform(rows):
    """Row Hermite normal form.  Returns (H, T) with T*rows = H, det T = ±1.

    H is in row-echelon shape with positive pivots and entries above each
    pivot reduced to [0, pivot); zero rows sink to the bottom.
    """
    h = [list(r) for r in rows]
    n = len(h)
    ncols = len(h[0]) if h else 0
    t = _identity(n)
    r = 0
    for c in range(ncols):
        # pivot-size heuristic: smallest nonzero magnitude in this column
        piv = None
        best = None
        for i in range(r, n):
            v = abs(h[i][c])
            if v and (best is None or v < best):
                best = v
                piv = i
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        t[r], t[piv] = t[piv], t[r]
        # clear below via gcd steps
        for i in range(r + 1, n):
            while h[i][c]:
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    t[i] = [x - q * y for x, y in zip(t[i], t[r])]
                if h[i][c]:
                    h[r], h[i] = h[i], h[r]
                    t[r], t[i] = t[i], t[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            t[r] = [-x for x in t[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                t[i] = [x - q * y for x, y in zip(t[i], t[r])]
        r += 1
        if r == n:
            break
    return h, t


def hnf(rows):
    h, _ = hnf_with_transform(rows)
    return [row for row in h if any(row)]


def kernel(rows):
    """Basis (rows) of {x in ZZ^n : sum_i x_i * rows_i-th-coordinate... },

    i.e. the left kernel of the matrix's transpose: all integer row vectors v
    of length n with rows * v^T = 0 where `rows` is m x n.  The result is a
    saturated lattice basis of the solution set.
    """
    if not rows:
        return []
    cols = transpose(rows)  # n x m; want v with v * cols-as-rows... below
    h, t = hnf_with_transform(cols)
    return [t[i] for i in range(len(h)) if not any(h[i])]


def smith_normal_form(rows):
    """(U, D, W) with U*A = D*W diagonal, d_1 | d_2 | ..., U, W unimodular.

    W is the inverse of the column transform: each column operation on A is
    undone by one row operation on W, so no matrix is ever inverted.
    """
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    u = _identity(n)
    w = _identity(m)

    def col_op(j1, j2, q):
        # col j2 -= q * col j1 on A is undone by row j1 += q * row j2 on W
        for row in a:
            row[j2] -= q * row[j1]
        w[j1] = [x + q * y for x, y in zip(w[j1], w[j2])]

    def col_swap(j1, j2):
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]
        w[j1], w[j2] = w[j2], w[j1]

    def row_op(i1, i2, q):
        a[i2] = [x - q * y for x, y in zip(a[i2], a[i1])]
        u[i2] = [x - q * y for x, y in zip(u[i2], u[i1])]

    def row_swap(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    k = 0
    while k < min(n, m):
        # find smallest nonzero entry in the trailing block
        piv = None
        best = None
        for i in range(k, n):
            for j in range(k, m):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        row_swap(k, piv[0])
        col_swap(k, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, n):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    row_op(k, i, q)
                    if a[i][k]:
                        row_swap(k, i)
                        dirty = True
            for j in range(k + 1, m):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    col_op(k, j, q)
                    if a[k][j]:
                        col_swap(k, j)
                        dirty = True
        # enforce divisibility d_k | a[i][j]
        stable = True
        for i in range(k + 1, n):
            for j in range(k + 1, m):
                if a[i][j] % a[k][k]:
                    # add column j to column k and restart this pivot
                    col_op(j, k, -1)
                    stable = False
                    break
            if not stable:
                break
        if stable:
            if a[k][k] < 0:
                for row in a:
                    row[k] = -row[k]
                w[k] = [-x for x in w[k]]
            k += 1
    if checks.ENABLED:
        assert mat_mul(u, [list(r) for r in rows]) == mat_mul(a, w), "SNF identity U*A = D*W violated"
        assert abs(det(u)) == 1 and abs(det(w)) == 1, "SNF transforms not unimodular"
    return u, a, w


class Lattice:
    """Sublattice of ZZ^n, stored via its row HNF basis (canonical form)."""

    __slots__ = ("ambient", "basis", "_diagonal")

    def __init__(self, ambient, rows=()):
        self.ambient = ambient
        reduced = hnf(rows) if rows else []
        self.basis = tuple(tuple(r) for r in reduced)
        self._diagonal = None

    @classmethod
    def full(cls, n):
        return cls(n, _identity(n))

    @classmethod
    def kernel_of(cls, rows):
        if not rows:
            return cls.full(0)
        return cls(len(rows[0]), kernel(rows))

    @property
    def rank(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and other.ambient == self.ambient
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Lattice({self.ambient}, {list(map(list, self.basis))})"

    def express(self, v):
        """Integer coordinates of v in the HNF basis, or None."""
        v = list(v)
        coords = []
        for row in self.basis:
            pj = next(j for j, x in enumerate(row) if x)
            if any(v[j] for j in range(pj)):
                return None
            q, r = divmod(v[pj], row[pj])
            if r:
                return None
            coords.append(q)
            v = [x - q * y for x, y in zip(v, row)]
        if any(v):
            return None
        return coords

    def __contains__(self, v):
        return self.express(v) is not None

    def contains_lattice(self, other):
        return all(row in self for row in other.basis)

    def sum(self, other):
        assert other.ambient == self.ambient
        return Lattice(self.ambient, list(self.basis) + list(other.basis))

    def intersection(self, other):
        assert other.ambient == self.ambient
        if not self.basis or not other.basis:
            return Lattice(self.ambient)
        b1, b2 = list(self.basis), list(other.basis)
        stacked = transpose([list(r) for r in b1] + [[-x for x in r] for r in b2])
        ker = kernel(stacked)  # rows (a | b) with a*b1 = b*b2
        rows = [mat_mul([row[: len(b1)]], b1)[0] for row in ker]
        return Lattice(self.ambient, rows)

    def diagonal_data(self):
        """(W, factors) from one Smith form of the basis B: U*B = D*W.

        W is unimodular and factors are the nonzero d_i, so L = span{d_i w_i}
        and Sat(L) = span{w_i : i < rank}.  Every index question reads these.
        The form is computed once per lattice and kept as tuples.
        """
        if self._diagonal is None:
            _, d, w = smith_normal_form([list(r) for r in self.basis])
            self._diagonal = tuple(map(tuple, w)), tuple(d[i][i] for i in range(self.rank))
        return self._diagonal

    def saturation(self):
        w, _ = self.diagonal_data()
        return Lattice(self.ambient, w[: self.rank])

    def p_saturations(self, p):
        """(Sat_p, Sat'_p, g) per the p-primary splitting of Sat(L)/L.

        Convention for p = 0: Sat_0 = L and Sat'_0 = Sat(L).
        """
        w, factors = self.diagonal_data()
        sat_p_rows = []
        sat_pp_rows = []
        g = 1
        for d_i, w_i in zip(factors, w):
            q = p_part(d_i, p)
            rest = d_i // q
            g *= rest
            sat_p_rows.append([rest * x for x in w_i])
            sat_pp_rows.append([q * x for x in w_i])
        sat_p = Lattice(self.ambient, sat_p_rows)
        sat_pp = Lattice(self.ambient, sat_pp_rows)
        if checks.ENABLED:
            assert sat_p.intersection(sat_pp) == self
            assert sat_p.sum(sat_pp) == self.saturation()
        return sat_p, sat_pp, g

    def quotient_order(self):
        """[Sat(L) : L], the product of the invariant factors."""
        return prod(self.diagonal_data()[1])

    def is_saturated(self):
        return self.quotient_order() == 1

    def diagonalized_inclusion(self, sup):
        """For self ⊆ sup of equal rank-compatible inclusion, diagonalize.

        Returns (sup_rows, factors, self_expr) such that sup_rows is a basis
        of sup, self has basis {factors[i] * sup_rows[i] : i < rank(self)},
        and self_expr[i] expresses that basis row in terms of self.basis.
        """
        assert sup.contains_lattice(self)
        x = [sup.express(row) for row in self.basis]
        u, d, w = smith_normal_form(x)
        sup_rows = mat_mul(w, [list(r) for r in sup.basis])
        factors = [d[i][i] for i in range(len(self.basis))]
        # rows of U * self.basis equal factors[i] * sup_rows[i]
        if checks.ENABLED:
            lhs = mat_mul(u, [list(r) for r in self.basis])
            for i, f in enumerate(factors):
                assert lhs[i] == [f * y for y in sup_rows[i]]
        return sup_rows, factors, u

    def circuits(self):
        """All circuits: primitive lattice vectors of inclusion-minimal support.

        Computed from a kernel presentation of Sat(L) by Cramer determinants
        over (rank-of-presentation + 1)-subsets of coordinates; normalized to
        gcd 1 with positive first nonzero entry; support-unique.
        """
        n = self.ambient
        if not self.basis:
            return []
        pres = kernel(self.basis)  # Sat(L) = kernel of this matrix
        d = len(pres)
        if d == 0:
            # full lattice: circuits are the unit vectors
            return [tuple(int(i == j) for j in range(n)) for i in range(n)]
        cols = transpose(pres)
        out = {}
        for subset in combinations(range(n), d + 1):
            vec = [0] * n
            nonzero = False
            for pos, j in enumerate(subset):
                sub = [cols[jj] for t, jj in enumerate(subset) if t != pos]
                m = det(sub)
                if pos % 2:
                    m = -m
                vec[j] = m
                nonzero = nonzero or bool(m)
            if not nonzero:
                continue
            g = 0
            for x in vec:
                g = gcd(g, x)
            vec = [x // g for x in vec]
            lead = next(x for x in vec if x)
            if lead < 0:
                vec = [-x for x in vec]
            support = tuple(j for j, x in enumerate(vec) if x)
            out.setdefault(support, tuple(vec))
        return [out[s] for s in sorted(out)]

