"""Partial characters: lattices mapped into k* and their binomial ideals.

A ``PartialCharacter`` lives on a coordinate cell (a subset of the ring's
variables): its lattice sits in ZZ^cell and its values are stored on the HNF
basis rows, so equal characters have equal representations.  The functions
here realize the two-way correspondence with saturated binomial ideals and
the saturation/extension calculus that drives every decomposition step.
Questions about the primes of saturated characters on one cell are answered
on the characters (ES Thm 2.1): P_rho ⊆ P_sigma exactly when sigma
`extends` rho, so no prime ideal is built to compare two of them, and
`ideal_contains` decides whether M(off-cell) + I_+(rho) contains a set of
polynomials with no Groebner run, one coset sum per polynomial (ES §2).
"""

from itertools import product
from math import prod

from . import checks
from .errors import (
    BinomialsError,
    InconsistentCharacter,
    MonomialInIdeal,
    NotBinomial,
    RootNotInField,
)
from .ideals import Ideal, cell_product, saturate_monomial
from .intlattice import Lattice, hnf_with_transform, p_part
from .poly import render_poly
from .scalars import render_scalar, scalar_key


def _evaluate(field, coefs, values):
    """prod values_i^coefs_i: a character's value on integer coordinates."""
    acc = field.one
    for coef, val in zip(coefs, values):
        if coef:
            acc = acc * (val**coef)
    return acc


def lattice_binomial(ring, cell, m, value):
    """x^(m+) − value·x^(m−) for a vector m over the cell's coordinates."""
    plus = [0] * ring.nvars
    minus = [0] * ring.nvars
    for pos, x in zip(cell, m):
        if x > 0:
            plus[pos] = x
        elif x < 0:
            minus[pos] = -x
    return ring.monomial(tuple(plus)) - ring.monomial(tuple(minus)) * value


class PartialCharacter:
    """A homomorphism from a sublattice of ZZ^cell to k*."""

    __slots__ = ("cell", "lattice", "values", "field")

    def __init__(self, cell, lattice, values, field):
        self.cell = tuple(cell)
        self.lattice = lattice
        self.values = tuple(values)
        self.field = field
        if lattice.ambient != len(self.cell) or len(self.values) != lattice.rank:
            raise BinomialsError("character needs one value per basis row on its cell")

    @classmethod
    def trivial(cls, cell, field):
        return cls(cell, Lattice(len(cell)), (), field)

    @classmethod
    def from_generators(cls, cell, vectors, values, field):
        """Character defined by values on arbitrary lattice generators.

        One Hermite form T·vectors = H gives everything: its nonzero rows are
        the HNF basis, valued by the matching rows of T, and the rows of T
        beside its zero rows span the integer relations among the generators
        (they are `kernel(transpose(vectors))`), on which the values must
        multiply to 1.  Independent generators have no relation to check.
        """
        h, t = hnf_with_transform(vectors)
        basis_rows, new_vals = [], []
        for row, coefs in zip(h, t):
            value = _evaluate(field, coefs, values)
            if any(row):
                basis_rows.append(tuple(row))
                new_vals.append(value)
            elif value != field.one:
                raise InconsistentCharacter("inconsistent character values on relations")
        lat = Lattice(len(cell))
        lat.basis = tuple(basis_rows)  # rows of a Hermite form already
        return cls(cell, lat, new_vals, field)

    def value(self, m):
        """rho(m) for m in the lattice (coordinates over the cell)."""
        coords = self.lattice.express(list(m))
        if coords is None:
            raise ValueError("vector not in the character's lattice")
        return _evaluate(self.field, coords, self.values)

    @property
    def rank(self):
        return self.lattice.rank

    def is_saturated(self):
        return self.lattice.is_saturated()

    def extends(self, other):
        """Whether self restricts to other: other's basis rows lie in self's
        lattice, and self takes other's values on them."""
        return self.cell == other.cell and all(
            row in self.lattice and self.value(row) == val
            for row, val in zip(other.lattice.basis, other.values)
        )

    def restricted(self, sublattice):
        """Restriction to a sublattice of the domain."""
        vals = [self.value(row) for row in sublattice.basis]
        return PartialCharacter(self.cell, sublattice, vals, self.field)

    def key(self):
        return (self.cell, self.lattice.basis, tuple(scalar_key(v) for v in self.values))

    def __eq__(self, other):
        return isinstance(other, PartialCharacter) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"PartialCharacter(cell={self.cell}, basis={list(map(list, self.lattice.basis))}, "
            f"values={list(self.values)})"
        )

    def serialize(self, names=None):
        cell = list(self.cell) if names is None else [names[i] for i in self.cell]
        return {
            "cell": cell,
            "basis": [[str(x) for x in row] for row in self.lattice.basis],
            "values": [render_scalar(v) for v in self.values],
        }


# ---------------------------------------------------------------------------
# extensions along finite-index inclusions: diagonalize, then take roots


def extend_all(rho, sup):
    """All extensions of rho to the finite-index superlattice sup.

    Deterministic order: per invariant factor, roots are listed by increasing
    root-of-unity exponent; the product is enumerated lexicographically.
    """
    lat = rho.lattice
    if sup == lat:
        return [rho]
    if not sup.contains_lattice(lat):
        raise BinomialsError("extension target does not contain the lattice")
    if lat.rank == 0:
        if sup.rank == 0:
            return [rho]
        raise ValueError("zero lattice has no finite-index proper superlattice")
    sup_rows, factors, u = lat.diagonalized_inclusion(sup)
    root_lists = []
    for f, u_i in zip(factors, u):
        # the value on factors[i] * sup_rows[i], transformed through u
        c = _evaluate(rho.field, u_i, rho.values)
        if f == 1:
            root_lists.append([c])
            continue
        roots = rho.field.dth_roots(c, f)
        expected = f // p_part(f, rho.field.char)
        if len(roots) != expected:
            raise RootNotInField(
                f"field has only {len(roots)} of the {expected} required {f}-th roots"
            )
        root_lists.append(roots)
    return [
        PartialCharacter.from_generators(rho.cell, sup_rows, choice, rho.field)
        for choice in product(*root_lists)
    ]


def extend_unique(rho, sup):
    exts = extend_all(rho, sup)
    if len(exts) != 1:
        raise BinomialsError("extension expected to be unique")
    return exts[0]


def p_saturation(rho):
    """The unique extension to Sat_p(L); in char 0 this is rho itself."""
    p = rho.field.char
    sat_p, _, _ = rho.lattice.p_saturations(p)
    if sat_p == rho.lattice:
        return rho
    return extend_unique(rho, sat_p)


def character_saturations(rho):
    """The saturation fan: the g distinct extensions of rho to Sat'_p(L),
    each pushed uniquely up to Sat(L).  The p-part extension is
    `p_saturation`."""
    _, sat_pp, g = rho.lattice.p_saturations(rho.field.char)
    sat_full = rho.lattice.saturation()
    partials = extend_all(rho, sat_pp)
    if len(partials) != g:
        raise BinomialsError(f"expected {g} extensions to Sat'_p(L), found {len(partials)}")
    return [e if e.lattice == sat_full else extend_unique(e, sat_full) for e in partials]


def laurent_primary_decomposition(rho):
    """Radical and primary data of the Laurent binomial ideal of rho.

    Returns a dict: 'radical' (character of √I(rho)), 'components' (characters
    of the primary components I(rho_j) on Sat'_p), 'associated_primes'
    (saturated characters rho'_j), and 'multiplicity' |Sat_p(L)/L|.
    """
    primes = character_saturations(rho)
    _, sat_pp, _ = rho.lattice.p_saturations(rho.field.char)
    return {
        "radical": p_saturation(rho),
        # rho_j is the restriction of its unique extension rho'_j
        "components": [s.restricted(sat_pp) for s in primes],
        "associated_primes": primes,
        "multiplicity": laurent_multiplicity(rho),
    }


def laurent_multiplicity(rho):
    """|Sat_p(L)/L|: the multiplicity of each primary component of I(rho).

    Sat_p(L) = span{(d_i / q_i) w_i} for L = span{d_i w_i} with q_i the
    p-part of d_i, so the index is the product of the q_i.
    """
    _, factors = rho.lattice.diagonal_data()
    return prod(p_part(d, rho.field.char) for d in factors)


# ---------------------------------------------------------------------------
# characters <-> ideals


def ideal_from_character(ring, rho):
    """The contraction of the Laurent binomial ideal of rho to the polynomial ring.

    This is J : (∏ cell)^∞ for J generated by the basis binomials
    x^(m+) − rho(m)·x^(m−), which realizes the full generating set over the
    whole lattice.  Below rank 2 J already is saturated:

    - Rank 0.  J is the zero ideal.
    - Rank 1.  f = x^(m+) − c·x^(m−) has disjoint supports and c ≠ 0, so no
      variable divides f.  k[x] is a UFD, so (f : x_i^∞) = (f) for every i.

    From rank 2 on, only the free variables need saturating.  The HNF basis
    is row echelon with positive pivots; call a cell variable free if no
    row has its pivot in that variable's column (`free_variables`).  Then
    J : (∏ cell)^∞ = J : (∏ free)^∞.

    Proof.  Let J' = J : (∏ free)^∞; every free variable is a
    nonzerodivisor modulo J'.  Go up the rows from the last one.  Row i is
    x_{p_i}^d·m₁ − c·m₂ with m₁, m₂ monomials in variables after p_i, and
    those are free or pivots of later rows, so nonzerodivisors modulo J' by
    induction.  So x_{p_i}·f ∈ J' gives c·m₂·f ∈ J', hence f ∈ J'.  With
    every cell variable a nonzerodivisor, J' is saturated by the cell, and
    J ⊆ J' ⊆ J : (∏ cell)^∞ gives equality.  The proof uses only that J'
    holds the row binomials, so K : (∏ cell)^∞ = K : (∏ free)^∞ for every
    ideal K that contains them.

    Full rank is the case with no free variable, where J itself is
    saturated.  The free variables are saturated by `saturate_monomial`, on
    the colon tree with no auxiliary variable.
    """
    gens = [
        lattice_binomial(ring, rho.cell, row, val)
        for row, val in zip(rho.lattice.basis, rho.values)
    ]
    out = Ideal(ring, gens)
    if rho.rank >= 2:
        out = saturate_monomial(out, cell_product(ring, free_variables(rho)))
    if checks.ENABLED:
        back = character_from_cellular(out, rho.cell)
        assert back == rho, "character round trip failed"
    return out


def free_variables(rho):
    """The cell variables x_v whose column holds no pivot of the Hermite
    basis of rho's lattice: the only ones a lattice ideal on the cell needs
    saturating at (proof at `ideal_from_character`)."""
    pivots = set(rho.lattice.pivots())
    return [v for j, v in enumerate(rho.cell) if j not in pivots]


def cell_character(gens, cell, field):
    """The character rho of the cell ideal (gens) + M(off-cell variables).

    By ES Thm 2.1 a binomial ideal of the Laurent ring k[cell^±] is either
    the unit ideal or I(rho), and rho is read off any binomial generating
    set: with the off-cell variables set to 0, each x^a − c·x^b gives the
    value c on a − b.  Returns None for the unit ideal, when a generator
    becomes a monomial or the values clash on a relation among the vectors.

    This is the one place a character is read.  `cell_scan` passes the
    cached reduced degrevlex basis of the whole ideal, and
    `character_from_cellular` the same basis of a cellular ideal, and
    `decompose._witness_character` the binomial and monomial generators of
    a witness colon; in both the elements on the cell generate
    I ∩ k[cell] (proof at `character_from_cellular`).  A reduced Groebner
    basis is binomial exactly when the ideal is (ES §1), so an element left
    with three or more terms on the cell raises NotBinomial; only a basis
    reading can raise it, which is why its message names a reduced basis
    element.
    """
    cell = tuple(cell)
    inside = set(cell)
    vectors, values = [], []
    for g in gens:
        off = [v for v in range(g.ring.nvars) if v not in inside]
        h = g.substitute_zero(off)
        if not h.terms:
            continue
        if len(h.terms) == 1:
            return None
        if len(h.terms) > 2:
            raise NotBinomial(
                f"reduced Groebner basis element {render_poly(g)} has "
                f"{len(h.terms)} terms on the cell"
            )
        (ea, ca), (eb, cb) = h.terms
        vectors.append(tuple(ea[v] - eb[v] for v in cell))
        values.append(-(cb / ca))
    try:
        return PartialCharacter.from_generators(cell, vectors, values, field)
    except InconsistentCharacter:
        return None


def character_from_cellular(i, cell):
    """The unique rho whose lattice ideal is (I ∩ k[cell] : (∏ cell)^∞),
    read off I's cached reduced degrevlex basis with no elimination.

    Precondition: I is cellular with respect to the cell Z, or the unit
    ideal.  Raises MonomialInIdeal when the cell ideal is the unit Laurent
    ideal.

    Proof that the basis elements lying in k[Z] generate I ∩ k[Z].  Let I be
    proper and cellular with respect to Z, and G a generating set of
    binomials and monomials; the reduced basis is one (ES Cor 1.2).  The map
    φ that sets the off-cell variables to 0 is a ring map onto k[Z] that
    fixes I ∩ k[Z]: f = Σ h_g·g in I ∩ k[Z] gives f = Σ φ(h_g)·φ(g).  φ(g) is
    g itself when g lies in k[Z], or 0.  It cannot be a lone term x^a: then
    x^a ≡ c·x^b with x^b off-cell (c = 0 for a monomial g), so x^(aN) lies in
    I for large N, and as cell variables are nonzerodivisors modulo I, 1
    would lie in I.  So G ∩ k[Z] generates I ∩ k[Z], and those are exactly
    the elements `cell_character` reads.  For the unit ideal the basis is
    {1} and the reading is None; with the full cell φ is the identity.
    Nothing here needs G to be a Groebner basis, so the same reading holds
    for the binomial and monomial generators of a witness colon
    (`decompose._witness_character`).
    """
    cell = tuple(sorted(cell))
    rho = cell_character(i.gb().polys, cell, i.ring.field)
    if rho is None:
        raise MonomialInIdeal("cell ideal contains a monomial in the cell variables")
    return rho


def character_prime_ideal(ring, rho):
    """M(cell) + I_+(rho): the prime/cellular ideal attached to a character."""
    outside = [v for v in range(ring.nvars) if v not in set(rho.cell)]
    gens = tuple(ring.var(v) for v in outside) + ideal_from_character(ring, rho).gens
    return Ideal(ring, gens)


def ideal_contains(rho, gens):
    """Whether M(off-cell) + I_+(rho) contains the polynomials `gens`,
    decided by one coset sum per polynomial with no Groebner run.

    Proof.  Setting the off-cell variables to 0 is a retraction of the
    polynomial ring onto k[Z], Z = rho's cell, whose kernel M(off Z) lies in
    the ideal; it fixes I_+(rho) = I(rho) ∩ k[Z].  So the ideal contains g
    iff g's image lies in I(rho).  By ES §2, k[Z^±]/I(rho) has one basis
    monomial x^r per coset r + L_rho, and x^a ≡ rho(a − r)·x^r modulo
    I(rho) for a in that coset.  So the image Σ c·x^a lies in I(rho) iff,
    for each coset representative r (`Lattice.reduce`), the sum of
    c·rho(a − r) over its exponents a is 0.  Nothing here needs rho
    saturated, nor g binomial.
    """
    cell = rho.cell
    for g in gens:
        off = [v for v in range(g.ring.nvars) if v not in cell]
        sums = {}
        for e, c in g.substitute_zero(off).terms:
            r, coords = rho.lattice.reduce([e[v] for v in cell])
            r = tuple(r)
            term = c * _evaluate(rho.field, coords, rho.values)
            sums[r] = sums[r] + term if r in sums else term
        if any(sums.values()):
            return False
    return True
