"""Exception hierarchy shared by all modules."""


class BinomialsError(Exception):
    """Base class for mathematical errors raised by this package."""


class DivisionByZero(BinomialsError, ZeroDivisionError):
    pass


class FieldMismatch(BinomialsError):
    """Operands live over incompatible coefficient fields."""


class RootNotInField(BinomialsError):
    """A required d-th root does not exist in the coefficient field GF(p^k)."""


class RootNotCyclotomic(BinomialsError):
    """A d-th root was requested that lies outside every supported QQ(zeta_N).

    Only roots of (rational d-th power) * (root of unity) are taken in
    characteristic 0; anything else signals a non-unital coefficient.
    """


class NotTwoTerm(BinomialsError):
    """Quasi-power of a polynomial that does not have exactly two terms."""


class NonzerodivisorViolated(BinomialsError):
    """The leading monomial of a binomial divisor is a zerodivisor."""


class InconsistentCharacter(BinomialsError, ValueError):
    """Character values disagree on an integer relation among the lattice
    generators, so no character takes them (the binomials generate the unit
    Laurent ideal)."""


class NotBinomial(BinomialsError):
    """The input ideal is not binomial: its reduced Groebner basis has an
    element with three or more terms (ES §1)."""


class MonomialInIdeal(BinomialsError):
    """A cell ideal contains a monomial in the cell variables, so its
    Laurent image is the unit ideal and carries no partial character."""


class InfiniteStandardSet(BinomialsError):
    """Standard-monomial enumeration requested for an infinite staircase."""


class EscalationLimit(BinomialsError):
    """An exponent-escalation loop exceeded its configured bound."""


class ParseError(BinomialsError):
    def __init__(self, message, line=None, col=None):
        loc = "" if line is None else f" at line {line}, column {col}"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.col = col


class UnknownVariable(ParseError):
    pass


class BadFieldSpec(ParseError):
    pass
