"""Opt-in internal verification used by test builds.

When enabled, the algebra layers re-verify expensive invariants on every
call: U*A = D*W after each Smith normal form, binomial closure of Groebner
bases for binomial input, the Buchberger criterion on finished bases, and the
intersection identity of Laurent primary decompositions.
"""

ENABLED = False


def enable(on=True):
    global ENABLED
    ENABLED = on

