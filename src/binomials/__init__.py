"""Exact decomposition of binomial ideals.

Subpackages follow the pipeline: intlattice (integer lattices) -> scalars
(exact fields) -> poly/groebner (binomial-preserving Groebner engine) ->
ideals (colon/saturation/elimination toolkit) -> characters (lattice/partial
character correspondence) -> decompose (radical, cellular, associated primes,
hull, primary decomposition) -> cli.  Each module imports only from earlier
ones, and from `checks` and `errors` below them all.
"""

from . import checks  # noqa: F401
from .scalars import QQ, CycloField, FiniteField, zeta  # noqa: F401

__all__ = ["QQ", "CycloField", "FiniteField", "zeta", "checks"]
