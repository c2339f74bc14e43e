"""Exception hierarchy for the projrep package.

An InputError is in what a run is given: a group name, a group file or a
configuration.  It ends a sweep as it ends every command.  Any other
ProjrepError raised while a sweep solves a group or runs one of its checks
becomes an ``error`` record of that group or task, and the sweep goes on.
No group is refused for its order below ``groups.ORDER_CAP``: every group
that loads gets its whole multiplier.
"""


class ProjrepError(Exception):
    """Base class for all projrep errors."""


class InputError(ProjrepError):
    """A run's input names no group or no valid configuration."""


class NotPermutation(InputError):
    """A generator is not a permutation of the stated point set."""


class ClosureTooLarge(InputError):
    """Permutation generators close into a group above ``groups.ORDER_CAP``."""


class NotNormal(ProjrepError):
    """Operation requires a normal subgroup."""


class NotPiSeparable(ProjrepError):
    """Operation requires a pi-separable group."""


class ComplementSearchExhausted(ProjrepError):
    """The Sylow/Hall search found no pi-element that extends its subgroup.

    This cannot happen in a pi-separable group (or for a single prime); it
    guards the search against a group where the containment theorem fails.
    """


class ModulusMismatch(ProjrepError):
    """Cocycle tables have incompatible moduli, shapes or groups."""


class NotCentral(ProjrepError):
    """Subgroup is not central in the extension."""


class NotCyclic(ProjrepError):
    """Central subgroup must be cyclic."""


class NumericDegeneracy(ProjrepError):
    """Randomized spectral splitting failed after bounded retries."""


class DegreeNotIntegral(ProjrepError):
    """A block rank is not a perfect square, or the degrees miss |G|."""


class LiftOverflow(ProjrepError):
    """A generator-lift entry outgrew the narrow integer type it is kept in."""


class CrossCheckMismatch(ProjrepError):
    """Two independent computations of the same quantity disagree."""


class CocycleMismatch(ProjrepError):
    """A table is refused where it becomes a Cocycle: an exact one is not a
    normalized cocycle, or a complex one lies more than ``TOL_UNIT`` from
    one (``Cocycle.from_units``); or representations do not share one."""


class InertiaMismatch(ProjrepError):
    """Claimed inertia subgroup has an element with no intertwiner."""


class PhaseInstability(ProjrepError):
    """Intertwiner phase could not be fixed stably."""


class FactorizationFailure(ProjrepError):
    """Tensor factorization over an extension failed; indicates a bug."""


class ReconstructionFailure(ProjrepError):
    """Decomposition certificate failed to reconstruct its input."""


class UnknownGroup(InputError):
    """Group name is not in the catalog and not a readable file."""


class BadCoclassIndex(InputError):
    """Coclass index is out of range for the group's multiplier."""


class ParseError(InputError):
    """Malformed group or cocycle JSON input."""


class ConfigError(InputError):
    """Invalid run configuration."""
