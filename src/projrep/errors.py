"""Exception hierarchy for the projrep package."""


class ProjrepError(Exception):
    """Base class for all projrep errors."""


class NotPermutation(ProjrepError):
    """A generator is not a permutation of the stated point set."""


class ClosureTooLarge(ProjrepError):
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


class GroupTooLargeForH2(ProjrepError):
    """A multiplier report asks for a group above the H^2 cap
    (``--h2-cap``)."""


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


class UnknownGroup(ProjrepError):
    """Group name is not in the catalog and not a readable file."""


class BadCoclassIndex(ProjrepError):
    """Coclass index is out of range for the group's multiplier."""


class ParseError(ProjrepError):
    """Malformed group or cocycle JSON input."""


class ConfigError(ProjrepError):
    """Invalid run configuration."""
