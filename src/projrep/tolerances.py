"""Every numerical threshold of the package, in one table, and the check
names the command line shows.

Degree integrality, class triviality and order, the cocycle identity and
c-regularity need none: they are exact integer decisions, and ``TOL_UNIT``
only bounds how far a complex table lies from the exact cocycle it is
rounded to.  Reports carry ``TOLERANCES``.

The check names are no thresholds and stay out of the table.  They live
here, with no numpy import, so that ``--help`` loads no compute layer.  The
order cap is no option: it is ``groups.ORDER_CAP``, read where a group is
built, and every group up to it gets its whole multiplier.
"""

TOL_GAP = 1e-8       # relative to the spectrum: eigen-clusters and ranks
TOL_DEFECT = 1e-8    # absolute: Hermitian, idempotent, rep and trace defects
TOL_UNIT = 1e-9      # unit modulus, normalization, rounding and class sums
TOL_UNITARY = 1e-7   # a rescaled intertwiner is unitary
TOL_CHECK = 1e-6     # table, character and residual comparisons

TOLERANCES = {
    "gap": TOL_GAP,
    "defect": TOL_DEFECT,
    "unit": TOL_UNIT,
    "unitary": TOL_UNITARY,
    "check": TOL_CHECK,
}

CHECK_NAMES = ("basic", "ito-michler", "sylow-criterion", "pi-theorem",
               "clifford-laws", "a5-control", "decompose")
