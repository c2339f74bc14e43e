"""Projective representation workbench for small finite groups.

Computes Schur multipliers, twisted group algebras, c-regular classes,
irreducible projective degrees and explicit representations, runs the
Clifford decomposition machinery, and machine-checks Ito-Michler-type
equivalences on a catalog of small groups.

OpenBLAS runs one thread per process unless ``OPENBLAS_NUM_THREADS`` says
otherwise: the matrices here are small, and a parallel sweep already runs
one worker process per CPU.  The default is set before numpy is imported.

The public names below are imported from their layer module on first use
(PEP 562), so importing the package loads no layer and no numpy.
"""

import os
from importlib import import_module

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_EXPORTS = {
    "cohomology": (
        "Coclass", "Cocycle", "SchurMultiplier", "cocycle_from_extension",
        "is_trivial_coclass", "pi_part", "restrict_coclass",
        "schur_multiplier", "trivial_cocycle",
    ),
    "groups": (
        "ConjClass", "FiniteGroup", "NormalSeries", "PiSet", "Quotient",
        "Subgroup", "build_group", "centralizer", "conjugacy_classes",
        "hall_higman_check", "hall_subgroup", "is_p_solvable",
        "is_pi_separable", "is_solvable", "o_pi", "pi_series",
        "quotient_group", "sylow_subgroup",
    ),
    "reps": (
        "CliffordExtension", "Constituent", "ProjRep", "character",
        "clifford_extend", "conjugate_rep", "decompose",
        "factor_over_extension", "induce_rep", "inertia_group",
        "intertwiner_space", "is_irreducible", "restrict_rep",
        "split_regular", "tensor_reps",
    ),
    "twisted": (
        "RegularClassData", "TwistedAlgebra", "WedderburnData",
        "alpha_tilde", "c_regular_classes", "center_basis", "wedderburn",
    ),
    "verify": (
        "CheckResult", "CoclassContext", "DecompositionCertificate",
        "decompose_along_series", "pi_decompose",
        "verify_a5_negative_control", "verify_basic",
        "verify_clifford_laws", "verify_ito_michler",
        "verify_normal_sylow_criterion", "verify_pi_theorem",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items()
             for name in names}

__all__ = list(_LAYER_OF)

__version__ = "0.1.0"


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{layer}", __name__), name)
