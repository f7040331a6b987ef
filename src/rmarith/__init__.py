"""Exact arithmetic of quadratic orders and their invariants.

Class groups of binary quadratic forms, periodic continued fractions and
fundamental units, the imaginary-to-real conductor map, GL(2,Z) matrix
similarity classes, and Minkowski question-mark heights with their point
counts. Everything is computed in exact integer or rational arithmetic.

The names below are loaded on first use (PEP 562), so `import rmarith`
imports no submodule and each CLI command loads only what it computes with.
"""

__version__ = "0.1.0"

# module -> the names it exports; intmath exports none but is a submodule
_EXPORTS = {
    "cmrm": ("RMTriple", "rm_conductor", "rm_triple"),
    "contfrac": (
        "BratteliBlockSequence",
        "ContinuedFraction",
        "FundamentalUnit",
        "QuadraticIrrational",
        "bratteli_blocks",
        "cf_expand",
        "convergents",
        "evaluate",
        "fundamental_unit",
        "is_rm",
        "tail_equivalent",
        "unit_norm",
    ),
    "errors": (
        "BoundTooSmall",
        "CountExceedsFiniteExpansion",
        "DiscriminantMismatch",
        "InvalidDiscriminant",
        "NonCyclicTwoPart",
        "NonPrimitiveForm",
        "NotEventuallyPeriodic",
        "NotPrimitive",
        "OutOfDomain",
        "ReducibleCharPoly",
        "RmarithError",
        "SearchLimitExceeded",
        "SquareDiscriminant",
    ),
    "heights": (
        "GrowthRegime",
        "ProjectivePoint",
        "VarietyProfile",
        "classical_count",
        "finiteness_check",
        "growth_regime",
        "inverse_minkowski_q",
        "minkowski_q",
        "projective_height",
        "quantum_count",
        "quantum_height",
    ),
    "intmath": (),
    "latimer": (
        "IntegerMatrix",
        "ShaReport",
        "SimilarityClassification",
        "char_poly",
        "classify",
        "ideal_classes_for_matrix",
        "perron_eigenvalue",
        "sha_for_curve_matrix",
        "sha_group",
        "similarity_class_count_bruteforce",
    ),
    "quadforms": (
        "BinaryQuadraticForm",
        "ClassGroupStructure",
        "QuadraticOrder",
        "canonical_representative",
        "class_group_structure",
        "class_number",
        "class_representatives",
        "compose",
        "enumerate_reduced_forms",
        "fundamental_discriminant",
        "reduce_form",
        "split_discriminant",
        "two_part_decomposition",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
