"""Exact arithmetic of quadratic orders and their invariants.

Class groups of binary quadratic forms, periodic continued fractions and
fundamental units, the imaginary-to-real conductor map, GL(2,Z) matrix
similarity classes, and Minkowski question-mark heights with their point
counts. Everything is computed in exact integer or rational arithmetic.
"""

from .cmrm import RMTriple, rm_conductor, rm_triple
from .contfrac import (
    BratteliBlockSequence,
    ContinuedFraction,
    FundamentalUnit,
    QuadraticIrrational,
    bratteli_blocks,
    cf_expand,
    convergents,
    evaluate,
    fundamental_unit,
    is_rm,
    tail_equivalent,
    unit_norm,
)
from .errors import (
    BoundTooSmall,
    CountExceedsFiniteExpansion,
    DiscriminantMismatch,
    InvalidDiscriminant,
    NonCyclicTwoPart,
    NonPrimitiveForm,
    NotEventuallyPeriodic,
    NotPrimitive,
    OutOfDomain,
    ReducibleCharPoly,
    RmarithError,
    SearchLimitExceeded,
    SquareDiscriminant,
)
from .heights import (
    GrowthRegime,
    ProjectivePoint,
    VarietyProfile,
    classical_count,
    finiteness_check,
    growth_regime,
    inverse_minkowski_q,
    minkowski_q,
    projective_height,
    quantum_count,
    quantum_height,
)
from .latimer import (
    IntegerMatrix,
    ShaReport,
    SimilarityClassification,
    char_poly,
    classify,
    ideal_classes_for_matrix,
    perron_eigenvalue,
    sha_for_curve_matrix,
    sha_group,
    similarity_class_count_bruteforce,
)
from .quadforms import (
    BinaryQuadraticForm,
    ClassGroupStructure,
    QuadraticOrder,
    canonical_representative,
    class_group_structure,
    class_number,
    class_representatives,
    compose,
    enumerate_reduced_forms,
    fundamental_discriminant,
    reduce_form,
    split_discriminant,
    two_part_decomposition,
)

__version__ = "0.1.0"
