"""Spectral analysis of self-adjoint 2x2 block operator matrices.

Finite-dimensional realizations of Schur-complement spectral enclosures,
graph invariant subspaces with angular operators, Riesz/Bari basis
diagnostics, and a magnetohydrodynamics application, with a JSON-reporting
command line front end.
"""

from .errors import (
    ArgumentError,
    DegenerateGapError,
    HypothesisError,
    LandmarkError,
    NotAGraphError,
    NumericError,
    PairingError,
    ParseError,
    ProfileError,
    SingularShiftError,
    SpecblockError,
    UnderflowError,
)
from .linalg import (
    Interval,
    SpectralDecomposition,
    general_eig,
    hermitian_eig,
    operator_norm,
    orthonormality_defect,
    pseudo_inverse,
    spectral_distance,
    spectral_projector,
)
from .blocks import (
    BlockOperatorMatrix,
    RelativeBound,
    SpectralLandmarks,
    assemble,
    best_relative_bound,
    minimal_b_for_a,
    relative_bound_margin,
    resolvent_block,
    schur_complement,
)
from .enclosures import (
    EnclosureReport,
    QepEnclosure,
    dist_bound,
    eigenvalue_window,
    exclusion_window,
    resolvent_interval,
    soq_enclosure,
    subspace_dim_check,
    variational_bounds,
)
from .subspaces import (
    AngularOperator,
    GraphSubspace,
    GraphTest,
    angular_operator,
    delta_condition,
    graph_test,
    shifted_matrix,
    spectral_subspace,
)
from .basis import (
    DecayReport,
    aligned_term,
    projection_decay,
    riesz_check,
)
from .mhd import (
    MhdDiscretization,
    PlasmaProfile,
    constant_profile,
    constants,
    discretize,
    essential_bands,
    profile_from_functions,
    run_report,
)
from .report import Check, Report

__version__ = "0.1.0"
