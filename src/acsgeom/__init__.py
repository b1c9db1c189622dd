"""Numerical geometry of the space of almost complex structures on a
closed even-dimensional manifold, discretized as a weighted sample space
of independent fibers, with a verification suite for its theorems."""

from .charts import (
    CayleyCoordinate,
    acs_to_cayley,
    cayley_to_acs,
    pushforward,
    random_anticommuting,
    shape_anticommuting,
    standard_acs,
)
from .errors import (
    AnticommutationViolation,
    ConfigError,
    DimensionMismatch,
    GeometryError,
    InvalidStructure,
    IoError,
    NonFiniteValue,
    SingularOperator,
)
from .fiber import FiberMetric, g_adjoint, mat_exp, mat_inv_guarded, mat_tanh_half, max_abs
from .geometry import (
    ChartField,
    acs_on_tangent,
    chart_inner,
    chart_inner_terms,
    chart_omega,
    chart_origin,
    christoffel,
    curvature,
    geodesic_ambient,
    geodesic_chart,
    shifted,
)
from .structures import (
    MAX_FIBER_DIM,
    AcsField,
    FieldBundle,
    FieldReport,
    SampleSpace,
    SymplecticField,
    TangentField,
    load_bundle,
    orientation_marker,
    random_sample_space,
    random_tangent_field,
    same_space,
    save_bundle,
    split_and_classify,
    standard_acs_field,
    standard_symplectic_field,
    sym_antisym_split,
    validate_acs,
    validate_associated,
    validate_orthogonal,
)
from .verify import (
    CHECK_NAMES,
    CheckReport,
    VerifyConfig,
    check_cayley,
    check_curvature_fd,
    check_geodesics,
    check_metric_structure,
    check_signature,
    check_theorem1,
    check_theorem2,
    check_totally_geodesic,
    derive_rng,
    fd_directional,
    geodesic_equation_residual,
    report_document,
    run_check,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
