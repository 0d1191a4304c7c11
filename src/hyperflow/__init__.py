"""Closed-form mean curvature flow for isoparametric submanifolds of H^m(-1).

The package builds exact solutions of mean curvature flow recursively from a
descriptor grammar (full products of a hyperboloid with spherical leaves, and
submanifolds of totally umbilical hypersurfaces), computes their existence
windows and limiting behavior on both time ends, and checks every closed form
against a finite-difference oracle that never sees the formulas.
"""

from .ball import (
    BallPoint,
    IdealPoint,
    ball_projection,
    ball_projection_inverse,
    boundary_limit,
    boundary_transition,
    conformal_mean_curvature,
    product_boundary_factor,
    product_boundary_map,
    umbilic_boundary_map,
)
from .catalog import CATALOG, catalog_descriptor, catalog_names
from .descriptors import (
    Ambient,
    EuclideanIso,
    FullProduct,
    IsoDescriptor,
    MeanCurvature,
    ProductOfSpheres,
    ShapeFlags,
    Umbilic,
    UmbilicData,
    classify_shape,
    derive_umbilic,
    descriptor_from_json,
    descriptor_to_json,
    dimensions,
    immerse,
    mean_curvature,
)
from .errors import (
    ChartDegenerateError,
    DomainError,
    EmptyHypersurfaceError,
    FrameConstructionError,
    GaugeDomainError,
    GeometryError,
    InsufficientSamplesError,
    InvalidArgumentError,
    StationaryNoLimitError,
    TimeOutOfRangeError,
)
from .flow import (
    ExistenceWindow,
    GaugeParams,
    existence_window,
    gauge_hyperbolic_to_lorentz,
    gauge_lorentz_to_hyperbolic,
    hyperbolic_flow,
    lorentz_flow,
    sphere_leaf_flow,
)
from .limits import (
    BackwardLimit,
    ForwardLimit,
    LimitReport,
    backward_limit,
    classify_limits,
    evaluate_limits,
    forward_limit,
    hausdorff_distance,
    verify_flat_normal_bundle,
)
from .lorentz import (
    HyperboloidPoint,
    Membership,
    OrthonormalFrame,
    ambient_membership,
    frame_coordinates,
    minkowski_inner,
    orthonormalize_frame,
)
from .scenario import (
    InvariantReport,
    OracleSettings,
    Sampling,
    Scenario,
    TimeGrid,
    load_scenario,
    run_invariant_battery,
    run_scenario,
    verify_scenario,
)

__version__ = "0.1.0"
