"""Planar Laplace solver: series expansions fitted to boundary data by least squares.

Green functions, harmonic measures, and general Dirichlet problems in domains
bounded by circles and slits, with equipotential/streamline extraction and a
maximum-principle residual certificate.
"""

from .basis import (
    Expansion,
    ExpansionSpec,
    eval_expansion,
    eval_gradient,
)
from .cantor import (
    CantorLevel,
    cantor_components,
    cantor_inner_half_sum,
    cantor_measures,
)
from .field import (
    Polyline,
    TraceOptions,
    default_window,
    extract_contours,
    slit_side_measure,
    streamline_fan,
    trace_streamline,
)
from .geometry import (
    BoundaryComponent,
    DomainError,
    GeometryError,
    disk,
    joukowski_forward,
    joukowski_inverse,
    slit,
)
from .solver import (
    MeasureReport,
    Problem,
    Solution,
    assemble_system,
    boundary_residual,
    circle_flux,
    default_spec,
    green_problem,
    harmonic_measures,
    solve_least_squares,
    solve_problem,
)

__all__ = [
    "BoundaryComponent",
    "CantorLevel",
    "DomainError",
    "Expansion",
    "ExpansionSpec",
    "GeometryError",
    "MeasureReport",
    "Polyline",
    "Problem",
    "Solution",
    "TraceOptions",
    "assemble_system",
    "boundary_residual",
    "cantor_components",
    "cantor_inner_half_sum",
    "cantor_measures",
    "circle_flux",
    "default_spec",
    "default_window",
    "disk",
    "eval_expansion",
    "eval_gradient",
    "extract_contours",
    "green_problem",
    "harmonic_measures",
    "joukowski_forward",
    "joukowski_inverse",
    "slit",
    "slit_side_measure",
    "solve_least_squares",
    "solve_problem",
    "streamline_fan",
    "trace_streamline",
]

__version__ = "0.1.0"
