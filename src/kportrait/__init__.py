"""Global phase portraits of a cubic predator-prey Kolmogorov system.

Classification of the parameter space, Poincare compactification and
blow-up of the points at infinity, Hopf analysis with the first Lyapunov
coefficient, return-map limit-cycle detection, and SVG/JSON portrait
output on the positive quarter of the Poincare disc.
"""

from .compactify import (
    BlowupSystem,
    ChartDomainError,
    ChartSystem,
    InfinitePoint,
    PolySystem,
    SectorData,
    blowup_horizontal,
    chart_transition,
    classify_blowup_origin,
    compactify,
    family_infinite_points,
    family_system,
    infinite_singular_points,
)
from .local import (
    DulacReport,
    HopfData,
    IllConditionedError,
    MultilinearForms,
    NeedsHigherOrderError,
    NonHyperbolicError,
    UniquenessReport,
    classify_hyperbolic,
    classify_semihyperbolic,
    dulac_check,
    hopf_analysis,
    lyapunov_procedural,
    uniqueness_check,
)
from .model import (
    AnalysisError,
    CaseLabel,
    Discriminants,
    Params,
    Point2,
    SingularPoint,
    classify_case,
    discriminants,
    finite_singular_points,
    jacobian,
    vector_field,
)
from .numerics import (
    CycleResult,
    GridSpec,
    IntegrationFailure,
    IntegratorConfig,
    NoReturnError,
    Orbit,
    ScanEvidence,
    StopEvent,
    conjecture_scan,
    cycle_amplitude,
    cycle_loop,
    detect_limit_cycle,
    integrate,
    interior_point,
    point_polyline_distance,
    polyline_hausdorff,
    return_iterates,
    return_map,
    scan_to_csv,
    separatrix_section_crossing,
)
from .portrait import (
    DiscProjection,
    HopfSummary,
    OrbitTrace,
    PortraitReport,
    SvgStyle,
    build_portrait,
    render_svg,
    report_to_dict,
    write_report,
)

__version__ = "0.1.0"
