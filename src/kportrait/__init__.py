"""Global phase portraits of a cubic predator-prey Kolmogorov system.

Classification of the parameter space, the points at infinity, Hopf
analysis with the first Lyapunov coefficient, return-map
limit-cycle detection, and SVG/JSON portrait output on the positive quarter
of the Poincare disc.

``model`` and ``compactify`` are imported with the package; ``classify`` and ``hopf`` never call
``compactify``, which is loaded for its public names and the benchmark's ``sys.modules`` lookup
(ROADMAP item 22).  ``local``, ``numerics`` and ``portrait`` are imported on first use (PEP 562).
"""

from .compactify import *  # noqa: F403
from .model import *  # noqa: F403

# Every public name, by home module; each module's own __all__ lists the same.
_EXPORTS = {
    "compactify": ("family_infinite_points",),
    "model": (
        "AnalysisError", "CaseLabel", "Discriminants", "Params", "SectorData", "SingularPoint",
        "classify_case", "discriminants", "finite_singular_points",
    ),
    "local": (
        "DulacReport", "HopfData", "IllConditionedError", "UniquenessReport",
        "dulac_check", "hopf_analysis", "lyapunov_procedural", "uniqueness_check",
    ),
    "numerics": (
        "CycleResult", "GridSpec", "IntegrationFailure", "NoReturnError", "Orbit",
        "ScanEvidence", "conjecture_scan", "cycle_loop",
        "detect_limit_cycle", "integrate", "interior_point",
        "return_map", "scan_to_csv", "separatrix_section_crossing",
    ),
    "portrait": (
        "HopfSummary", "OrbitTrace", "PortraitReport", "build_portrait", "render_svg", "report_to_dict",
        "write_report",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            # __import__ rather than importlib.import_module, so -X importtime lists the
            # module; the name is bound here, so the next access does not come back
            value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
