"""Conformal invariants, hyperbolic-type metrics, and distortion bounds.

The names from ``special_functions``, ``ball_geometry`` and
``transfer_chart`` are bound on import; those modules need only the
standard library.  The names from the numpy-backed modules are looked up
in their module on each access (PEP 562), so ``import cgft`` and the
scalar CLI commands never load numpy.
"""

from .special_functions import (
    Interval,
    agm,
    check_dimension,
    ell_K,
    eta_K_n,
    gamma2,
    gamma2_inv,
    gamma_n_bounds,
    gamma_n_inv_bounds,
    lambda_n_interval,
    mu,
    mu_inv,
    omega_sphere,
    phi_K,
    phi_Kn_lower,
    tau2,
    tau2_inv,
    tau_n_bounds,
    tau_n_inv_bounds,
    teichmuller_p_circle,
)
from .ball_geometry import (
    BallInclusionReport,
    DegenerateFamilyError,
    PuncturedDiskModuli,
    antipodal_quartic,
    antipodal_threshold,
    circumscribed_lambda_radius,
    antipodal_irrelevance_radius,
    puncture_irrelevance_radius,
    inner_separating_modulus,
    joining_family_modulus,
    lambda_ball_constants,
    mu_ball_constants,
    outer_separating_modulus,
    punctured_disk_moduli,
    quasiball_radii,
)
from .transfer_chart import (
    DomainProps,
    MetricId,
    MissingPropertyError,
    TransferChart,
    TransferRangeError,
    TransferResult,
    ZetaEdge,
    builtin_chart,
    chart_rows,
    eval_edge,
    query,
    union_modulus,
)

#: name -> the numpy-backed submodule that defines it
_LAZY: dict[str, str] = {
    "CANONICAL_DOMAIN_NAMES": "metrics",
    "INFINITY": "metrics",
    "ConnectivityError": "metrics",
    "DomainSpec": "metrics",
    "ExtendedPoint": "metrics",
    "InconsistentBoundsError": "metrics",
    "MetricValue": "metrics",
    "NoApplicableBoundError": "metrics",
    "apollonian": "metrics",
    "as_point": "metrics",
    "canonical_domain": "metrics",
    "chordal": "metrics",
    "cross_ratio": "metrics",
    "hyperbolic_ball": "metrics",
    "j_diameter": "metrics",
    "j_metric": "metrics",
    "lambda_bounds": "metrics",
    "lambda_inverse_bounds": "metrics",
    "mu_ball_center": "metrics",
    "mu_bounds": "metrics",
    "quasihyperbolic_exact": "metrics",
    "quasihyperbolic_numeric": "metrics",
    "r_ratio": "metrics",
    "seittenranta": "metrics",
    "DistortionBound": "distortion",
    "GENERAL_LINEAR_RATE": "distortion",
    "PLANAR_LINEAR_RATE": "distortion",
    "PreconditionError": "distortion",
    "QUANTITY_LABELS": "distortion",
    "ValidityWindowError": "distortion",
    "annular_image_bounds": "distortion",
    "cylinder_bound": "distortion",
    "distortion_bound": "distortion",
    "eps_to_K": "distortion",
    "eta_star_one_bound": "distortion",
    "id_boundary_euclid_bound": "distortion",
    "id_boundary_rho_bound": "distortion",
    "j_distortion_bound": "distortion",
    "lens_admissible_configs": "distortion",
    "lens_diam_bound_linear": "distortion",
    "lens_diam_bound_sqrt": "distortion",
    "lens_diam_brute": "distortion",
    "lens_diam_exact": "distortion",
    "lens_window": "distortion",
    "radial_stretch_delta": "distortion",
    "tangent_domination_M": "distortion",
    "tangent_domination_endpoint": "distortion",
    "tangent_domination_lhs": "distortion",
    "tangent_domination_rhs": "distortion",
    "two_point_growth_bounds": "distortion",
    "AliasingError": "harmonic_qr",
    "BoundaryFunction1D": "harmonic_qr",
    "HARMONIC_SCHWARZ_FACTOR": "harmonic_qr",
    "HarmonicPlanarMap": "harmonic_qr",
    "InjectivityError": "harmonic_qr",
    "OrientationError": "harmonic_qr",
    "QuadratureAccuracyError": "harmonic_qr",
    "SingularPointError": "harmonic_qr",
    "SphereBoundaryFunction": "harmonic_qr",
    "alpha_f_disk": "harmonic_qr",
    "alternating_cosine_map": "harmonic_qr",
    "boundary_modulus": "harmonic_qr",
    "boundary_samples_of": "harmonic_qr",
    "check_subharmonic": "harmonic_qr",
    "closed_modulus": "harmonic_qr",
    "grad_abs_f_sq": "harmonic_qr",
    "laplacian_abs_f_p": "harmonic_qr",
    "laplacian_abs_f_sq": "harmonic_qr",
    "modulus_profile": "harmonic_qr",
    "poisson_ball3": "harmonic_qr",
    "poisson_disk_extend": "harmonic_qr",
    "polyline_interior_domain": "harmonic_qr",
    "qh_bilipschitz_estimate": "harmonic_qr",
    "quasiregularity_constant": "harmonic_qr",
    "subharmonic_exponent": "harmonic_qr",
    "subharmonic_profile": "harmonic_qr",
    "distortion_inequality_report": "verify",
}
_LAZY_MODULES = tuple(dict.fromkeys(_LAZY.values()))

__all__ = [
    *(name for name in globals() if not name.startswith("_")),
    *_LAZY_MODULES,
    *_LAZY,
]
__version__ = "0.1.0"


def __getattr__(name: str):
    # never stored here, so a name rebound in its module (by a profiler or
    # a test's monkeypatch) shows through, and its restoration too
    from importlib import import_module

    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
