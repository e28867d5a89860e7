"""The package namespace, and which commands stay clear of numpy."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cgft

#: submodule -> the names ``from cgft import *`` bound from it before the
#: numpy-backed names became lazy; the seven submodules are bound too
EXPORTS: dict[str, tuple[str, ...]] = {
    "metrics": (
        "CANONICAL_DOMAIN_NAMES", "INFINITY", "ConnectivityError", "DomainSpec",
        "ExtendedPoint", "InconsistentBoundsError", "MetricValue",
        "NoApplicableBoundError", "apollonian", "as_point", "canonical_domain",
        "chordal", "cross_ratio", "hyperbolic_ball", "j_diameter", "j_metric",
        "lambda_bounds", "mu_ball_center", "mu_bounds",
        "quasihyperbolic_exact", "quasihyperbolic_numeric", "r_ratio", "seittenranta",
    ),
    "ball_geometry": (
        "BallInclusionReport", "DegenerateFamilyError", "PuncturedDiskModuli",
        "antipodal_quartic", "antipodal_threshold", "circumscribed_lambda_radius",
        "antipodal_irrelevance_radius", "puncture_irrelevance_radius",
        "inner_separating_modulus", "joining_family_modulus", "lambda_ball_constants",
        "mu_ball_constants", "outer_separating_modulus", "punctured_disk_moduli",
        "quasiball_radii",
    ),
    "transfer_chart": (
        "DomainProps", "MetricId", "MissingPropertyError", "TransferChart",
        "TransferRangeError", "TransferResult", "ZetaEdge", "builtin_chart",
        "chart_rows", "eval_edge", "query", "union_modulus",
    ),
    "distortion": (
        "DistortionBound", "GENERAL_LINEAR_RATE", "PLANAR_LINEAR_RATE",
        "PreconditionError", "QUANTITY_LABELS", "ValidityWindowError",
        "annular_image_bounds", "cylinder_bound", "distortion_bound", "eps_to_K",
        "eta_star_one_bound", "id_boundary_euclid_bound", "id_boundary_rho_bound",
        "j_distortion_bound", "lens_admissible_configs", "lens_diam_bound_linear",
        "lens_diam_bound_sqrt", "lens_diam_brute", "lens_diam_exact", "lens_window",
        "radial_stretch_delta", "tangent_domination_M", "tangent_domination_endpoint",
        "tangent_domination_lhs", "tangent_domination_rhs", "two_point_growth_bounds",
    ),
    "harmonic_qr": (
        "AliasingError", "BoundaryFunction1D", "HARMONIC_SCHWARZ_FACTOR",
        "HarmonicPlanarMap", "InjectivityError", "OrientationError",
        "QuadratureAccuracyError", "SingularPointError", "SphereBoundaryFunction",
        "alpha_f_disk", "alternating_cosine_map", "boundary_modulus",
        "boundary_samples_of", "check_subharmonic", "closed_modulus", "grad_abs_f_sq",
        "laplacian_abs_f_p", "laplacian_abs_f_sq", "modulus_profile", "poisson_ball3",
        "poisson_disk_extend", "polyline_interior_domain", "qh_bilipschitz_estimate",
        "quasiregularity_constant", "subharmonic_exponent", "subharmonic_profile",
    ),
    "special_functions": (
        "Interval", "agm", "check_dimension", "ell_K", "eta_K_n", "gamma2",
        "gamma2_inv", "gamma_n_bounds", "gamma_n_inv_bounds", "lambda_n_interval", "mu",
        "mu_inv", "omega_sphere", "phi_K", "phi_Kn_lower", "tau2", "tau2_inv",
        "tau_n_bounds", "tau_n_inv_bounds", "teichmuller_p_circle",
    ),
    "verify": (
        "distortion_inequality_report",
    ),
}
NAMES = {*EXPORTS, *(name for names in EXPORTS.values() for name in names)}


def test_star_import_and_dir_give_every_name():
    assert len(NAMES) == 130
    namespace: dict = {}
    exec("from cgft import *", namespace)
    assert NAMES <= namespace.keys()
    assert NAMES <= set(dir(cgft))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_its_module_defines(module):
    mod = importlib.import_module(f"cgft.{module}")
    assert getattr(cgft, module) is mod
    for name in EXPORTS[module]:
        assert getattr(cgft, name) is getattr(mod, name), name


def test_lazy_names_follow_a_rebinding_in_their_module(monkeypatch):
    import cgft.metrics

    def stand_in(*args):
        return 0.0

    monkeypatch.setattr(cgft.metrics, "seittenranta", stand_in)
    assert cgft.seittenranta is stand_in
    monkeypatch.undo()
    assert cgft.seittenranta is cgft.metrics.seittenranta
    assert "seittenranta" not in vars(cgft)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cgft.no_such_name


SRC = Path(cgft.__file__).resolve().parent.parent

#: what each fresh interpreter runs before it checks sys.modules
NUMPY_FREE = {
    "import cgft": "import cgft",
    "sf mu": "assert main(['sf', 'mu', '0.7']) == 0",
    "chart query": "assert main(['chart', 'query', '--from', 'k', '--to', 'j', '--t', '0.5']) == 0",
    "ball circumscribed": "assert main(['ball', 'circumscribed', '--T', '0.3']) == 0",
    "--help": "assert main(['--help']) == 0",
}


@pytest.mark.parametrize("label", sorted(NUMPY_FREE))
def test_scalar_commands_never_load_numpy(label):
    setup = "" if label == "import cgft" else "from cgft.cli import main\n"
    code = f"import sys\n{setup}{NUMPY_FREE[label]}\nassert 'numpy' not in sys.modules\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
