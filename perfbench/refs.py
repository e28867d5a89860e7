"""Independent references the benchmark checks every answer against.

Nothing here calls cgft: the closed forms are written out again, the
Grotzsch modulus comes from its own arithmetic-geometric mean, and sampled
suprema are evaluated again as arrays, so a wrong library answer cannot
also be the yardstick.  Each checker returns (ok, note); check_qh also
returns the relative error it measured.
"""

from __future__ import annotations

import math

import numpy as np

PI2_4 = math.pi * math.pi / 4.0


def _agm(a: float, b: float) -> float:
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def mu_ref(r: float, rp: float) -> float:
    """Grotzsch modulus (pi/2) K(r')/K(r), given r and r' = sqrt(1 - r^2)."""
    return 0.5 * math.pi * _agm(1.0, rp) / _agm(1.0, r)


def _comp(r: float) -> float:
    return math.sqrt((1.0 - r) * (1.0 + r))


def _rel_close(value: float, target: float, rtol: float) -> tuple[bool, str]:
    ok = math.isfinite(value) and abs(value - target) <= rtol * abs(target)
    return ok, f"{value!r} vs {target!r}"


def check_mu(out: float, r: float) -> tuple[bool, str]:
    """Product identity mu(r) mu(r') = pi^2/4."""
    rp = _comp(r)
    return _rel_close(out * mu_ref(rp, r), PI2_4, 1e-11)


def check_mu_inv(out: float, y: float) -> tuple[bool, str]:
    """y mu(r') = pi^2/4 for r = mu_inv(y), the product identity again."""
    return _rel_close(y * mu_ref(_comp(out), out), PI2_4, 1e-9)


def check_phi_k(out: float, K: float, r: float) -> tuple[bool, str]:
    """Pythagorean identity phi_K(r)^2 + phi_{1/K}(r')^2 = 1.

    With s' = sqrt(1 - phi_K(r)^2) it says mu(s') = K mu(r').
    """
    return _rel_close(mu_ref(_comp(out), out), K * mu_ref(_comp(r), r), 1e-9)


def check_tau2_inv(out: float, y: float) -> tuple[bool, str]:
    """tau2(t) = pi / mu(1/sqrt(1+t)) at t = tau2_inv(y)."""
    r = 1.0 / math.sqrt(1.0 + out)
    rp = math.sqrt(out / (1.0 + out))
    return _rel_close(math.pi / mu_ref(r, rp), y, 1e-9)


def check_circumscribed(out: float, T: float) -> tuple[bool, str]:
    """R = 2 sin(theta/2) with mu(sin(theta/4)) = pi (1+s) / (4T)."""
    s = math.sqrt((1.0 - 2.0 * T) * (1.0 + 2.0 * T))
    rp = math.sin(0.5 * math.asin(0.5 * out))
    return _rel_close(mu_ref(rp, _comp(rp)), math.pi * (1.0 + s) / (4.0 * T), 1e-8)


def chart_value(frm: str, to: str, t: float, uniform_c: float | None) -> float:
    """Closed form of the best transfer for the three query shapes used."""
    if (frm, to) == ("k", "j"):
        return t
    if (frm, to) == ("j", "k"):
        return uniform_c * t
    if (frm, to) == ("j", "mu"):
        # min of gamma_2(1/(e^t - 1)) = 2 pi / mu(e^t - 1) and 2 pi / log(1/t)
        r = math.expm1(t)
        return min(2.0 * math.pi / mu_ref(r, _comp(r)), 2.0 * math.pi / math.log(1.0 / t))
    raise ValueError(f"no reference for chart query {frm} -> {to}")


def check_chart(out: float, frm: str, to: str, t: float, uniform_c) -> tuple[bool, str]:
    return _rel_close(out, chart_value(frm, to, t, uniform_c), 1e-12)


def _norm(p) -> float:
    return math.sqrt(sum(c * c for c in p))


def _gap(x, y) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))


def boundary_distance(domain: str, p) -> float:
    if domain == "ball":
        return 1.0 - _norm(p)
    if domain == "half_space":
        return p[-1]
    if domain == "punctured_space":
        return _norm(p)
    if domain == "punctured_ball":
        return min(_norm(p), 1.0 - _norm(p))
    if domain == "plane_minus_0_1":
        return min(_norm(p), _gap(p, (1.0, 0.0)))
    raise ValueError(f"no boundary distance for {domain!r}")


def j_ref(domain: str, x, y) -> float:
    d = min(boundary_distance(domain, x), boundary_distance(domain, y))
    return math.log1p(_gap(x, y) / d)


def check_j(out: float, domain: str, x, y) -> tuple[bool, str]:
    target = j_ref(domain, x, y)
    return abs(out - target) <= 1e-12 * max(target, 1.0), f"{out!r} vs j {target!r}"


def check_hyperbolic(out: float, x, y) -> tuple[bool, str]:
    return _rel_close(out, rho_ref("ball", x, y), 1e-9)


def rho_ref(domain: str, x, y) -> float:
    """Hyperbolic distance of the unit ball or the upper half space."""
    g2 = _gap(x, y) ** 2
    if domain == "ball":
        return math.acosh(1.0 + 2.0 * g2 / ((1.0 - _norm(x) ** 2) * (1.0 - _norm(y) ** 2)))
    if domain == "half_space":
        return math.acosh(1.0 + g2 / (2.0 * x[-1] * y[-1]))
    raise ValueError(f"no hyperbolic metric for {domain!r}")


def qh_exact(domain: str, x, y) -> float | None:
    """Exact quasihyperbolic distance where a closed form is known, else None.

    Half space: the hyperbolic distance.  Punctured space: sqrt(log^2 of the
    norm ratio + angle^2).  Ball, both points on one diameter: the integral
    of 1/(1 - |t|) along it.
    """
    if domain == "half_space":
        return rho_ref(domain, x, y)
    if domain == "punctured_space":
        nx, ny = _norm(x), _norm(y)
        dot = sum(a * b for a, b in zip(x, y))
        cross = math.sqrt(max(nx * nx * ny * ny - dot * dot, 0.0))
        return math.hypot(math.log(nx / ny), math.atan2(cross, dot))
    if domain == "ball":
        nx, ny = _norm(x), _norm(y)
        dot = sum(a * b for a, b in zip(x, y))
        if abs(abs(dot) - nx * ny) > 1e-12:
            return None
        if dot >= 0.0:
            return abs(math.log((1.0 - nx) / (1.0 - ny)))
        return -math.log1p(-nx) - math.log1p(-ny)
    return None


#: largest relative error the graph approximation may show at tol 1e-3
QH_RTOL = 0.05


def check_qh(out: float, domain: str, x, y) -> tuple[bool, str, float | None]:
    """Exact value where known (within QH_RTOL), else k >= j."""
    exact = qh_exact(domain, x, y)
    if exact is None:
        j = j_ref(domain, x, y)
        return out >= j - 1e-9, f"k {out!r} vs j {j!r}", None
    err = abs(out / exact - 1.0)
    return err <= QH_RTOL, f"k {out!r} vs exact {exact!r}", err


def _on_sphere(points, dim: int):
    """Inverse stereographic images on the unit sphere; None is infinity.

    The chordal distance is half the Euclidean distance between images.
    """
    out = []
    for p in points:
        if p is None:
            out.append((0.0,) * dim + (1.0,))
        else:
            n2 = sum(c * c for c in p)
            out.append(tuple(2.0 * c / (n2 + 1.0) for c in p) + ((n2 - 1.0) / (n2 + 1.0),))
    return np.array(out)


def sampled_sup(metric: str, samples, x, y) -> float:
    """The metric's supremum over ordered pairs of distinct boundary samples.

    Seittenranta: log(1 + sup |a,x,b,y|); Apollonian: log sup |a,x,y,b|;
    both from chordal distances, evaluated as arrays.
    """
    S = _on_sphere(samples, len(x))
    px, py = _on_sphere([x, y], len(x))
    qax = 0.5 * np.linalg.norm(S - px, axis=1)
    qay = 0.5 * np.linalg.norm(S - py, axis=1)
    off = ~np.eye(len(S), dtype=bool)
    if metric == "seittenranta":
        qab = 0.5 * np.linalg.norm(S[:, None, :] - S[None, :, :], axis=2)
        qxy = 0.5 * float(np.linalg.norm(px - py))
        ratio = qab * qxy / (qax[:, None] * qay[None, :])
        return math.log1p(float(ratio[off].max()))
    ratio = (qay / qax)[:, None] * (qax / qay)[None, :]
    return math.log(max(float(ratio[off].max()), 1.0))


def check_sup(out: float, metric: str, domain: str, x, y, samples) -> tuple[bool, str]:
    """Sampled Seittenranta / Apollonian metric on the ball or half space.

    It must equal the same finite supremum evaluated here, and it cannot
    exceed the true metric's bound: 2 j for Seittenranta's metric, the
    hyperbolic metric for the Apollonian one (they coincide on balls and
    half spaces).
    """
    target = sampled_sup(metric, samples, x, y)
    upper = 2.0 * j_ref(domain, x, y) if metric == "seittenranta" else rho_ref(domain, x, y)
    ok = abs(out - target) <= 1e-9 * max(target, 1.0) and out <= upper + 1e-9
    return ok, f"{metric} {out!r} vs sampled sup {target!r}, bound {upper!r}"


#: checker by reference kind, for answers with a closed-form reference
CHECKS = {
    "mu": check_mu,
    "mu_inv": check_mu_inv,
    "phi_k": check_phi_k,
    "tau2_inv": check_tau2_inv,
    "chart": check_chart,
    "circumscribed": check_circumscribed,
    "hyperbolic": check_hyperbolic,
    "j": check_j,
}
