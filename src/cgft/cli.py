"""Command-line surface: evaluate, query, sweep, and verify.

One binary with subcommand style and no configuration files; every
input arrives as a flag so reported numbers are reproducible.  Exit
codes: 0 success, 1 at least one failed verify entry, 2 usage error,
3 I/O failure.

Only the standard-library modules are imported here; each command
imports the numpy-backed modules it uses, so ``sf``, ``chart``, ``ball``
and the top-level help start without numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from . import ball_geometry as bg
from . import special_functions as sf
from . import transfer_chart as tc
from .special_functions import Interval

if TYPE_CHECKING:
    from .harmonic_qr import HarmonicPlanarMap

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _print_value(value) -> None:
    """One number, an Interval's two ends, or a dict as "key value" lines."""
    if isinstance(value, dict):
        for key, v in value.items():
            print(f"{key} {_fmt(v)}")
    elif isinstance(value, Interval):
        if value.is_degenerate:
            print(_fmt(value.lo))
        else:
            print(f"{_fmt(value.lo)} {_fmt(value.hi)}")
    else:
        print(_fmt(value))


def _prints(compute: Callable) -> Callable:
    """A handler that prints ``compute(args)`` with ``_print_value``."""
    return lambda args, parser: _print_value(compute(args))


def _leaf(sub, name: str, handler: Callable, *floats: str) -> argparse.ArgumentParser:
    """A leaf parser routed to ``handler``, with required float flags ``floats``."""
    p = sub.add_parser(name)
    p.set_defaults(handler=handler)
    for flag in floats:
        p.add_argument(flag, type=float, required=True)
    return p


def _write_csv(path: str | None, header: Sequence[str], rows) -> None:
    """CSV with a header row and 17-significant-digit numbers."""

    def emit(stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_fmt(c) if isinstance(c, (int, float)) else str(c) for c in row]
            )

    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            emit(fh)


# ---------------------------------------------------------------------------
# sf subcommand
# ---------------------------------------------------------------------------

_SF_OPS: dict[str, tuple[Callable, tuple[type, ...]]] = {
    "agm": (sf.agm, (float, float)),
    "ellk": (sf.ell_K, (float,)),
    "mu": (sf.mu, (float,)),
    "mu-inv": (sf.mu_inv, (float,)),
    "phik": (sf.phi_K, (float, float)),
    "gamma2": (sf.gamma2, (float,)),
    "gamma2-inv": (sf.gamma2_inv, (float,)),
    "tau2": (sf.tau2, (float,)),
    "tau2-inv": (sf.tau2_inv, (float,)),
    "omega-sphere": (sf.omega_sphere, (int,)),
    "p-circle": (sf.teichmuller_p_circle, (float,)),
    "lambda-n": (sf.lambda_n_interval, (int,)),
    "tau-n": (sf.tau_n_bounds, (int, float)),
    "tau-n-inv": (sf.tau_n_inv_bounds, (int, float)),
    "gamma-n": (sf.gamma_n_bounds, (int, float)),
    "eta": (sf.eta_K_n, (int, float, float)),
    "phikn-lower": (sf.phi_Kn_lower, (int, float, float)),
}


def _cmd_sf(args, parser) -> None:
    fn, sig = _SF_OPS[args.fn]
    if len(args.args) != len(sig):
        parser.error(
            f"sf {args.fn} takes {len(sig)} argument(s), got {len(args.args)}"
        )
    converted = [conv(tok) for conv, tok in zip(sig, args.args)]
    _print_value(fn(*converted))


def _add_sf(p: argparse.ArgumentParser) -> None:
    p.add_argument("fn", choices=sorted(_SF_OPS))
    p.add_argument("args", nargs="*")
    p.set_defaults(handler=_cmd_sf)


# ---------------------------------------------------------------------------
# metric subcommand
# ---------------------------------------------------------------------------

_EXACT_QH_KINDS = ("punctured_space", "half_space")


def _cmd_metric(args, parser) -> None:
    from . import metrics as mt

    x = tuple(args.x)
    y = tuple(args.y)
    if len(x) != len(y):
        parser.error("--x and --y need the same dimension")
    name = args.metric
    if name == "chordal":
        value = mt.chordal(x, y)
    elif name == "hyperbolic":
        if args.domain != "ball":
            parser.error("the hyperbolic metric is implemented on the ball")
        value = mt.hyperbolic_ball(x, y)
    elif name == "quasihyperbolic" and args.domain in _EXACT_QH_KINDS:
        value = mt.quasihyperbolic_exact(args.domain, x, y)
    else:
        D = mt.canonical_domain(args.domain, len(x), boundary_samples=args.boundary_samples)
        if name == "quasihyperbolic":
            value = mt.quasihyperbolic_numeric(D, x, y, tol=args.tol).value
        elif name == "j":
            value = mt.j_metric(D, x, y)
        elif name == "seittenranta":
            value = mt.seittenranta(D, x, y).value
        else:
            value = mt.apollonian(D, x, y).value
    _print_value(value)


def _add_metric(p: argparse.ArgumentParser) -> None:
    from . import metrics as mt

    p.add_argument("--domain", choices=mt.CANONICAL_DOMAIN_NAMES, required=True)
    p.add_argument(
        "--metric",
        choices=("chordal", "j", "seittenranta", "apollonian", "hyperbolic", "quasihyperbolic"),
        required=True,
    )
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--y", type=float, nargs="+", required=True)
    p.add_argument("--boundary-samples", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_metric)


# ---------------------------------------------------------------------------
# chart subcommand
# ---------------------------------------------------------------------------


def _props_from_args(args) -> tc.DomainProps:
    return tc.DomainProps(
        uniform_constant=args.uniform_c,
        qed_constant=args.qed_c,
        cn_constant=args.cn,
        boundary_connected=args.connected,
        boundary_nondegenerate=args.nondegenerate,
        boundary_card_ge_2=args.card_ge_2,
        convex=args.convex,
        bounded_with_diam=args.diam,
        locality="local" if args.local else "global",
    )


def _cmd_chart_query(args, parser) -> None:
    chart = tc.builtin_chart(args.dimension)
    frm = tc.MetricId(args.frm)
    to = tc.MetricId(args.to)
    res = tc.query(chart, frm, to, _props_from_args(args), args.t)
    if res is None:
        print("no transfer available under the given domain facts")
        return
    print(_fmt(res.value))
    print("path: " + " -> ".join(node.value for node in res.nodes))


def _cmd_chart_export(args, parser) -> None:
    rows = tc.chart_rows(tc.builtin_chart(args.dimension))
    header = ["from", "to", "formula", "window", "requires", "validity", "provenance"]
    _write_csv(args.csv, header, ([r[k] for k in header] for r in rows))


def _add_chart(p: argparse.ArgumentParser) -> None:
    sub = p.add_subparsers(dest="chart_op", required=True)
    metric_ids = [m.value for m in tc.MetricId]
    pc = _leaf(sub, "query", _cmd_chart_query)
    pc.add_argument("--dimension", type=int, default=2)
    pc.add_argument("--frm", "--from", dest="frm", required=True, choices=metric_ids)
    pc.add_argument("--to", required=True, choices=metric_ids)
    pc.add_argument("--t", type=float, required=True)
    for flag in ("--uniform-c", "--qed-c", "--cn"):
        pc.add_argument(flag, type=float, default=None)
    for flag in ("--connected", "--nondegenerate", "--card-ge-2", "--convex"):
        pc.add_argument(flag, action="store_true")
    pc.add_argument("--diam", type=float, default=None)
    pc.add_argument("--local", action="store_true")
    pc = _leaf(sub, "export", _cmd_chart_export)
    pc.add_argument("--dimension", type=int, default=2)
    pc.add_argument("--csv", default=None)


# ---------------------------------------------------------------------------
# ball subcommand
# ---------------------------------------------------------------------------


def _quasiball(M: float) -> dict[str, float]:
    rep = bg.quasiball_radii(M)
    return {"inner": rep.inner_euclid_radius_factor, "outer": rep.outer_euclid_radius_factor}


def _sorted_aux(rep: bg.BallInclusionReport) -> dict[str, float]:
    return dict(sorted(rep.aux_constants.items()))


def _add_ball(p: argparse.ArgumentParser) -> None:
    sub = p.add_subparsers(dest="ball_op", required=True)
    _leaf(sub, "quasiball", _prints(lambda a: _quasiball(a.M)), "--M")
    _leaf(sub, "circumscribed", _prints(lambda a: bg.circumscribed_lambda_radius(a.T)), "--T")
    pb = _leaf(sub, "mu-constants", _prints(lambda a: _sorted_aux(bg.mu_ball_constants(a.n, a.t))))
    pb.add_argument("--n", type=int, default=2)
    pb.add_argument("--t", type=float, required=True)
    pb = _leaf(
        sub, "lambda-constants", _prints(lambda a: _sorted_aux(bg.lambda_ball_constants(a.n, a.t)))
    )
    pb.add_argument("--n", type=int, default=2)
    pb.add_argument("--t", type=float, required=True)
    _leaf(sub, "quartic", _prints(lambda a: bg.antipodal_quartic(a.r)), "--r")
    _leaf(sub, "threshold", _prints(lambda a: bg.antipodal_threshold()))
    _leaf(sub, "joining", _prints(lambda a: bg.joining_family_modulus(a.r, a.s)), "--r", "--s")
    _leaf(sub, "separating-inner", _prints(lambda a: bg.inner_separating_modulus(a.r)), "--r")
    _leaf(
        sub, "separating-outer",
        _prints(lambda a: bg.outer_separating_modulus(a.r, a.s)), "--r", "--s",
    )
    _leaf(
        sub, "punctured-moduli",
        _prints(lambda a: bg.punctured_disk_moduli(a.r, a.s)._asdict()), "--r", "--s",
    )
    pb = _leaf(
        sub, "irrelevance",
        _prints(
            lambda a: bg.antipodal_irrelevance_radius()
            if a.delta is None
            else bg.puncture_irrelevance_radius(a.delta)
        ),
    )
    pb.add_argument("--delta", type=float, default=None)


# ---------------------------------------------------------------------------
# distort subcommand
# ---------------------------------------------------------------------------


def _cmd_distort_bound(args, parser) -> None:
    from . import distortion as ds

    b = ds.distortion_bound(
        args.quantity,
        args.n,
        args.K,
        absx=args.absx,
        j_xy=args.j_xy,
        x=tuple(args.x),
        eps=args.eps,
    )
    _print_value(b.value)
    print(f"validity: {b.validity}")
    print(f"bound: {b.provenance}")


def _cmd_distort_report(args, parser) -> None:
    from .verify import distortion_inequality_report

    report = distortion_inequality_report(args.K, args.n)
    for entry in report["entries"]:
        slack = entry["min_slack"]
        shown = "inapplicable" if slack is None else _fmt(slack)
        print(f"{entry['check_id']} {shown}")


def _add_distort(p: argparse.ArgumentParser) -> None:
    from . import distortion as ds

    sub = p.add_subparsers(dest="distort_op", required=True)
    pd = _leaf(sub, "bound", _cmd_distort_bound)
    pd.add_argument("--quantity", choices=ds.QUANTITY_LABELS, required=True)
    pd.add_argument("--n", type=int, default=2)
    pd.add_argument("--K", type=float, required=True)
    pd.add_argument("--absx", type=float, default=1.0)
    pd.add_argument("--j-xy", type=float, default=1.0)
    pd.add_argument("--x", type=float, nargs=2, default=(-1.0, 0.0))
    pd.add_argument("--eps", type=float, default=0.01)
    pd = _leaf(sub, "report", _cmd_distort_report)
    pd.add_argument("--n", type=int, default=2)
    pd.add_argument("--K", type=float, required=True)
    _leaf(sub, "eps-to-K", _prints(lambda a: ds.eps_to_K(a.eps)), "--eps")

    def lens(name: str, compute: Callable) -> argparse.ArgumentParser:
        pd = _leaf(sub, name, _prints(compute))
        pd.add_argument("--x", type=float, nargs=2, required=True)
        pd.add_argument("--eps", type=float, required=True)
        return pd

    lens("lens-sqrt", lambda a: ds.lens_diam_bound_sqrt(tuple(a.x), a.eps))
    pd = lens("lens-linear", lambda a: ds.lens_diam_bound_linear(tuple(a.x), a.eps, a.omega))
    pd.add_argument("--omega", type=float, required=True)
    pd = lens("lens-brute", lambda a: ds.lens_diam_brute(tuple(a.x), a.eps, a.N, seed=a.seed))
    pd.add_argument("--N", type=int, default=10**4)
    pd.add_argument("--seed", type=int, default=0)
    lens("lens-exact", lambda a: ds.lens_diam_exact(tuple(a.x), a.eps))


# ---------------------------------------------------------------------------
# harmonic subcommand
# ---------------------------------------------------------------------------


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    return tuple(complex(tok) for tok in text.split(",") if tok.strip())


def _harmonic_map_from_args(args, parser) -> HarmonicPlanarMap:
    from . import harmonic_qr as hq

    if args.k is not None:
        if args.g is not None or args.h is not None:
            parser.error("give either --k or --g/--h, not both")
        return hq.HarmonicPlanarMap.shear(args.k)
    if args.g is None and args.h is None:
        parser.error("a map needs --k or at least one of --g/--h")
    g = _parse_coeffs(args.g) if args.g else (0j,)
    h = _parse_coeffs(args.h) if args.h else (0j,)
    return hq.HarmonicPlanarMap(g, h)


def _cmd_harmonic_laplacian(args, parser) -> None:
    from . import harmonic_qr as hq

    f = _harmonic_map_from_args(args, parser)
    z = complex(args.z[0], args.z[1])
    if args.p is None:
        _print_value(hq.laplacian_abs_f_sq(f, z))
    else:
        _print_value(hq.laplacian_abs_f_p(f, z, args.p))


def _cmd_harmonic_scan(args, parser) -> None:
    from . import harmonic_qr as hq

    f = _harmonic_map_from_args(args, parser)
    if args.p is None:
        parser.error("harmonic scan needs --p")
    scan = hq.check_subharmonic(f, args.p, args.grid_radius, args.grid, args.tol)
    print(f"min {_fmt(scan.min_value)}")
    print(f"argmin {scan.argmin.real:.17g}{scan.argmin.imag:+.17g}j")
    print(f"subharmonic {'yes' if scan.subharmonic else 'no'}")


def _cmd_harmonic_moduli(args, parser) -> None:
    from . import harmonic_qr as hq

    f = _harmonic_map_from_args(args, parser)
    deltas = [float(tok) for tok in args.delta_list.split(",") if tok.strip()]
    if not deltas:
        parser.error("--delta-list needs at least one delta")
    rows = hq.modulus_profile(f, deltas, boundary_N=args.boundary_n)
    _write_csv(
        args.csv,
        ["delta", "boundary_modulus", "closed_modulus"],
        ([r.delta, r.boundary, r.closed] for r in rows),
    )


def _cmd_harmonic_profile(args, parser) -> None:
    from . import harmonic_qr as hq

    f = _harmonic_map_from_args(args, parser)
    ps = [float(tok) for tok in args.p_list.split(",") if tok.strip()]
    if not ps:
        parser.error("--p-list needs at least one exponent")
    rows = hq.subharmonic_profile(f, ps, grid_radius=args.grid_radius, grid_N=args.grid)
    _write_csv(
        args.csv,
        ["p", "min_laplacian", "argmin_re", "argmin_im"],
        ([r.p, r.min_value, r.argmin.real, r.argmin.imag] for r in rows),
    )


def _map_leaf(sub, name: str, handler: Callable) -> argparse.ArgumentParser:
    """A leaf for an op on one map, given by --k or by --g/--h."""
    ph = _leaf(sub, name, handler)
    ph.add_argument("--k", type=float, default=None, help="shear dilatation z + k conj(z)")
    ph.add_argument("--g", default=None, help="comma-separated analytic coefficients")
    ph.add_argument("--h", default=None, help="comma-separated co-analytic coefficients")
    return ph


def _add_harmonic(p: argparse.ArgumentParser) -> None:
    from . import harmonic_qr as hq

    sub = p.add_subparsers(dest="harmonic_op", required=True)
    _leaf(sub, "exponent", _prints(lambda a: hq.subharmonic_exponent(a.k)), "--k")
    ph = _map_leaf(sub, "laplacian", _cmd_harmonic_laplacian)
    ph.add_argument("--z", type=float, nargs=2, required=True)
    ph.add_argument("--p", type=float, default=None)
    ph = _map_leaf(sub, "scan", _cmd_harmonic_scan)
    ph.add_argument("--p", type=float, default=None)
    ph.add_argument("--grid-radius", type=float, default=0.95)
    ph.add_argument("--grid", type=int, default=96)
    ph.add_argument("--tol", type=float, default=1e-9)
    ph = _map_leaf(sub, "moduli", _cmd_harmonic_moduli)
    ph.add_argument("--delta-list", required=True)
    ph.add_argument("--boundary-n", type=int, default=8192)
    ph.add_argument("--csv", default=None)
    ph = _map_leaf(sub, "profile", _cmd_harmonic_profile)
    ph.add_argument("--p-list", required=True)
    ph.add_argument("--grid-radius", type=float, default=0.95)
    ph.add_argument("--grid", type=int, default=96)
    ph.add_argument("--csv", default=None)


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    from .verify import VerifyConfig, run_verify

    config = VerifyConfig(
        seed=args.seed, cn=args.cn, uniform_c=args.uniform_c, qed_c=args.qed_c
    )
    report = run_verify(args.filter, config)
    for e in report.entries:
        if e.skipped:
            print(f"SKIP {e.check_id} ({e.note})")
        else:
            flag = "PASS" if e.passed else "FAIL"
            note = f" ({e.note})" if e.note else ""
            print(
                f"{flag} {e.check_id} min_slack={e.min_slack:.6e} "
                f"argmin={e.argmin}{note}"
            )
    s = report.summary()
    print(
        f"summary: total={s['total']} passed={s['passed']} "
        f"failed={s['failed']} skipped={s['skipped']}"
    )
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, allow_nan=False)
            fh.write("\n")
    return 0 if report.all_passed else 1


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter", default=None, help="regex on check ids")
    p.add_argument("--json", default=None, help="write the report as JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cn", type=float, default=None)
    p.add_argument("--uniform-c", type=float, default=None)
    p.add_argument("--qed-c", type=float, default=None)
    p.set_defaults(handler=_cmd_verify)


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------


def _as_row(value) -> list[float]:
    if isinstance(value, Interval):
        return [value.lo, value.hi]
    return [float(value)]


def _sweep_registry(args, parser) -> tuple[str, list[str], Callable[[float], list[float]]]:
    """Resolve an op name to (default parameter, value columns, evaluator).

    Columns are fixed per op so a zero-step sweep still writes the header
    its populated counterpart would have.
    """
    from . import distortion as ds
    from . import harmonic_qr as hq

    op = args.op
    if op.startswith("sf."):
        name = op[3:]
        if name not in _SF_OPS:
            parser.error(f"unknown sweep op {op!r}")
        fn, sig = _SF_OPS[name]
        if sig != (float,):
            parser.error(f"sweep needs a one-float-parameter function, {op!r} is not")
        return "x", ["value"], lambda v: [float(fn(v))]
    if op == "ball.circumscribed":
        return "T", ["radius"], lambda v: [bg.circumscribed_lambda_radius(v)]
    if op == "ball.quasiball":
        return "M", ["inner", "outer"], lambda v: list(_quasiball(v).values())
    if op == "harmonic.exponent":
        return "k", ["q"], lambda v: [hq.subharmonic_exponent(v)]
    if op == "distort.bound":
        # scalar quantities fill the lo/hi pair with equal endpoints
        return (
            "K",
            ["lo", "hi"],
            lambda v: _as_row(
                ds.distortion_bound(args.quantity, args.n, v, absx=args.absx).value
            ),
        )
    parser.error(f"unknown sweep op {op!r}")


def _cmd_sweep(args, parser) -> None:
    import numpy as np

    default_param, columns, evaluate = _sweep_registry(args, parser)
    param = args.param or default_param
    if args.steps < 0:
        parser.error("--steps must be >= 0")
    values = [float(v) for v in np.linspace(args.frm, args.to, args.steps)]
    rows = []
    for v in values:
        out = evaluate(v)
        if len(out) != len(columns):
            out = (out + out)[: len(columns)]
        rows.append([v] + out)
    _write_csv(args.csv, [param] + columns, rows)


def _add_sweep(p: argparse.ArgumentParser) -> None:
    from . import distortion as ds

    p.add_argument("op")
    p.add_argument("--param", default=None, help="column name for the parameter")
    p.add_argument("--from", dest="frm", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--quantity", choices=ds.QUANTITY_LABELS, default="euclid_displacement")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--absx", type=float, default=1.0)
    p.set_defaults(handler=_cmd_sweep)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

#: subcommand -> (help text, function that adds its arguments), in help order
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "sf": ("evaluate a special function", _add_sf),
    "metric": ("evaluate a metric on a canonical domain", _add_metric),
    "chart": ("query or export the metric transfer chart", _add_chart),
    "ball": ("ball-inclusion geometry", _add_ball),
    "distort": ("quasiconformal distortion bounds", _add_distort),
    "harmonic": ("planar harmonic maps and moduli", _add_harmonic),
    "verify": ("run the registered check suite", _add_verify),
    "sweep": ("sweep one parameter of an op into CSV", _add_sweep),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The top-level parser, with arguments only under ``command``.

    Every subcommand is registered, so top-level help and errors list
    them all; the other subcommands' parsers stay empty.
    """
    parser = argparse.ArgumentParser(
        prog="cgft",
        description="Conformal invariants, hyperbolic-type metrics, and distortion bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a handler returns its exit code, or None on success
        return args.handler(args, parser) or 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
