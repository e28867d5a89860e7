"""Command-line surface: evaluate, query, sweep, and verify.

One binary with subcommand style and no configuration files; every
input arrives as a flag so reported numbers are reproducible.  Exit
codes: 0 success, 1 at least one failed verify entry, 2 usage error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Callable, Sequence

import numpy as np

from . import ball_geometry as bg
from . import distortion as ds
from . import harmonic_qr as hq
from . import metrics as mt
from . import special_functions as sf
from . import transfer_chart as tc
from .special_functions import Interval
from .verify import VerifyConfig, distortion_inequality_report, run_verify

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _print_value(value) -> None:
    if isinstance(value, Interval):
        if value.is_degenerate:
            print(_fmt(value.lo))
        else:
            print(f"{_fmt(value.lo)} {_fmt(value.hi)}")
    else:
        print(_fmt(value))


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


def _cmd_sf(args, parser) -> int:
    fn, sig = _SF_OPS[args.fn]
    if len(args.args) != len(sig):
        parser.error(
            f"sf {args.fn} takes {len(sig)} argument(s), got {len(args.args)}"
        )
    converted = [conv(tok) for conv, tok in zip(sig, args.args)]
    _print_value(fn(*converted))
    return 0


# ---------------------------------------------------------------------------
# metric subcommand
# ---------------------------------------------------------------------------

_EXACT_QH_KINDS = ("punctured_space", "half_space")


def _cmd_metric(args, parser) -> int:
    x = tuple(args.x)
    y = tuple(args.y)
    if len(x) != len(y):
        parser.error("--x and --y need the same dimension")
    n = len(x)
    name = args.metric
    if name == "chordal":
        _print_value(mt.chordal(x, y))
        return 0
    if name == "hyperbolic":
        if args.domain != "ball":
            parser.error("the hyperbolic metric is implemented on the ball")
        _print_value(mt.hyperbolic_ball(x, y))
        return 0
    if name == "quasihyperbolic":
        if args.domain in _EXACT_QH_KINDS:
            _print_value(mt.quasihyperbolic_exact(args.domain, x, y))
            return 0
        D = mt.canonical_domain(args.domain, n, boundary_samples=args.boundary_samples)
        _print_value(mt.quasihyperbolic_numeric(D, x, y, tol=args.tol).value)
        return 0
    D = mt.canonical_domain(args.domain, n, boundary_samples=args.boundary_samples)
    if name == "j":
        _print_value(mt.j_metric(D, x, y))
    elif name == "seittenranta":
        _print_value(mt.seittenranta(D, x, y).value)
    elif name == "apollonian":
        _print_value(mt.apollonian(D, x, y).value)
    else:  # pragma: no cover - argparse choices guard this
        parser.error(f"unknown metric {name!r}")
    return 0


# ---------------------------------------------------------------------------
# chart subcommand
# ---------------------------------------------------------------------------


def _props_from_args(args) -> tc.DomainProps:
    return tc.DomainProps(
        uniform_constant=args.uniform_c,
        qed_constant=args.qed_c,
        boundary_connected=args.connected,
        boundary_nondegenerate=args.nondegenerate,
        boundary_card_ge_2=args.card_ge_2,
        convex=args.convex,
        bounded_with_diam=args.diam,
        locality="local" if args.local else "global",
    )


def _cmd_chart(args, parser) -> int:
    chart = tc.builtin_chart(args.dimension, cn=args.cn)
    if args.chart_op == "export":
        rows = tc.chart_rows(chart)
        header = ["from", "to", "formula", "window", "requires", "validity", "provenance"]
        _write_csv(args.csv, header, ([r[k] for k in header] for r in rows))
        return 0
    frm = tc.MetricId(args.frm)
    to = tc.MetricId(args.to)
    res = tc.query(chart, frm, to, _props_from_args(args), args.t)
    if res is None:
        print("no transfer available under the given domain facts")
        return 0
    print(_fmt(res.value))
    print("path: " + " -> ".join(node.value for node in res.nodes))
    return 0


# ---------------------------------------------------------------------------
# ball subcommand
# ---------------------------------------------------------------------------


def _cmd_ball(args, parser) -> int:
    op = args.ball_op
    if op == "quasiball":
        rep = bg.quasiball_radii(args.M)
        print(f"inner {_fmt(rep.inner_euclid_radius_factor)}")
        print(f"outer {_fmt(rep.outer_euclid_radius_factor)}")
    elif op == "circumscribed":
        _print_value(bg.circumscribed_lambda_radius(args.T))
    elif op == "mu-constants":
        rep = bg.mu_ball_constants(args.n, args.t)
        for key in sorted(rep.aux_constants):
            print(f"{key} {_fmt(rep.aux_constants[key])}")
    elif op == "lambda-constants":
        rep = bg.lambda_ball_constants(args.n, args.t)
        for key in sorted(rep.aux_constants):
            print(f"{key} {_fmt(rep.aux_constants[key])}")
    elif op == "quartic":
        _print_value(bg.antipodal_quartic(args.r))
    elif op == "threshold":
        _print_value(bg.antipodal_threshold())
    elif op == "joining":
        _print_value(bg.joining_family_modulus(args.r, args.s))
    elif op == "separating-inner":
        _print_value(bg.inner_separating_modulus(args.r))
    elif op == "separating-outer":
        _print_value(bg.outer_separating_modulus(args.r, args.s))
    elif op == "punctured-moduli":
        moduli = bg.punctured_disk_moduli(args.r, args.s)
        for key, value in moduli._asdict().items():
            print(f"{key} {_fmt(value)}")
    elif op == "irrelevance":
        if args.delta is None:
            _print_value(bg.antipodal_irrelevance_radius())
        else:
            _print_value(bg.puncture_irrelevance_radius(args.delta))
    return 0


# ---------------------------------------------------------------------------
# distort subcommand
# ---------------------------------------------------------------------------


def _cmd_distort(args, parser) -> int:
    op = args.distort_op
    if op == "bound":
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
    elif op == "report":
        report = distortion_inequality_report(args.K, args.n)
        for entry in report["entries"]:
            slack = entry["min_slack"]
            shown = "inapplicable" if slack is None else _fmt(slack)
            print(f"{entry['check_id']} {shown}")
    elif op == "eps-to-K":
        _print_value(ds.eps_to_K(args.eps))
    elif op == "lens-sqrt":
        _print_value(ds.lens_diam_bound_sqrt(tuple(args.x), args.eps))
    elif op == "lens-linear":
        _print_value(ds.lens_diam_bound_linear(tuple(args.x), args.eps, args.omega))
    elif op == "lens-brute":
        _print_value(
            ds.lens_diam_brute(tuple(args.x), args.eps, args.N, seed=args.seed)
        )
    return 0


# ---------------------------------------------------------------------------
# harmonic subcommand
# ---------------------------------------------------------------------------


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    return tuple(complex(tok) for tok in text.split(",") if tok.strip())


def _harmonic_map_from_args(args, parser) -> hq.HarmonicPlanarMap:
    if args.k is not None:
        if args.g is not None or args.h is not None:
            parser.error("give either --k or --g/--h, not both")
        return hq.HarmonicPlanarMap.shear(args.k)
    if args.g is None and args.h is None:
        parser.error("a map needs --k or at least one of --g/--h")
    g = _parse_coeffs(args.g) if args.g else (0j,)
    h = _parse_coeffs(args.h) if args.h else (0j,)
    return hq.HarmonicPlanarMap(g, h)


def _cmd_harmonic(args, parser) -> int:
    op = args.harmonic_op
    if op == "exponent":
        _print_value(hq.subharmonic_exponent(args.k))
        return 0
    f = _harmonic_map_from_args(args, parser)
    if op == "laplacian":
        z = complex(args.z[0], args.z[1])
        if args.p is None:
            _print_value(hq.laplacian_abs_f_sq(f, z))
        else:
            _print_value(hq.laplacian_abs_f_p(f, z, args.p))
    elif op == "scan":
        if args.p is None:
            parser.error("harmonic scan needs --p")
        scan = hq.check_subharmonic(f, args.p, args.grid_radius, args.grid, args.tol)
        print(f"min {_fmt(scan.min_value)}")
        print(f"argmin {scan.argmin.real:.17g}{scan.argmin.imag:+.17g}j")
        print(f"subharmonic {'yes' if scan.subharmonic else 'no'}")
    elif op == "moduli":
        deltas = [float(tok) for tok in args.delta_list.split(",") if tok.strip()]
        rows = hq.modulus_profile(f, deltas, boundary_N=args.boundary_n)
        _write_csv(
            args.csv,
            ["delta", "boundary_modulus", "closed_modulus"],
            ([r.delta, r.boundary, r.closed] for r in rows),
        )
    elif op == "profile":
        ps = [float(tok) for tok in args.p_list.split(",") if tok.strip()]
        rows = hq.subharmonic_profile(f, ps, grid_radius=args.grid_radius, grid_N=args.grid)
        _write_csv(
            args.csv,
            ["p", "min_laplacian", "argmin_re", "argmin_im"],
            ([r.p, r.min_value, r.argmin.real, r.argmin.imag] for r in rows),
        )
    return 0


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
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
        return (
            "M",
            ["inner", "outer"],
            lambda v: [
                bg.quasiball_radii(v).inner_euclid_radius_factor,
                bg.quasiball_radii(v).outer_euclid_radius_factor,
            ],
        )
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


def _cmd_sweep(args, parser) -> int:
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
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_map_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=float, default=None, help="shear dilatation z + k conj(z)")
    p.add_argument("--g", default=None, help="comma-separated analytic coefficients")
    p.add_argument("--h", default=None, help="comma-separated co-analytic coefficients")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgft",
        description="Conformal invariants, hyperbolic-type metrics, and distortion bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sf = sub.add_parser("sf", help="evaluate a special function")
    p_sf.add_argument("fn", choices=sorted(_SF_OPS))
    p_sf.add_argument("args", nargs="*")
    p_sf.set_defaults(handler=_cmd_sf)

    p_metric = sub.add_parser("metric", help="evaluate a metric on a canonical domain")
    p_metric.add_argument("--domain", choices=mt.CANONICAL_DOMAIN_NAMES, required=True)
    p_metric.add_argument(
        "--metric",
        choices=("chordal", "j", "seittenranta", "apollonian", "hyperbolic", "quasihyperbolic"),
        required=True,
    )
    p_metric.add_argument("--x", type=float, nargs="+", required=True)
    p_metric.add_argument("--y", type=float, nargs="+", required=True)
    p_metric.add_argument("--boundary-samples", type=int, default=128)
    p_metric.add_argument("--tol", type=float, default=1e-3)
    p_metric.set_defaults(handler=_cmd_metric)

    p_chart = sub.add_parser("chart", help="query or export the metric transfer chart")
    chart_sub = p_chart.add_subparsers(dest="chart_op", required=True)
    for name in ("query", "export"):
        pc = chart_sub.add_parser(name)
        pc.add_argument("--dimension", type=int, default=2)
        pc.add_argument("--cn", type=float, default=None)
        if name == "query":
            pc.add_argument("--frm", "--from", dest="frm", required=True,
                            choices=[m.value for m in tc.MetricId])
            pc.add_argument("--to", required=True, choices=[m.value for m in tc.MetricId])
            pc.add_argument("--t", type=float, required=True)
            pc.add_argument("--uniform-c", type=float, default=None)
            pc.add_argument("--qed-c", type=float, default=None)
            pc.add_argument("--connected", action="store_true")
            pc.add_argument("--nondegenerate", action="store_true")
            pc.add_argument("--card-ge-2", action="store_true")
            pc.add_argument("--convex", action="store_true")
            pc.add_argument("--diam", type=float, default=None)
            pc.add_argument("--local", action="store_true")
        else:
            pc.add_argument("--csv", default=None)
        pc.set_defaults(handler=_cmd_chart)

    p_ball = sub.add_parser("ball", help="ball-inclusion geometry")
    ball_sub = p_ball.add_subparsers(dest="ball_op", required=True)
    pb = ball_sub.add_parser("quasiball")
    pb.add_argument("--M", type=float, required=True)
    pb = ball_sub.add_parser("circumscribed")
    pb.add_argument("--T", type=float, required=True)
    for name in ("mu-constants", "lambda-constants"):
        pb = ball_sub.add_parser(name)
        pb.add_argument("--n", type=int, default=2)
        pb.add_argument("--t", type=float, required=True)
    pb = ball_sub.add_parser("quartic")
    pb.add_argument("--r", type=float, required=True)
    ball_sub.add_parser("threshold")
    pb = ball_sub.add_parser("joining")
    pb.add_argument("--r", type=float, required=True)
    pb.add_argument("--s", type=float, required=True)
    pb = ball_sub.add_parser("separating-inner")
    pb.add_argument("--r", type=float, required=True)
    pb = ball_sub.add_parser("separating-outer")
    pb.add_argument("--r", type=float, required=True)
    pb.add_argument("--s", type=float, required=True)
    pb = ball_sub.add_parser("punctured-moduli")
    pb.add_argument("--r", type=float, required=True)
    pb.add_argument("--s", type=float, required=True)
    pb = ball_sub.add_parser("irrelevance")
    pb.add_argument("--delta", type=float, default=None)
    p_ball.set_defaults(handler=_cmd_ball)

    p_distort = sub.add_parser("distort", help="quasiconformal distortion bounds")
    distort_sub = p_distort.add_subparsers(dest="distort_op", required=True)
    pd = distort_sub.add_parser("bound")
    pd.add_argument("--quantity", choices=ds.QUANTITY_LABELS, required=True)
    pd.add_argument("--n", type=int, default=2)
    pd.add_argument("--K", type=float, required=True)
    pd.add_argument("--absx", type=float, default=1.0)
    pd.add_argument("--j-xy", type=float, default=1.0)
    pd.add_argument("--x", type=float, nargs=2, default=(-1.0, 0.0))
    pd.add_argument("--eps", type=float, default=0.01)
    pd = distort_sub.add_parser("report")
    pd.add_argument("--n", type=int, default=2)
    pd.add_argument("--K", type=float, required=True)
    pd = distort_sub.add_parser("eps-to-K")
    pd.add_argument("--eps", type=float, required=True)
    pd = distort_sub.add_parser("lens-sqrt")
    pd.add_argument("--x", type=float, nargs=2, required=True)
    pd.add_argument("--eps", type=float, required=True)
    pd = distort_sub.add_parser("lens-linear")
    pd.add_argument("--x", type=float, nargs=2, required=True)
    pd.add_argument("--eps", type=float, required=True)
    pd.add_argument("--omega", type=float, required=True)
    pd = distort_sub.add_parser("lens-brute")
    pd.add_argument("--x", type=float, nargs=2, required=True)
    pd.add_argument("--eps", type=float, required=True)
    pd.add_argument("--N", type=int, default=10**4)
    pd.add_argument("--seed", type=int, default=0)
    p_distort.set_defaults(handler=_cmd_distort)

    p_harm = sub.add_parser("harmonic", help="planar harmonic maps and moduli")
    harm_sub = p_harm.add_subparsers(dest="harmonic_op", required=True)
    ph = harm_sub.add_parser("exponent")
    ph.add_argument("--k", type=float, required=True)
    ph = harm_sub.add_parser("laplacian")
    _add_map_flags(ph)
    ph.add_argument("--z", type=float, nargs=2, required=True)
    ph.add_argument("--p", type=float, default=None)
    ph = harm_sub.add_parser("scan")
    _add_map_flags(ph)
    ph.add_argument("--p", type=float, default=None)
    ph.add_argument("--grid-radius", type=float, default=0.95)
    ph.add_argument("--grid", type=int, default=96)
    ph.add_argument("--tol", type=float, default=1e-9)
    ph = harm_sub.add_parser("moduli")
    _add_map_flags(ph)
    ph.add_argument("--delta-list", required=True)
    ph.add_argument("--boundary-n", type=int, default=8192)
    ph.add_argument("--csv", default=None)
    ph = harm_sub.add_parser("profile")
    _add_map_flags(ph)
    ph.add_argument("--p-list", required=True)
    ph.add_argument("--grid-radius", type=float, default=0.95)
    ph.add_argument("--grid", type=int, default=96)
    ph.add_argument("--csv", default=None)
    p_harm.set_defaults(handler=_cmd_harmonic)

    p_verify = sub.add_parser("verify", help="run the registered check suite")
    p_verify.add_argument("--filter", default=None, help="regex on check ids")
    p_verify.add_argument("--json", default=None, help="write the report as JSON")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cn", type=float, default=None)
    p_verify.add_argument("--uniform-c", type=float, default=None)
    p_verify.add_argument("--qed-c", type=float, default=None)
    p_verify.set_defaults(handler=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of an op into CSV")
    p_sweep.add_argument("op")
    p_sweep.add_argument("--param", default=None, help="column name for the parameter")
    p_sweep.add_argument("--from", dest="frm", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--csv", default=None)
    p_sweep.add_argument("--quantity", choices=ds.QUANTITY_LABELS, default="euclid_displacement")
    p_sweep.add_argument("--n", type=int, default=2)
    p_sweep.add_argument("--absx", type=float, default=1.0)
    p_sweep.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, parser)
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
