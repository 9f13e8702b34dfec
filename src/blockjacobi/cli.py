"""Command-line front end.

Subcommands: bounds (rates and envelope tables), green (resolvent-column
norms), eigs (eigenpairs below the edge, optionally after the rank-one
perturbation), example (tables for the built-in 2x2 st family), verify
(decay verification reports).

Exit status: 0 on success with all verdicts passing, 2 when a verification
verdict fails, 1 on input errors (unknown family, malformed file,
parameter-domain violations).  Identical configurations produce
bitwise-identical report files; floats are rendered with 17 significant
digits.  The BJB_THREADS environment variable caps parallel evaluation of
lambda grids (results merge in input order either way).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bounds import BoundParams, gamma_rate, scalar_envelope, simplified_rate
from .dense_linalg import SingularShiftError
from .green_spectral import (CSV_HEADER, EmptySpectrumError, eigenpairs_below,
                             green_column, perturbed_truncation,
                             verify_commuting_decay, verify_eigenvector_decay,
                             verify_green_decay, _fmt, _fmt_complex)
from .operator_model import assemble_truncation, parse_family_spec
from .st_family import (StParams, jc_lower_bound, levinson_profile,
                        mu_asymptotic, phase_class, transfer_eigenvalues)

__all__ = ["main", "CliError"]


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors must exit 1, not argparse's 2
        raise CliError(message)


def _parse_lambda(text: str) -> list[complex]:
    """A scalar (real or complex literal) or a start:stop:step grid.

    The grid holds the points start + i*step for i = 0, 1, 2, ... up to the
    last one not above stop + 1e-12 * max(1, |stop|): stop is included when
    the steps reach it up to rounding.  Each point is computed from i
    directly, so labels do not drift with the number of steps.
    """
    parts = text.split(":")
    if len(parts) == 1:
        try:
            return [complex(float(text))]
        except ValueError:
            try:
                return [complex(text)]
            except ValueError:
                raise CliError(f"cannot parse --lambda value {text!r}")
    if len(parts) != 3:
        raise CliError(f"--lambda grid must be start:stop:step, got {text!r}")
    try:
        a, b, step = (float(v) for v in parts)
    except ValueError:
        raise CliError(f"--lambda grid must be numeric, got {text!r}")
    if step <= 0:
        raise CliError("--lambda grid step must be positive")
    last = b + 1e-12 * max(1.0, abs(b))
    out = []
    while (v := a + len(out) * step) <= last:
        out.append(complex(v))
    if not out:
        raise CliError(f"--lambda grid {text!r} is empty")
    return out


def _single_lambda(args) -> complex:
    """The --lambda value of a command that takes one point, not a grid."""
    lams = _parse_lambda(getattr(args, "lambda"))
    if len(lams) > 1:
        raise CliError(f"--lambda must be a single value for this command, "
                       f"got a {len(lams)}-point grid")
    return lams[0]


def _parse_calib(text):
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep:
        raise CliError(f"--calib must be lo:hi, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise CliError(f"--calib must be integer lo:hi, got {text!r}")


def _n_workers(njobs: int) -> int:
    raw = os.environ.get("BJB_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise CliError(f"BJB_THREADS must be an integer, got {raw!r}")
        if cap < 1:
            raise CliError("BJB_THREADS must be >= 1")
    else:
        cap = 4
    return max(1, min(cap, njobs))


def _map_lambdas(fn, lams):
    if len(lams) == 1:
        return [fn(lams[0])]
    with ThreadPoolExecutor(max_workers=_n_workers(len(lams))) as pool:
        return list(pool.map(fn, lams))  # merged in input order


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_").lstrip("_")) is None:
            raise CliError(f"--{name} is required for this command")


def _family(args):
    if args.family is None:
        raise CliError("--family is required for this command")
    try:
        return parse_family_spec(args.family)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"bad family {args.family!r}: {exc}")


def _edge(args, fam) -> float:
    if args.b is not None:
        return args.b
    if fam is not None and fam.edge_b is not None:
        return fam.edge_b
    raise CliError("--b is required (family does not declare a spectral edge)")


# ---------------------------------------------------------------------------
# subcommand bodies (each returns an exit code)
# ---------------------------------------------------------------------------

def _cmd_bounds(args) -> int:
    _require(args, ["lambda"])
    lams = _parse_lambda(getattr(args, "lambda"))
    fam = parse_family_spec(args.family) if args.family else None
    b = _edge(args, fam)
    rows = []
    for lam in lams:
        p = BoundParams(lam=lam, b=b, delta=args.delta, eps=args.eps)
        rows.append((lam, gamma_rate(p), simplified_rate(p), p))
    if args.out or args.format == "csv":  # else stdout carries the JSON alone
        for lam, gam, simp, _ in rows:
            print(f"lambda={_fmt_complex(lam)} gamma={_fmt(gam)} "
                  f"simplified_rate={_fmt(simp)}")
    lines = [CSV_HEADER,
             f"# command=bounds b={_fmt(b)} delta={_fmt(args.delta)} "
             f"eps={_fmt(args.eps)}"]
    if fam is not None and args.N is not None:
        lines.append("lambda,index,cumulative,envelope")
        for lam, gam, _, p in rows:
            env = scalar_envelope(fam, p, args.N)
            for m in range(1, args.N + 1):
                lines.append(f"{_fmt_complex(lam)},{m},{_fmt(env.cumulative[m-1])},"
                             f"{_fmt(np.exp(-gam * env.cumulative[m-1]))}")
    else:
        lines.append("lambda,gamma,simplified_rate")
        for lam, gam, simp, _ in rows:
            lines.append(f"{_fmt_complex(lam)},{_fmt(gam)},{_fmt(simp)}")
    if args.format == "json":
        import json
        payload = [{"lambda": [r[0].real, r[0].imag], "gamma": r[1],
                    "simplified_rate": r[2]} for r in rows]
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    elif args.out:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_green(args) -> int:
    fam = _family(args)
    _require(args, ["lambda", "N"])
    lams = _parse_lambda(getattr(args, "lambda"))
    k = args.k if args.k is not None else 1
    if not 1 <= k <= args.N:
        raise CliError(f"--k must lie in 1..{args.N}")
    trunc = assemble_truncation(fam, args.N)

    def one(lam):
        return green_column(trunc, lam, k).norms()

    results = _map_lambdas(one, lams)
    grid = len(lams) > 1
    lines = [CSV_HEADER,
             f"# command=green family={fam.label} N={args.N} k={k}"]
    lines.append(("lambda,index,norm") if grid else "index,norm")
    for lam, norms in zip(lams, results):
        for j, v in enumerate(norms, start=1):
            prefix = f"{_fmt_complex(lam)}," if grid else ""
            lines.append(f"{prefix}{j},{_fmt(v)}")
    if args.format == "json":
        import json
        payload = [{"lambda": [lam.real, lam.imag], "k": k,
                    "norms": [float(v) for v in norms]}
                   for lam, norms in zip(lams, results)]
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_eigs(args) -> int:
    fam = _family(args)
    _require(args, ["N"])
    b = _edge(args, fam)
    trunc = assemble_truncation(fam, args.N)
    pairs = eigenpairs_below(trunc, b)
    lines = [CSV_HEADER,
             f"# command=eigs family={fam.label} N={args.N} b={_fmt(b)}",
             "kind,idx,eigenvalue,last_block_norm,boundary_suspect"]
    from .operator_model import offdiag_kernel_flags
    payload = {"b": b, "N": args.N, "eigenvalues": [],
               "perturbed_eigenvalues": None, "dist": None,
               "offdiag_kernel_trivial":
                   bool(all(offdiag_kernel_flags(fam, max(args.N - 1, 1))))}
    for i, pr in enumerate(pairs, start=1):
        tail = pr.block_norms(trunc.dim)[-1]
        lines.append(f"base,{i},{_fmt(pr.value)},{_fmt(tail)},"
                     f"{'true' if pr.boundary_suspect else 'false'}")
        payload["eigenvalues"].append(pr.value)
    if args.tau is not None:
        pert = perturbed_truncation(trunc, args.tau)
        ppairs = eigenpairs_below(pert, b)
        payload["perturbed_eigenvalues"] = [pr.value for pr in ppairs]
        for i, pr in enumerate(ppairs, start=1):
            tail = pr.block_norms(trunc.dim)[-1]
            lines.append(f"perturbed,{i},{_fmt(pr.value)},{_fmt(tail)},"
                         f"{'true' if pr.boundary_suspect else 'false'}")
        if pairs and ppairs:
            payload["dist"] = min(abs(pairs[0].value - pr.value)
                                  for pr in ppairs)
    if args.format == "json":
        import json
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_example(args) -> int:
    p = _family(args).params
    if not isinstance(p, StParams):
        raise CliError("example tables need --family st:s=..,t=..[,alpha=..]")
    table = args.table
    lines = [CSV_HEADER,
             f"# command=example table={table} s={_fmt(p.s)} t={_fmt(p.t)} "
             f"alpha={_fmt(p.alpha)}"]
    scalar_out = None
    if table == "phase":
        cls = phase_class(p.s, p.t)
        lines.append("s,t,st,phase")
        lines.append(f"{_fmt(p.s)},{_fmt(p.t)},{_fmt(p.s * p.t)},{cls.value}")
        scalar_out = cls.value
    elif table == "jc":
        val = jc_lower_bound(p.s, p.t)
        lines.append("s,t,lower_bound")
        lines.append(f"{_fmt(p.s)},{_fmt(p.t)},{_fmt(val)}")
        scalar_out = _fmt(val)
    elif table == "roots":
        _require(args, ["lambda", "N"])
        lam = _single_lambda(args).real
        lines.append("n," + ",".join(f"mu{i}_re,mu{i}_im" for i in range(1, 5)))
        n = 2
        ns = []
        while n <= args.N:
            ns.append(n)
            n *= 2
        if not ns or ns[-1] != args.N:
            ns.append(max(args.N, 2))
        for n in ns:
            mu = transfer_eigenvalues(p, lam, n)
            vals = ",".join(f"{_fmt(m.real)},{_fmt(m.imag)}" for m in mu)
            lines.append(f"{n},{vals}")
    elif table == "asymptotic":
        _require(args, ["lambda", "N"])
        lam = _single_lambda(args).real
        lines.append("n," + ",".join(f"mu{i}_re,mu{i}_im" for i in range(1, 5)))
        for n in sorted({max(2, args.N // 100), max(2, args.N // 10), max(2, args.N)}):
            mu = mu_asymptotic(p, lam, n)
            vals = ",".join(f"{_fmt(m.real)},{_fmt(m.imag)}" for m in mu)
            lines.append(f"{n},{vals}")
    elif table == "levinson":
        _require(args, ["lambda", "N"])
        lam = _single_lambda(args).real
        n0 = args.k if args.k is not None else 10
        lines.append("n0,n,log_product,log_closed_form,product,closed_form")
        prof = levinson_profile(p, lam, max(2, n0), args.N)
        lines.append(f"{prof.n0},{prof.n},{_fmt(prof.log_product)},"
                     f"{_fmt(prof.log_closed_form)},{_fmt(prof.product)},"
                     f"{_fmt(prof.closed_form)}")
    else:
        raise CliError(f"unknown example table {table!r} "
                       "(phase, jc, roots, asymptotic, levinson)")
    if scalar_out is not None:
        print(scalar_out)
        if args.out:
            _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    fam = _family(args)
    _require(args, ["N"])
    if args.N < 20:
        raise CliError("verification needs --N >= 20 "
                       "(boundary exclusion requires headroom)")
    b = _edge(args, fam)
    calib = _parse_calib(args.calib)
    mode = args.mode
    lam_text = getattr(args, "lambda")

    if mode == "eigenvector":
        if lam_text is not None:
            target = _single_lambda(args).real
            which = ("nearest", target)
            lam0 = min(target, b - 1.0)
        else:
            which = args.k if args.k is not None else 1
            lam0 = b - 1.0
        p = BoundParams(lam=lam0, b=b, delta=args.delta, eps=args.eps)
        reports = [verify_eigenvector_decay(fam, p, args.N, which=which,
                                            calibration=calib)]
    else:
        if lam_text is None:
            raise CliError("--lambda is required for this verification mode")
        lams = _parse_lambda(lam_text)
        for lam in lams:
            if not lam.real < b:
                raise CliError(f"Re(lambda) = {lam.real} must be below b = {b}")
        k = args.k if args.k is not None else 1
        runner = verify_commuting_decay if mode == "commuting" else verify_green_decay

        def one(lam):
            p = BoundParams(lam=lam, b=b, delta=args.delta, eps=args.eps)
            return runner(fam, p, args.N, k=k, calibration=calib)

        reports = _map_lambdas(one, lams)

    grid = len(reports) > 1
    if grid:
        body_lines = [CSV_HEADER,
                      f"# command=verify mode={mode} family={fam.label} "
                      f"N={args.N} merged={len(reports)}"]
        body_lines.append("lambda,index,measured,envelope,ratio,verdict")
        for rep in reports:
            for i in range(rep.indices.size):
                body_lines.append(
                    f"{_fmt_complex(rep.lam)},{rep.indices[i]},"
                    f"{_fmt(rep.measured[i])},{_fmt(rep.envelope[i])},"
                    f"{_fmt(rep.ratio[i])},{rep.verdicts[i]}")
        csv_text = "\n".join(body_lines) + "\n"
        import json
        json_text = json.dumps([r.summary() for r in reports],
                               sort_keys=True, indent=2) + "\n"
    else:
        csv_text = reports[0].csv_text()
        json_text = reports[0].json_text()

    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        with open(args.out + ".json", "w", encoding="utf-8", newline="") as fh:
            fh.write(json_text)
    else:
        sys.stdout.write(json_text if args.format == "json" else csv_text)
    ok = all(r.all_pass for r in reports)
    for r in reports:
        print(f"mode={r.mode} lambda={_fmt_complex(r.lam)} fitted_C={_fmt(r.fitted_C)} "
              f"pass_fraction={_fmt(r.pass_fraction)} "
              f"{'PASS' if r.all_pass else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 2


def build_parser() -> _Parser:
    ap = _Parser(prog="blockjacobi",
                 description="Decay envelopes and Green-matrix numerics for "
                             "semi-bounded block Jacobi operators.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("bounds", "decay rates and envelope tables"),
            ("green", "resolvent-column block norms"),
            ("eigs", "eigenpairs below the spectral edge"),
            ("example", "tables for the built-in 2x2 st family"),
            ("verify", "decay verification reports")]:
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--family", help="built-in spec (st:s=..,t=..[,alpha=..], "
                        "alpha defaulting to 0.6; "
                        "scalar-free; diagonal-test:adiag=..;..,bdiag=..;..) or "
                        "a JSON table path")
        sp.add_argument("--lambda", dest="lambda", metavar="LAM",
                        help="spectral parameter, scalar or start:stop:step grid")
        sp.add_argument("--b", type=float, help="essential-spectrum edge")
        sp.add_argument("--delta", type=float, default=1.0)
        sp.add_argument("--eps", type=float, default=0.1)
        sp.add_argument("--N", type=int, help="number of blocks")
        sp.add_argument("--k", type=int, help="source block index (default 1)")
        sp.add_argument("--tau", type=float, help="first-block perturbation size")
        sp.add_argument("--calib", help="calibration range lo:hi")
        sp.add_argument("--out", help="output path (verify: path prefix)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "verify":
            sp.add_argument("--mode", choices=("green", "eigenvector", "commuting"),
                            default="green")
        if name == "example":
            sp.add_argument("--table",
                            choices=("phase", "jc", "roots", "asymptotic",
                                     "levinson"),
                            default="phase")
    return ap


_DISPATCH = {
    "bounds": _cmd_bounds,
    "green": _cmd_green,
    "eigs": _cmd_eigs,
    "example": _cmd_example,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EmptySpectrumError, SingularShiftError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
