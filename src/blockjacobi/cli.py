"""Command-line front end.

Subcommands: bounds (rates and envelope tables), green (resolvent-column
norms), eigs (eigenpairs below the edge, optionally after the rank-one
perturbation), example (tables for the built-in 2x2 st family), verify
(decay verification reports).  Each subcommand accepts exactly the flags
it reads, listed in one table (`_COMMANDS`, over the flag table `_FLAGS`);
a flag that another flag's value leaves unread (bounds --N without the
envelope table, example --k outside levinson, example --lambda or --N
with the phase or jc table, verify --mode eigenvector with both --lambda
and --k) is an input error too.

Exit status: 0 on success with all verdicts passing, 2 when a verification
verdict fails, 1 on input errors (a flag the subcommand does not read, a
missing required flag, unknown family, malformed file, parameter-domain
violations).  Identical configurations produce
bitwise-identical report files; floats are rendered with 17 significant
digits.  A command that needs blocks reads the family once, into one
truncation that everything after it reads; verify assembles it after
checking its parameters.  Lambda grids are reported in input order; a
green or verify grid shares one shift-batched block factor and solve (one
lambda is the S = 1 case), a verify grid also one spectral query and
commutation check.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import BoundParams, gamma_rate, scalar_envelope, simplified_rate
from .dense_linalg import SingularShiftError, vector_norm
from .green_spectral import (CSV_HEADER, REPORT_COLUMNS, eigenpairs_below,
                             green_column, perturbed_truncation,
                             verify_commuting_decay, verify_eigenvector_decay,
                             verify_green_decay, _fmt, _fmt_complex)
from .operator_model import (assemble_truncation, offdiag_kernel_flags,
                             parse_family_spec)
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


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"--{name} is required for this command")


def _family(args):
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
    # --N sizes the envelope table, which only a CSV --out receives
    if args.N is not None and not (args.family and args.out and args.format == "csv"):
        raise CliError("--N sets the envelope table, which needs --family "
                       "and a CSV --out")
    lams = _parse_lambda(getattr(args, "lambda"))
    fam = _family(args) if args.family else None
    b = _edge(args, fam)
    rows = []
    for lam in lams:
        p = BoundParams(lam=lam, b=b, delta=args.delta, eps=args.eps)
        rows.append((lam, gamma_rate(p), simplified_rate(p), p))
    if args.out or args.format == "csv":  # else stdout carries the JSON alone
        for lam, gam, simp, _ in rows:
            print(f"lambda={_fmt_complex(lam)} gamma={_fmt(gam)} "
                  f"simplified_rate={_fmt(simp)}")
    if args.format == "json":
        payload = [{"lambda": [r[0].real, r[0].imag], "gamma": r[1],
                    "simplified_rate": r[2]} for r in rows]
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    elif args.out:
        lines = [CSV_HEADER,
                 f"# command=bounds b={_fmt(b)} delta={_fmt(args.delta)} "
                 f"eps={_fmt(args.eps)}"]
        if args.N is not None:
            # S_m depends on delta alone, so one envelope serves every lambda
            S = scalar_envelope(assemble_truncation(fam, args.N), rows[0][3]).cumulative
            lines.append("lambda,index,cumulative,envelope")
            for lam, gam, _, _ in rows:
                for m in range(1, args.N + 1):
                    lines.append(f"{_fmt_complex(lam)},{m},{_fmt(S[m-1])},"
                                 f"{_fmt(np.exp(-gam * S[m-1]))}")
        else:
            lines.append("lambda,gamma,simplified_rate")
            for lam, gam, simp, _ in rows:
                lines.append(f"{_fmt_complex(lam)},{_fmt(gam)},{_fmt(simp)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_green(args) -> int:
    fam = _family(args)
    lams = _parse_lambda(getattr(args, "lambda"))
    k = args.k if args.k is not None else 1
    if not 1 <= k <= args.N:
        raise CliError(f"--k must lie in 1..{args.N}")
    trunc = assemble_truncation(fam, args.N)
    results = [col.norms() for col in green_column(trunc, lams, k)]
    grid = len(lams) > 1
    lines = [CSV_HEADER,
             f"# command=green family={fam.label} N={args.N} k={k}",
             "lambda,index,norm" if grid else "index,norm"]
    lines.extend(f"{_fmt_complex(lam) + ',' if grid else ''}{j},{_fmt(v)}"
                 for lam, norms in zip(lams, results)
                 for j, v in enumerate(norms, start=1))
    if args.format == "json":
        payload = [{"lambda": [lam.real, lam.imag], "k": k,
                    "norms": [float(v) for v in norms]}
                   for lam, norms in zip(lams, results)]
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_eigs(args) -> int:
    fam = _family(args)
    b = _edge(args, fam)
    trunc = assemble_truncation(fam, args.N)
    pairs = eigenpairs_below(trunc, b)
    lines = [CSV_HEADER,
             f"# command=eigs family={fam.label} N={args.N} b={_fmt(b)}",
             "kind,idx,eigenvalue,last_block_norm,boundary_suspect"]
    payload = {"b": b, "N": args.N, "perturbed_eigenvalues": None, "dist": None}

    def rows(kind, prs):
        for i, pr in enumerate(prs, start=1):
            tail = vector_norm(pr.vector[-trunc.dim:])
            lines.append(f"{kind},{i},{_fmt(pr.value)},{_fmt(tail)},"
                         f"{'true' if pr.boundary_suspect else 'false'}")

    rows("base", pairs)
    payload["eigenvalues"] = [pr.value for pr in pairs]
    if args.tau is not None:
        ppairs = eigenpairs_below(perturbed_truncation(trunc, args.tau), b)
        payload["perturbed_eigenvalues"] = [pr.value for pr in ppairs]
        rows("perturbed", ppairs)
        if pairs and ppairs:
            payload["dist"] = min(abs(pairs[0].value - pr.value)
                                  for pr in ppairs)
    if args.format == "json":
        payload["offdiag_kernel_trivial"] = bool(all(offdiag_kernel_flags(trunc)))
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_example(args) -> int:
    p = _family(args).params
    if not isinstance(p, StParams):
        raise CliError("example tables need --family st:s=..,t=..[,alpha=..]")
    table = args.table
    if args.k is not None and table != "levinson":
        raise CliError(f"--k is read only by --table=levinson, not {table}")
    if table in ("phase", "jc") and (getattr(args, "lambda") is not None
                                     or args.N is not None):
        raise CliError(f"--table={table} reads neither --lambda nor --N")
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
    elif table in ("roots", "asymptotic"):
        _require(args, ["lambda", "N"])
        lam = _single_lambda(args).real
        lines.append("n," + ",".join(f"mu{i}_re,mu{i}_im" for i in range(1, 5)))
        if table == "roots":  # exact roots at n = 2, 4, 8, ... and at N
            mus, ns, n = transfer_eigenvalues, [], 2
            while n <= args.N:
                ns.append(n)
                n *= 2
            if not ns or ns[-1] != args.N:
                ns.append(args.N)
        else:
            mus = mu_asymptotic
            ns = sorted({max(2, args.N // 100), max(2, args.N // 10), args.N})
        for n in ns:
            vals = ",".join(f"{_fmt(m.real)},{_fmt(m.imag)}" for m in mus(p, lam, n))
            lines.append(f"{n},{vals}")
    elif table == "levinson":
        _require(args, ["lambda", "N"])
        lam = _single_lambda(args).real
        n0 = args.k if args.k is not None else 10
        lines.append("n0,n,log_product,log_closed_form,product,closed_form")
        prof = levinson_profile(p, lam, n0, args.N)
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
    if args.N < 20:
        raise CliError("verification needs --N >= 20 "
                       "(boundary exclusion requires headroom)")
    b = _edge(args, fam)
    calib = _parse_calib(args.calib)
    mode = args.mode
    lam_text = getattr(args, "lambda")

    if mode == "eigenvector":
        if lam_text is not None and args.k is not None:
            raise CliError("--lambda and --k both select the eigenvalue in "
                           "eigenvector mode; give one")
        if lam_text is not None:
            target = _single_lambda(args).real
            which = ("nearest", target)
            lam0 = min(target, b - 1.0)
        else:
            which = args.k if args.k is not None else 1
            lam0 = b - 1.0
        p = BoundParams(lam=lam0, b=b, delta=args.delta, eps=args.eps)
        reports = [verify_eigenvector_decay(assemble_truncation(fam, args.N), p,
                                            which=which, calibration=calib)]
    else:
        if lam_text is None:
            raise CliError("--lambda is required for this verification mode")
        grid = [BoundParams(lam=lam, b=b, delta=args.delta, eps=args.eps)
                for lam in _parse_lambda(lam_text)]
        runner = verify_commuting_decay if mode == "commuting" else verify_green_decay
        reports = runner(assemble_truncation(fam, args.N), grid,
                         k=args.k if args.k is not None else 1, calibration=calib)

    if len(reports) > 1:
        body_lines = [CSV_HEADER,
                      f"# command=verify mode={mode} family={fam.label} "
                      f"N={args.N} merged={len(reports)}",
                      "lambda," + REPORT_COLUMNS]
        for rep in reports:
            lam = _fmt_complex(rep.lam)
            body_lines.extend(f"{lam},{row}" for row in rep.csv_rows())
        csv_text = "\n".join(body_lines) + "\n"
        json_text = json.dumps([r.summary() for r in reports],
                               sort_keys=True, indent=2) + "\n"
    else:
        csv_text = reports[0].csv_text()
        json_text = reports[0].json_text()

    if args.out:
        _emit(csv_text, args.out + ".csv")
        _emit(json_text, args.out + ".json")
    else:
        _emit(json_text if args.format == "json" else csv_text, None)
    for r in reports:
        print(f"mode={r.mode} lambda={_fmt_complex(r.lam)} fitted_C={_fmt(r.fitted_C)} "
              f"pass_fraction={_fmt(r.pass_fraction)} "
              f"{'PASS' if r.all_pass else 'FAIL'}", file=sys.stderr)
    return 0 if all(r.all_pass for r in reports) else 2


_FLAGS = {
    "family": dict(help="built-in spec (st:s=..,t=..[,alpha=..], alpha defaulting "
                        "to 0.6; scalar-free; diagonal-test:adiag=..;..,bdiag=..;..) "
                        "or a JSON table path"),
    "lambda": dict(metavar="LAM",
                   help="spectral parameter, scalar or start:stop:step grid"),
    "b": dict(type=float, help="essential-spectrum edge"),
    "delta": dict(type=float, default=1.0),
    "eps": dict(type=float, default=0.1),
    "N": dict(type=int, help="number of blocks"),
    "k": dict(type=int, help="source block index (default 1)"),
    "tau": dict(type=float, help="first-block perturbation size"),
    "calib": dict(help="calibration range lo:hi"),
    "out": dict(help="output path (verify: path prefix)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "mode": dict(choices=("green", "eigenvector", "commuting"), default="green"),
    "table": dict(choices=("phase", "jc", "roots", "asymptotic", "levinson"),
                  default="phase"),
}

# each subcommand accepts exactly the flags it reads; "!" marks a required one
_COMMANDS = {
    "bounds": ("decay rates and envelope tables",
               "family lambda! b delta eps N out format"),
    "green": ("resolvent-column block norms", "family! lambda! N! k out format"),
    "eigs": ("eigenpairs below the spectral edge", "family! N! b tau out format"),
    "example": ("tables for the built-in 2x2 st family",
                "family! table lambda N k out"),
    "verify": ("decay verification reports",
               "family! mode lambda b delta eps N! k calib out format"),
}


def build_parser() -> _Parser:
    ap = _Parser(prog="blockjacobi",
                 description="Decay envelopes and Green-matrix numerics for "
                             "semi-bounded block Jacobi operators.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (helptext, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        for flag in flags.split():
            key = flag.rstrip("!")
            sp.add_argument(f"--{key}", required=flag.endswith("!"), **_FLAGS[key])
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
    except (CliError, SingularShiftError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
