"""Output checks for one benchmark pass, independent of the library.

Each check reads the report files a CLI invocation wrote and returns
(problems, items): a list of human-readable failures (empty when the output
is correct) and the number of work items the output delivers.  The dense
references rebuild the operator from its definition with numpy only.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import st_blocks

# green: dense solves lose relative accuracy on blocks far below the column
# maximum, so only blocks above this share of it are compared
GREEN_FLOOR = 1e-10
GREEN_RTOL = 1e-9
# eigs: the suite's bisection tolerance, 1e-13 * max(1, |lo|, |hi|)
EIG_RTOL = 1e-13


def dense(diag, off) -> np.ndarray:
    N, d = diag.shape[0], diag.shape[1]
    T = np.zeros((N * d, N * d), dtype=np.result_type(diag, off))
    for k in range(N):
        T[k * d:(k + 1) * d, k * d:(k + 1) * d] = diag[k]
        if k < N - 1:
            T[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = off[k]
            T[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = off[k].conj().T
    return T


def check(spec: dict, outputs: list) -> tuple[list, int]:
    kind = spec["kind"]
    if kind == "verify":
        return check_verify(spec, Path(outputs[1]))
    if kind == "green":
        return check_green(spec, Path(outputs[0]))
    if kind == "eigs":
        return check_eigs(spec, Path(outputs[0]))
    raise ValueError(f"unknown check {kind!r}")


def check_verify(spec: dict, path: Path) -> tuple[list, int]:
    """Every lambda's summary says all_pass."""
    data = json.loads(path.read_text(encoding="utf-8"))
    reports = data if isinstance(data, list) else [data]
    problems = [f"{path.name}: lambda={r['lambda']} verdict FAIL"
                for r in reports if r.get("all_pass") is not True]
    if len(reports) != spec["points"]:
        problems.append(f"{path.name}: {len(reports)} reports, "
                        f"expected {spec['points']}")
    return problems, len(reports)


def _csv_rows(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [ln.split(",") for ln in lines[3:]]  # header, comment, column names


def check_green(spec: dict, path: Path) -> tuple[list, int]:
    """Block norms ||G_{j,k}(lambda)|| against a dense numpy.linalg.solve."""
    rows = _csv_rows(path)
    diag, off = st_blocks(*spec["st"], spec["N"])
    T = dense(diag, off)
    d, k = diag.shape[1], spec["k"]
    rhs = np.zeros((T.shape[0], d))
    rhs[(k - 1) * d:k * d] = np.eye(d)
    lams = list(dict.fromkeys(r[0] for r in rows))
    problems = []
    for text in lams:
        lam = float(text)
        got = np.array([float(r[2]) for r in rows if r[0] == text])
        X = np.linalg.solve(T - lam * np.eye(T.shape[0]), rhs)
        ref = np.linalg.norm(X.reshape(-1, d, d), ord=2, axis=(1, 2))
        if got.size != ref.size:
            problems.append(f"lambda={text}: {got.size} blocks, expected {ref.size}")
            continue
        keep = ref >= GREEN_FLOOR * ref.max()
        err = np.abs(got[keep] - ref[keep]) / ref[keep]
        if not err.max() <= GREEN_RTOL:
            problems.append(f"lambda={text}: block norm relative error "
                            f"{err.max():.3e} > {GREEN_RTOL:.0e}")
    if len(lams) != spec["points"]:
        problems.append(f"{len(lams)} lambda points, expected {spec['points']}")
    return problems, len(lams)


def check_eigs(spec: dict, path: Path) -> tuple[list, int]:
    """Base and perturbed eigenvalues below b against numpy.linalg.eigvalsh."""
    table = json.loads(Path(spec["table"]).read_text(encoding="utf-8"))
    d = table["dim"]
    diag = np.array([b["B"] for b in table["blocks"]], dtype=float).reshape(-1, d, d)
    off = np.array([b["A"] for b in table["blocks"]], dtype=float).reshape(-1, d, d)
    rows = _csv_rows(path)
    problems = []
    for kind, shift in (("base", 0.0), ("perturbed", spec["tau"])):
        T = dense(diag, off)
        T[:d, :d] += shift * np.eye(d)
        ev = np.linalg.eigvalsh(T)
        want = ev[ev < spec["b"]]
        got = np.array([float(r[2]) for r in rows if r[0] == kind])
        tol = EIG_RTOL * max(1.0, abs(ev[0]), abs(ev[-1]))
        if got.size != want.size:
            problems.append(f"{kind}: {got.size} eigenvalues below b, "
                            f"eigvalsh has {want.size}")
        elif want.size and not np.abs(got - want).max() <= tol:
            problems.append(f"{kind}: eigenvalue error "
                            f"{np.abs(got - want).max():.3e} > {tol:.3e}")
    if not rows:
        problems.append("no eigenpairs below b")
    return problems, len(rows)
