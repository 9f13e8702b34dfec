"""Seeded workload definitions for the blockjacobi benchmark.

A workload is a fixed list of CLI invocations (one *pass*) plus the input
files they read and the facts the oracle checks need.  Seed 0 reproduces
the reference configuration exactly; any other seed jitters every lambda
grid point and the deep-well depth inside ranges that were checked to stay
resolvent-distant and all-PASS:

* grid start moves by at most 0.1 * step and the step by at most 5 %, so
  the largest lambda stays <= -0.275 while the truncation spectra start at
  +0.037 (st, N = 1500) and +0.078 (diagonal-test, N = 300); verdicts were
  checked to PASS for single lambdas out to -0.25 (green) and -0.7
  (commuting);
* the well depth moves by at most 0.5 around -10; depths -9 .. -11 all
  keep two eigenpairs below b = 0 (four with the perturbed copy) and PASS
  the eigenvector verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("verify_grid", "green_sweep", "eigs_deep")

ST = (2.0, 2.0, 0.6)
ST_SPEC = "st:s=2,t=2,alpha=0.6"
DIAG_SPEC = "diagonal-test:adiag=1;4,bdiag=2;8,aexp=0.6,bexp=0.6"
WELL_DEPTH = -10.0
TAU = 0.01


@dataclass
class Command:
    """One CLI invocation, the files it writes and how to check them."""

    argv: list
    outputs: list
    check: dict  # oracle.check spec; "items": False keeps it out of items_per_s


@dataclass
class Workload:
    name: str
    commands: list
    setup_specs: list
    warm: list

    def to_json(self) -> dict:
        return {"name": self.name, "warm": self.warm,
                "commands": [{"argv": c.argv, "outputs": c.outputs}
                             for c in self.commands]}


def st_blocks(s: float, t: float, alpha: float, N: int):
    """(diag, offdiag) stacks of the st family, built independently of the
    library: A_n = n^alpha [[0,1],[1,0]], B_n = n^alpha diag(s, t)."""
    na = np.arange(1, N + 1, dtype=float) ** alpha
    diag = np.zeros((N, 2, 2))
    diag[:, 0, 0] = s * na
    diag[:, 1, 1] = t * na
    off = np.zeros((N, 2, 2))
    off[:, 0, 1] = na
    off[:, 1, 0] = na
    return diag, off


def _grid(rng, start: float, step: float, n: int, text: str) -> str:
    """--lambda value for an n-point grid; seed 0 (rng None) keeps text."""
    if rng is None:
        return text
    start = float(start + 0.1 * step * rng.uniform(-1.0, 1.0))
    step = float(step * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)))
    stop = start + (n - 0.5) * step  # half a step past the last point
    return f"{start!r}:{stop!r}:{step!r}"


def _write_table(path: Path, diag, off) -> None:
    blocks = [{"n": n + 1, "A": [float(v) for v in off[n].ravel()],
               "B": [float(v) for v in diag[n].ravel()]}
              for n in range(diag.shape[0])]
    path.write_text(json.dumps({"dim": 2, "blocks": blocks}) + "\n",
                    encoding="utf-8")


def build(name: str, seed: int, out: Path) -> Workload:
    """Workload `name` for `seed`, with inputs written under `out`."""
    rng = None if seed == 0 else np.random.default_rng(seed)
    rel = out.as_posix()
    if name == "verify_grid":
        N = 300
        green = ["verify", "--mode", "green", "--family", ST_SPEC, "--b=0",
                 f"--N={N}", "--lambda=" + _grid(rng, -2.0, 0.5, 4, "-2:-0.5:0.5"),
                 "--out", f"{rel}/verify_green"]
        comm = ["verify", "--mode", "commuting", "--family", DIAG_SPEC, "--b=0",
                f"--N={N}", "--lambda=" + _grid(rng, -2.0, 1.0, 2, "-2:-1:1"),
                "--out", f"{rel}/verify_commuting"]
        cmds = [Command(green, [f"{rel}/verify_green.csv", f"{rel}/verify_green.json"],
                        {"kind": "verify", "points": 4}),
                Command(comm, [f"{rel}/verify_commuting.csv",
                               f"{rel}/verify_commuting.json"],
                        {"kind": "verify", "points": 2})]
        return Workload(name, cmds, [ST_SPEC, DIAG_SPEC], _warm(cmds))
    if name == "green_sweep":
        N = 1500
        argv = ["green", "--family", ST_SPEC, f"--N={N}", "--k=1",
                "--lambda=" + _grid(rng, -4.0, 0.5, 8, "-4:-0.5:0.5"),
                "--out", f"{rel}/green.csv"]
        cmds = [Command(argv, [f"{rel}/green.csv"],
                        {"kind": "green", "points": 8, "st": ST, "N": N, "k": 1})]
        return Workload(name, cmds, [ST_SPEC], _warm(cmds))
    if name == "eigs_deep":
        N = 300
        depth = WELL_DEPTH if rng is None else float(WELL_DEPTH + 0.5 * rng.uniform(-1.0, 1.0))
        diag, off = st_blocks(*ST, N)
        diag[0] += depth * np.eye(2)
        table = out / "deep_well.json"
        _write_table(table, diag, off)
        fam = table.as_posix()
        eigs = ["eigs", "--family", fam, f"--N={N}", "--b=0", f"--tau={TAU}",
                "--out", f"{rel}/eigs.csv"]
        vec = ["verify", "--mode", "eigenvector", "--family", fam, f"--N={N}",
               "--b=0", "--out", f"{rel}/verify_eigenvector"]
        cmds = [Command(eigs, [f"{rel}/eigs.csv"],
                        {"kind": "eigs", "table": fam, "b": 0.0, "tau": TAU}),
                Command(vec, [f"{rel}/verify_eigenvector.csv",
                              f"{rel}/verify_eigenvector.json"],
                        {"kind": "verify", "points": 1, "items": False})]
        return Workload(name, cmds, [fam], _warm(cmds))
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")


def _warm(cmds) -> list:
    """The pass's commands at N = 20, writing beside the real outputs: they
    import every lazily loaded module and touch each code path once."""
    warm = []
    for c in cmds:
        argv = ["--N=20" if a.startswith("--N=") else a for a in c.argv]
        i = argv.index("--out") + 1
        argv[i] = argv[i] + ".warm"
        warm.append(argv)
    return warm
