"""Block Jacobi operator families and their finite truncations.

A family is a pair of pure rules n -> A_n (off-diagonal) and n -> B_n
(diagonal, Hermitian) over 1-based indices, together with the block
dimension and an optional known edge of the essential spectrum.  Built-in
families: "st" (2x2 antidiagonal coupling with power-law growth),
"scalar-free" (the free scalar Jacobi matrix), "diagonal-test" (diagonal
blocks with per-coordinate power laws), plus explicit tables loaded from
JSON files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dense_linalg import spectral_norm, _herm_eigvals_small

__all__ = [
    "OperatorFamily",
    "Truncation",
    "block_entries",
    "assemble_truncation",
    "apply_upsilon",
    "carleman_sum",
    "offdiag_kernel_flags",
    "scalar_free_family",
    "diagonal_family",
    "table_family",
    "builtin_family",
    "parse_family_spec",
]

HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class OperatorFamily:
    """Rules for the entries of a block Jacobi matrix.

    offdiag(n) -> A_n and diag(n) -> B_n must be deterministic in n and
    defined for every n >= 1 that gets queried; diag(n) must be Hermitian.
    edge_b, when set, is the claimed infimum of the essential spectrum.
    params, when set, holds the parameters the family was built from
    (StParams for the st family).
    """

    dim: int
    offdiag: Callable[[int], np.ndarray]
    diag: Callable[[int], np.ndarray]
    edge_b: float | None = None
    label: str = ""
    params: object = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"block dimension must be >= 1, got {self.dim}")


def _check_block(M, d: int, what: str, n: int) -> np.ndarray:
    A = np.array(M, dtype=np.complex128)
    if A.shape != (d, d):
        raise ValueError(f"{what}({n}) has shape {A.shape}, expected ({d}, {d})")
    return A


def _require_hermitian(M: np.ndarray, what: str) -> None:
    m = float(np.abs(M).max())
    if m > 0 and float(np.abs(M - M.conj().T).max()) > HERMITICITY_RTOL * m:
        raise ValueError(f"{what} is not Hermitian")


def block_entries(family: OperatorFamily, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_n, B_n) with shape and hermiticity validation; n is 1-based."""
    if n < 1:
        raise ValueError(f"block index must be >= 1, got {n}")
    A = _check_block(family.offdiag(n), family.dim, "offdiag", n)
    B = _check_block(family.diag(n), family.dim, "diag", n)
    _require_hermitian(B, f"diag({n})")
    return A, B


@dataclass(frozen=True)
class Truncation:
    """N-block principal section of the operator; immutable after assembly."""

    family: OperatorFamily
    nblocks: int
    diag_blocks: tuple
    offdiag_blocks: tuple

    @property
    def dim(self) -> int:
        return self.family.dim

    @property
    def dense_dim(self) -> int:
        return self.nblocks * self.family.dim

    def dense(self) -> np.ndarray:
        """Assembled (N*d, N*d) Hermitian matrix."""
        N, d = self.nblocks, self.dim
        T = np.zeros((N * d, N * d), dtype=np.complex128)
        for k in range(N):
            T[k * d:(k + 1) * d, k * d:(k + 1) * d] = self.diag_blocks[k]
            if k < N - 1:
                T[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = self.offdiag_blocks[k]
                T[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = \
                    self.offdiag_blocks[k].conj().T
        return T

    def scale(self) -> float:
        """Magnitude scale used for relative tolerances."""
        s = max(float(np.abs(B).max()) for B in self.diag_blocks)
        if self.offdiag_blocks:
            s = max(s, max(float(np.abs(A).max()) for A in self.offdiag_blocks))
        return max(s, 1e-300)

    def block(self, x: np.ndarray, j: int) -> np.ndarray:
        """j-th block (1-based) of a stacked vector or block column."""
        d = self.dim
        return x[(j - 1) * d: j * d]


def assemble_truncation(family: OperatorFamily, N: int) -> Truncation:
    """Finite section with B_1..B_N on the diagonal and A_1..A_{N-1} above."""
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    diags = []
    offs = []
    for n in range(1, N + 1):
        A, B = block_entries(family, n)
        B.setflags(write=False)
        diags.append(B)
        if n < N:
            A.setflags(write=False)
            offs.append(A)
    return Truncation(family, N, tuple(diags), tuple(offs))


def apply_upsilon(family: OperatorFamily, u) -> np.ndarray:
    """Second-order difference expression on a finitely supported sequence.

    u is an (M, d) array (or list of M length-d vectors), M >= 2, read as
    zero-padded beyond M.  Returns the (M, d) array with rows
    B_1 u_1 + A_1 u_2 and A_{k-1}^* u_{k-1} + B_k u_k + A_k u_{k+1}.
    """
    U = np.asarray(u, dtype=np.complex128)
    if U.ndim != 2 or U.shape[1] != family.dim:
        raise ValueError(
            f"expected an (M, {family.dim}) array of block components, got {U.shape}")
    M = U.shape[0]
    if M < 2:
        raise ValueError("need at least two block components")
    out = np.zeros_like(U)
    A_prev = None
    for k in range(1, M + 1):
        A, B = block_entries(family, k)
        out[k - 1] = B @ U[k - 1]
        if k >= 2:
            out[k - 1] += A_prev.conj().T @ U[k - 2]
        if k < M:
            out[k - 1] += A @ U[k]
        A_prev = A
    return out


def carleman_sum(family: OperatorFamily, N: int) -> float:
    """Partial sum of 1/||A_m|| for m = 1..N (self-adjointness diagnostic;
    divergence as N grows indicates a self-adjoint operator).  Only the
    partial sum is reported; no limit is claimed."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    total = 0.0
    for m in range(1, N + 1):
        a = spectral_norm(block_entries(family, m)[0])
        if a == 0.0:
            raise ValueError(f"||A_{m}|| = 0: Carleman term undefined")
        total += 1.0 / a
    return total


def offdiag_kernel_flags(family: OperatorFamily, N: int) -> list[bool]:
    """True where A_n has numerically trivial kernel (smallest singular value
    above 1e-12 * ||A_n||).  Reported, not enforced."""
    flags = []
    for n in range(1, N + 1):
        A = block_entries(family, n)[0]
        m = float(np.abs(A).max())
        if m == 0.0:
            flags.append(False)
            continue
        B = A / m
        ev = _herm_eigvals_small(B.conj().T @ B)
        smin = m * float(np.sqrt(max(ev[0], 0.0)))
        flags.append(smin > 1e-12 * spectral_norm(A))
    return flags


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def scalar_free_family() -> OperatorFamily:
    """d = 1, A_n = 1, B_n = 0; spectrum [-2, 2], so edge_b = -2."""
    one = np.array([[1.0 + 0.0j]])
    zero = np.array([[0.0 + 0.0j]])
    return OperatorFamily(1, lambda n: one.copy(), lambda n: zero.copy(),
                          edge_b=-2.0, label="scalar-free")


def diagonal_family(adiag, bdiag, aexp: float = 0.0, bexp: float = 0.0,
                    edge_b: float | None = None,
                    label: str | None = None) -> OperatorFamily:
    """A_n = diag(adiag) * n^aexp, B_n = diag(bdiag) * n^bexp.

    All blocks are diagonal, so the family commutes pairwise and decouples
    into len(adiag) scalar Jacobi problems.
    """
    a = np.asarray(adiag, dtype=float)
    b = np.asarray(bdiag, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("adiag and bdiag must be 1-d and of equal length")
    if label is None:
        label = f"diagonal-test(adiag={list(a)},bdiag={list(b)},aexp={aexp},bexp={bexp})"

    def offdiag(n: int) -> np.ndarray:
        return np.diag(a * float(n) ** aexp).astype(np.complex128)

    def diag(n: int) -> np.ndarray:
        return np.diag(b * float(n) ** bexp).astype(np.complex128)

    return OperatorFamily(a.size, offdiag, diag, edge_b=edge_b, label=label)


def _parse_entry(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValueError(f"matrix entry must be a number or an [re, im] pair, got {v!r}")


def table_family(source) -> OperatorFamily:
    """Family from an explicit JSON table.

    Schema: {"dim": d, "blocks": [{"n": k, "A": [...], "B": [...]}, ...],
    "edge_b": optional}.  A and B are row-major length-d^2 lists whose
    entries are real numbers or [re, im] pairs.  Querying an index that is
    not in the table is an error.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "read"):
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        label = f"table:{source}" if isinstance(source, str) else "table"
    else:
        data = source
        label = "table"
    try:
        d = int(data["dim"])
        raw_blocks = data["blocks"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed family table: missing {exc}") from exc
    table: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for rec in raw_blocks:
        n = int(rec["n"])
        A = np.array([_parse_entry(v) for v in rec["A"]], dtype=np.complex128)
        B = np.array([_parse_entry(v) for v in rec["B"]], dtype=np.complex128)
        if A.size != d * d or B.size != d * d:
            raise ValueError(f"table block n={n}: expected {d * d} entries")
        A = A.reshape(d, d)
        B = B.reshape(d, d)
        _require_hermitian(B, f"table diag({n})")
        table[n] = (A, B)

    def offdiag(n: int) -> np.ndarray:
        if n not in table:
            raise ValueError(f"family table has no block n={n}")
        return table[n][0].copy()

    def diag(n: int) -> np.ndarray:
        if n not in table:
            raise ValueError(f"family table has no block n={n}")
        return table[n][1].copy()

    edge = data.get("edge_b")
    return OperatorFamily(d, offdiag, diag,
                          edge_b=None if edge is None else float(edge),
                          label=label)


def builtin_family(name: str, **params) -> OperatorFamily:
    """Resolve a built-in family by name: st | scalar-free | diagonal-test."""
    if name == "scalar-free":
        if params:
            raise ValueError("scalar-free takes no parameters")
        return scalar_free_family()
    if name == "st":
        from .st_family import StParams, st_family
        try:
            p = StParams(float(params.pop("s")), float(params.pop("t")),
                         float(params.pop("alpha", 0.6)))
        except KeyError as exc:
            raise ValueError(f"st family needs parameter {exc}") from exc
        if params:
            raise ValueError(f"unknown st parameters: {sorted(params)}")
        return st_family(p)
    if name == "diagonal-test":
        try:
            adiag = params.pop("adiag")
            bdiag = params.pop("bdiag")
        except KeyError as exc:
            raise ValueError(f"diagonal-test needs parameter {exc}") from exc
        aexp = float(params.pop("aexp", 0.0))
        bexp = float(params.pop("bexp", 0.0))
        edge = params.pop("edge_b", None)
        if params:
            raise ValueError(f"unknown diagonal-test parameters: {sorted(params)}")
        if np.isscalar(adiag):
            adiag = [adiag]
        if np.isscalar(bdiag):
            bdiag = [bdiag]
        return diagonal_family(adiag, bdiag, aexp, bexp,
                               edge_b=None if edge is None else float(edge))
    raise ValueError(f"unknown family {name!r} "
                     "(built-ins: st, scalar-free, diagonal-test)")


def parse_family_spec(spec: str) -> OperatorFamily:
    """CLI family syntax.

    "scalar-free", "st:s=2,t=2,alpha=0.6",
    "diagonal-test:adiag=1;4,bdiag=2;8,aexp=0.6,bexp=0.6",
    or the path of a JSON table file (anything ending in .json).
    Semicolons separate vector components inside one key=value item.
    """
    spec = spec.strip()
    if spec.endswith(".json"):
        return table_family(spec)
    name, _, rest = spec.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            if not item:
                continue
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed family parameter {item!r}")
            if ";" in val:
                params[key.strip()] = [float(v) for v in val.split(";")]
            else:
                try:
                    params[key.strip()] = float(val)
                except ValueError as exc:
                    raise ValueError(f"malformed family parameter {item!r}") from exc
    return builtin_family(name, **params)
