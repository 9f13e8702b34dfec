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
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dense_linalg import block_scale, spectral_norm, _sigma_min

__all__ = [
    "OperatorFamily",
    "Truncation",
    "block_entries",
    "assemble_truncation",
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
    if not math.isfinite(m):
        raise ValueError(f"{what} has non-finite entries")
    if m > 0 and float(np.abs(M - M.conj().T).max()) > HERMITICITY_RTOL * m:
        raise ValueError(f"{what} is not Hermitian")


def block_entries(family: OperatorFamily, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_n, B_n) with shape, finiteness and hermiticity checks; 1-based n."""
    if n < 1:
        raise ValueError(f"block index must be >= 1, got {n}")
    A = _check_block(family.offdiag(n), family.dim, "offdiag", n)
    if not np.isfinite(A).all():
        raise ValueError(f"offdiag({n}) has non-finite entries")
    B = _check_block(family.diag(n), family.dim, "diag", n)
    _require_hermitian(B, f"diag({n})")
    return A, B


@dataclass(frozen=True)
class Truncation:
    """N-block principal section of the operator; immutable after assembly.

    label names the operator in reports.  diag_blocks holds B_1..B_N as an
    (N, d, d) array and offdiag_blocks A_1..A_{N-1} as an (N-1, d, d) array,
    both complex128 and read-only; N and d are read from them.
    """

    label: str
    diag_blocks: np.ndarray
    offdiag_blocks: np.ndarray

    @property
    def nblocks(self) -> int:
        return self.diag_blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.diag_blocks.shape[1]

    @property
    def dense_dim(self) -> int:
        return self.nblocks * self.dim

    def scale(self) -> float:
        """Magnitude scale used for relative tolerances."""
        return block_scale(self.diag_blocks, self.offdiag_blocks)


def assemble_truncation(family: OperatorFamily, N: int) -> Truncation:
    """Finite section with B_1..B_N on the diagonal and A_1..A_{N-1} above."""
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    d = family.dim
    diags = np.empty((N, d, d), dtype=np.complex128)
    offs = np.empty((N - 1, d, d), dtype=np.complex128)
    for n in range(1, N + 1):
        A, B = block_entries(family, n)
        diags[n - 1] = B
        if n < N:
            offs[n - 1] = A
    diags.setflags(write=False)
    offs.setflags(write=False)
    return Truncation(family.label, diags, offs)


def offdiag_kernel_flags(trunc: Truncation) -> list[bool]:
    """True where the coupling A_n, n = 1..N-1, of the truncation has
    numerically trivial kernel (smallest singular value above 1e-12 *
    ||A_n||).  Reported, not enforced."""
    A = trunc.offdiag_blocks
    return [_sigma_min(An) > 1e-12 * nrm
            for An, nrm in zip(A, spectral_norm(A).tolist())]


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
                    edge_b: float | None = None) -> OperatorFamily:
    """A_n = diag(adiag) * n^aexp, B_n = diag(bdiag) * n^bexp.

    All blocks are diagonal, so the family commutes pairwise and decouples
    into len(adiag) scalar Jacobi problems.
    """
    a = np.asarray(adiag, dtype=float)
    b = np.asarray(bdiag, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("adiag and bdiag must be 1-d and of equal length")
    label = f"diagonal-test(adiag={list(a)},bdiag={list(b)},aexp={aexp},bexp={bexp})"

    def offdiag(n: int) -> np.ndarray:
        return np.diag(a * float(n) ** aexp).astype(np.complex128)

    def diag(n: int) -> np.ndarray:
        return np.diag(b * float(n) ** bexp).astype(np.complex128)

    return OperatorFamily(a.size, offdiag, diag, edge_b=edge_b, label=label)


def _parse_entry(v) -> complex:
    """A number or an [re, im] pair of numbers; a bool, a string or an
    integer beyond the float range is not one."""
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
    try:
        if all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in parts):
            return complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        pass
    raise ValueError(f"matrix entry must be a number or an [re, im] pair, got {v!r}")


def _table_int(v, what: str) -> int:
    """A table field that must be an integer (an integral float counts)."""
    if isinstance(v, bool) or not (isinstance(v, int)
                                   or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"malformed family table: {what} = {v!r}, expected an integer")
    return int(v)


def _table_edge(v) -> float:
    """The optional edge_b field: a finite number (a bool is not one)."""
    if isinstance(v, bool) or not (isinstance(v, (int, float))
                                   and abs(v) <= sys.float_info.max):
        raise ValueError(
            f"malformed family table: edge_b = {v!r}, expected a finite number")
    return float(v)


def table_family(path) -> OperatorFamily:
    """Family from the JSON table file at `path`.

    Schema: {"dim": d, "blocks": [{"n": k, "A": [...], "B": [...]}, ...],
    "edge_b": optional}.  A and B are row-major length-d^2 lists whose
    entries are real numbers or [re, im] pairs.  Querying an index that is
    not in the table is an error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"malformed family table: the document is a "
                         f"{type(data).__name__}, expected an object")
    try:
        d = _table_int(data["dim"], "dim")
        raw_blocks = data["blocks"]
    except KeyError as exc:
        raise ValueError(f"malformed family table: missing {exc}") from exc
    if not isinstance(raw_blocks, list):
        raise ValueError("malformed family table: blocks must be a list")
    table: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, rec in enumerate(raw_blocks, start=1):
        if not isinstance(rec, dict):
            raise ValueError(f"malformed family table: block record {i} is not an object")
        try:
            n, raw_A, raw_B = rec["n"], rec["A"], rec["B"]
        except KeyError as exc:
            raise ValueError(
                f"malformed family table: block record {i} missing {exc}") from exc
        n = _table_int(n, f"block record {i} n")
        if not all(isinstance(v, (list, tuple)) for v in (raw_A, raw_B)):
            raise ValueError(
                f"malformed family table: block record {i} A and B must be lists")
        if n in table:
            raise ValueError(f"family table repeats block n={n}")
        A = np.array([_parse_entry(v) for v in raw_A], dtype=np.complex128)
        B = np.array([_parse_entry(v) for v in raw_B], dtype=np.complex128)
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
                          edge_b=None if edge is None else _table_edge(edge),
                          label=f"table:{path}")


def _pop_scalar(params: dict, key: str, *default):
    """Pop a scalar family parameter as a float (KeyError when it is missing
    without a default); a vector value is an input error."""
    value = params.pop(key, *default)
    if np.ndim(value) != 0:
        raise ValueError(f"family parameter {key} takes one number, "
                         f"got {np.size(value)} values")
    return None if value is None else float(value)


def builtin_family(name: str, **params) -> OperatorFamily:
    """Resolve a built-in family by name: st | scalar-free | diagonal-test."""
    if name == "scalar-free":
        if params:
            raise ValueError("scalar-free takes no parameters")
        return scalar_free_family()
    if name == "st":
        from .st_family import StParams, st_family
        try:
            p = StParams(_pop_scalar(params, "s"), _pop_scalar(params, "t"),
                         _pop_scalar(params, "alpha", 0.6))
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
        aexp = _pop_scalar(params, "aexp", 0.0)
        bexp = _pop_scalar(params, "bexp", 0.0)
        edge = _pop_scalar(params, "edge_b", None)
        if params:
            raise ValueError(f"unknown diagonal-test parameters: {sorted(params)}")
        if np.isscalar(adiag):
            adiag = [adiag]
        if np.isscalar(bdiag):
            bdiag = [bdiag]
        return diagonal_family(adiag, bdiag, aexp, bexp, edge_b=edge)
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
