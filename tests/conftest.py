import math

import numpy as np
import pytest

from blockjacobi import (OperatorFamily, StParams, Truncation, gamma_rate,
                         psd_matfunc, st_family)
from blockjacobi.bounds import _phi_partial_sums


def random_family(seed: int, d: int, complex_entries: bool = False) -> OperatorFamily:
    """Deterministic pseudo-random family: each block derives from a per-index
    seed, so rules stay pure (same n -> bitwise-equal block)."""

    def offdiag(n: int) -> np.ndarray:
        r = np.random.default_rng((seed * 1000003 + n) % 2**63)
        A = r.standard_normal((d, d))
        if complex_entries:
            A = A + 1j * r.standard_normal((d, d))
        return A.astype(np.complex128)

    def diag(n: int) -> np.ndarray:
        r = np.random.default_rng((seed * 999983 + n) % 2**63 + 17)
        M = r.standard_normal((d, d))
        if complex_entries:
            M = M + 1j * r.standard_normal((d, d))
        return ((M + M.conj().T) / 2).astype(np.complex128)

    return OperatorFamily(d, offdiag, diag, label=f"random(seed={seed},d={d})")


def blocks_truncation(diag_blocks, offdiag_blocks) -> Truncation:
    """Read-only complex Truncation of explicit blocks B_1..B_N and
    A_1..A_{N-1}, as assemble_truncation builds it (an empty off-diagonal
    list is the N = 1 case)."""
    B = np.array(diag_blocks, dtype=np.complex128)
    A = np.array(offdiag_blocks, dtype=np.complex128).reshape(len(B) - 1, *B.shape[1:])
    B.setflags(write=False)
    A.setflags(write=False)
    return Truncation("blocks", B, A)


def commuting_weights(trunc: Truncation, p) -> np.ndarray:
    """The commuting refinement's weights W_m = exp(gamma P_m), m = 1..N, as
    verify_commuting_decay builds them for source block k = 1: P_m are the
    operator partial sums sum_{i<m} phi_delta(|A_i|), so W_1 = I."""
    gam = gamma_rate(p)
    return psd_matfunc(_phi_partial_sums(trunc, p.delta), lambda x: math.exp(gam * x))


def shift_first_block(family: OperatorFamily, shift: float) -> OperatorFamily:
    """Family with B_1 replaced by B_1 + shift * I (used to plant a deep
    bound state below the spectral edge)."""
    base = family.diag
    d = family.dim

    def diag(n: int) -> np.ndarray:
        B = np.array(base(n), dtype=np.complex128)
        if n == 1:
            B = B + shift * np.eye(d)
        return B

    return OperatorFamily(d, family.offdiag, diag, edge_b=family.edge_b,
                          label=family.label + f"+shift1({shift})")


@pytest.fixture(scope="session")
def st_critical():
    """The critical (edge at 0) 2x2 family used across the suite."""
    return st_family(StParams(2.0, 2.0, 0.6))


@pytest.fixture(scope="session")
def st_deep(st_critical):
    """Critical family with a deep well on the first block: two bound states
    near -8.09 below the edge b = 0."""
    return shift_first_block(st_critical, -10.0)
