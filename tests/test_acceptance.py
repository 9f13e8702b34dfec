"""End-to-end acceptance checks.

Each test evaluates one criterion at its stated tolerance and prints a
single pass/fail line (run with `pytest -s` to see the lines stream).
Expensive pipeline runs are shared through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

import blockjacobi as bj
from blockjacobi import (BoundParams, StParams, assemble_truncation,
                         diagonal_family, eigenpairs_below, gamma_rate,
                         green_column, mu_asymptotic, perturbed_truncation,
                         phase_class, psi, psi_inv, scalar_envelope,
                         scalar_free_family, spectral_norm, st_family,
                         transfer_eigenvalues, tridiag_kth_eigenvalue,
                         verify_commuting_decay, verify_eigenvector_decay,
                         verify_green_decay)
from blockjacobi.st_family import PhaseClass

from conftest import commuting_weights, random_family, shift_first_block
from reference_kernels import constant_st_family, transfer_matrix

GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def st06():
    return st_family(StParams(2.0, 2.0, 0.6))


@pytest.fixture(scope="module")
def st06_deep(st06):
    return shift_first_block(st06, -10.0)


@pytest.fixture(scope="module")
def green_report_st(st06):
    p = BoundParams(lam=-1.0, b=0.0, delta=1.0, eps=0.1)
    return verify_green_decay(assemble_truncation(st06, 300), p, k=1, calibration=(1, 10))


@pytest.fixture(scope="module")
def eigvec_report_deep(st06_deep):
    p = BoundParams(lam=-1.0, b=0.0, delta=1.0, eps=0.1)
    return verify_eigenvector_decay(assemble_truncation(st06_deep, 300), p, which=1)


def test_c01_psi_roundtrip():
    worst = 0.0
    for x in np.linspace(0.0, 20.0, 1000):
        t = psi(x)
        worst = max(worst, abs(psi(psi_inv(t)) - t) / max(t, 1.0))
    anchors = (abs(psi_inv(math.e) - 1.0) <= 1e-12
               and abs(psi_inv(4 * math.e ** 2) - 2.0) <= 1e-12)
    report("psi/psi-inverse roundtrip", worst <= 1e-12 and anchors,
           f"max rel err {worst:.2e}")


def test_c02_linear_algebra_oracles():
    rng = np.random.default_rng(2024)
    worst_solve = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(2, 51))
        fam = random_family(int(rng.integers(1, 10**6)), d)
        tr = assemble_truncation(fam, N)
        lam = complex(-6 + rng.standard_normal(), -1 + 0.3 * rng.standard_normal())
        rhs = rng.standard_normal((N * d, 2)) + 1j * rng.standard_normal((N * d, 2))
        X = bj.block_tridiag_factor(tr, lam).solve(rhs)
        Xd = np.linalg.solve(tr.dense() - lam * np.eye(N * d), rhs)
        worst_solve = max(worst_solve, float(np.abs(X - Xd).max() / np.abs(Xd).max()))
    worst_eig = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 41))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (M + M.conj().T) / 2
        dec = bj.hermitian_eig(H)
        resid = np.linalg.norm(H @ dec.vectors - dec.vectors * dec.values, axis=0)
        worst_eig = max(worst_eig, float(resid.max() / np.linalg.norm(H, 2)))
    report("linear-algebra oracles",
           worst_solve <= 1e-8 and worst_eig <= 1e-10,
           f"solve rel {worst_solve:.2e}, eig resid {worst_eig:.2e}")


def test_c03_scalar_free_jacobi_oracle():
    p = BoundParams(lam=-3.0, b=-2.0, delta=1.0, eps=0.1)
    rep = verify_green_decay(assemble_truncation(scalar_free_family(), 400), p, k=1)
    g11_ok = abs(rep.measured[0] - GOLDEN) <= 1e-4
    rates = -np.log(rep.measured[50:200] / rep.measured[49:199])
    rate_ok = np.abs(rates - 0.9624).max() <= 1e-3
    gamma_ok = rep.gamma < 0.9624
    report("scalar free Jacobi oracle",
           g11_ok and rate_ok and gamma_ok and rep.all_pass,
           f"G11 err {abs(rep.measured[0] - GOLDEN):.1e}, "
           f"rate in [{rates.min():.5f}, {rates.max():.5f}], gamma {rep.gamma:.4f}")


def test_c04_resolvent_adjoint_symmetry():
    lam = -2.0 - 1.0j
    worst = 0.0
    for seed, d in ((11, 1), (12, 2), (13, 3)):
        tr = assemble_truncation(random_family(seed, d), 60)
        for k, j in ((1, 17), (5, 40), (23, 2)):
            col_k = green_column(tr, lam, k)
            col_j = green_column(tr, np.conj(lam), j)
            diff = col_k.blocks[j - 1].conj().T - col_j.blocks[k - 1]
            worst = max(worst, spectral_norm(diff))
    report("resolvent adjoint symmetry", worst <= 1e-8, f"max dev {worst:.2e}")


def test_c05_green_decay_verification(green_report_st):
    rep = green_report_st
    window = [rep.verdicts[j - 1] for j in range(10, 271)]
    ok = all(v == "pass" for v in window) and rep.calibration == (1, 10)
    report("decay-envelope verification (antidiagonal 2x2 family)", ok,
           f"pass fraction {rep.pass_fraction:.3f}, C {rep.fitted_C:.4g}")


def test_c06_sharpness_heuristic(green_report_st, st06):
    rep = green_report_st
    env = scalar_envelope(assemble_truncation(st06, 300),
                          BoundParams(lam=-1.0, b=0.0, delta=1.0, eps=0.1))
    # delta = 1 <= min ||A_k|| = 1, so every step weight is k^(-alpha/2) exactly
    S = env.cumulative
    ratios = np.array([-np.log(rep.measured[n - 1]) / S[n - 1]
                       for n in range(150, 251)])
    ok = np.all(ratios >= 0.85) and np.all(ratios <= 1.15)
    report("measured-rate sharpness", bool(ok),
           f"rate/envelope-sum in [{ratios.min():.4f}, {ratios.max():.4f}], "
           "target band [0.85, 1.15]")


def test_c07_eigenvector_decay(eigvec_report_deep, st06_deep):
    rep = eigvec_report_deep
    window = [rep.verdicts[m - 1] for m in range(1, 271)]
    decay_ok = all(v == "pass" for v in window)
    lam0 = rep.meta["eigenvalue"]
    # diagonal-shift covariance: B_n -> B_n + cI with (lambda, b) -> (+c, +c)
    c = 3.0
    shifted_diag = st06_deep.diag

    def diag(n):
        return np.array(shifted_diag(n)) + c * np.eye(2)

    fam_c = bj.OperatorFamily(2, st06_deep.offdiag, diag, label="shifted")
    p_c = BoundParams(lam=-1.0 + c, b=0.0 + c, delta=1.0, eps=0.1)
    rep_c = verify_eigenvector_decay(assemble_truncation(fam_c, 300), p_c, which=1)
    rel = np.abs(rep.measured - rep_c.measured) / np.maximum(
        np.maximum(rep.measured, rep_c.measured), 1e-300)
    cov_ok = (rel.max() <= 1e-10
              and abs(rep_c.meta["eigenvalue"] - lam0 - c) <= 1e-9
              and abs(rep_c.gamma - rep.gamma) <= 1e-10)
    tail_ok = rep.measured[-1] <= 1e-8 and not rep.meta["boundary_suspect"]
    report("eigenvector decay + shift covariance",
           decay_ok and lam0 < 0 and cov_ok and tail_ok,
           f"eigenvalue {lam0:.5f}, covariance rel dev {rel.max():.2e}, "
           f"tail {rep.measured[-1]:.1e}")


def test_c08_commuting_refinement():
    fam = diagonal_family([1.0, 4.0], [2.0, 8.0], aexp=0.6, bexp=0.6)
    p = BoundParams(lam=-1.0, b=0.0, delta=1.0, eps=0.1)
    N = 300
    rep = verify_commuting_decay(assemble_truncation(fam, N), p, k=1, calibration=(1, 10))
    gam = gamma_rate(p)

    # per-direction weighted norms against scalar sub-family runs
    scalar_meas = []
    direction_ok = []
    tr2 = assemble_truncation(fam, N)
    col2 = green_column(tr2, -1.0, 1)
    for comp, (ca, cb) in enumerate([(1.0, 2.0), (4.0, 8.0)]):
        sub = diagonal_family([ca], [cb], aexp=0.6, bexp=0.6)
        sub_rep = verify_commuting_decay(assemble_truncation(sub, N), p, k=1, calibration=(1, 10))
        scalar_meas.append(sub_rep.measured)
        direction_ok.append(sub_rep.all_pass)
        # same direction extracted from the block run
        env = scalar_envelope(assemble_truncation(sub, N), p)
        block_dir = np.array([abs(col2.blocks[j][comp, comp]) for j in range(N)])
        weighted = block_dir * np.exp(gam * env.cumulative)
        rel = np.abs(weighted - sub_rep.measured) / np.maximum(sub_rep.measured, 1e-300)
        direction_ok.append(bool(rel[:270].max() <= 1e-9))

    # block measured equals the direction-wise max
    stacked = np.maximum(scalar_meas[0], scalar_meas[1])
    rel_sum = np.abs(rep.measured - stacked) / np.maximum(stacked, 1e-300)
    sum_ok = rel_sum[:270].max() <= 1e-9

    # operator weight dominates the scalar-norm weight at every index
    weights = commuting_weights(tr2, p)
    env_norm = scalar_envelope(tr2, p)
    weight_ok = all(
        np.linalg.eigvalsh(W)[0] >= math.exp(gam * env_norm.cumulative[m]) * (1 - 1e-10)
        for m, W in enumerate(weights))

    report("commuting refinement (diagonal family)",
           rep.all_pass and all(direction_ok) and sum_ok and weight_ok,
           f"orthogonal-sum rel dev {rel_sum[:270].max():.2e}")


def test_c09_constant_family_lower_bound():
    worst = -np.inf
    ok = True
    for s, t in ((2.0, 2.0), (3.0, 3.0), (2.0, 8.0), (1.0, 4.0)):
        bound = bj.jc_lower_bound(s, t)
        fam = constant_st_family(s, t)
        for N in (50, 100, 200, 400):
            gap = bound - tridiag_kth_eigenvalue(assemble_truncation(fam, N), 1)
            worst = max(worst, gap)
            ok = ok and gap <= 1e-12
    conv = tridiag_kth_eigenvalue(
        assemble_truncation(constant_st_family(3.0, 3.0), 400), 1)
    conv_ok = abs(conv - 1.0) <= 1e-2
    report("constant-family spectral lower bound", ok and conv_ok,
           f"worst bound violation {worst:.2e}, min eig(N=400, s=t=3) {conv:.6f}")


def test_c10_transfer_matrix_suite():
    p = StParams(2.0, 2.0, 0.6)
    det_ok = True
    for n, lam in ((2, -1.0), (9, -2.0), (57, -0.5), (400, -1.0)):
        det = np.linalg.det(transfer_matrix(p, lam, n).entries)
        det_ok = det_ok and abs(det - ((n - 1) / n) ** 1.2) <= 1e-10
    ns = np.unique(np.round(np.logspace(2, 4, 13)).astype(int))
    errs = []
    for n in ns:
        asym = np.sort(mu_asymptotic(p, -1.0, int(n)).real)
        exact = np.sort(transfer_eigenvalues(p, -1.0, int(n)).real)
        errs.append(np.abs(asym - exact).max())
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    slope_ok = abs(slope - (0.3 - 1.0)) <= 0.1
    p3 = StParams(3.0, 3.0, 0.6)
    mu = np.sort(transfer_eigenvalues(p3, -1.0, 10_000).real)
    targets = np.sort([-(3 + math.sqrt(5)) / 2, -(3 - math.sqrt(5)) / 2,
                       (3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    limit_ok = np.abs(mu - targets).max() <= 1e-2
    report("transfer-matrix suite", det_ok and slope_ok and limit_ok,
           f"slope {slope:.3f} (target -0.7 +- 0.1)")


def test_c11_perturbation_moves_eigenvalue(st06_deep):
    tr = assemble_truncation(st06_deep, 300)
    lam0 = eigenpairs_below(tr, 0.0)[0].value
    dists = []
    for tau in (1e-3, 1e-2, 1e-1):
        pert = perturbed_truncation(tr, tau)
        below = [pr.value for pr in eigenpairs_below(pert, 0.0)]
        first_above = bj.tridiag_kth_eigenvalue(pert, len(below) + 1)
        dists.append(min(abs(v - lam0) for v in below + [first_above]))
    ok = dists[0] > 0 and dists[0] <= dists[1] <= dists[2]
    report("first-block perturbation moves the eigenvalue", ok,
           "dist(tau) = " + ", ".join(f"{d:.3e}" for d in dists))


def test_c12_phase_classifier():
    class_ok = (phase_class(2.0, 2.0) is PhaseClass.GAP_UNBOUNDED
                and phase_class(3.0, 3.0) is PhaseClass.ESS_EMPTY
                and phase_class(1.0, 1.0) is PhaseClass.ESS_FULL_LINE)
    fam = st_family(StParams(1.0, 1.0, 0.6))
    m200 = tridiag_kth_eigenvalue(assemble_truncation(fam, 200), 1)
    m1500 = tridiag_kth_eigenvalue(assemble_truncation(fam, 1500), 1)
    drop_ok = (m200 - m1500) >= 1.0
    report("spectral phase classifier", class_ok and drop_ok,
           f"min eig {m200:.2f} -> {m1500:.2f} between N=200 and N=1500")
