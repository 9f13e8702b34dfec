"""Decay envelopes and Green-matrix numerics for semi-bounded block Jacobi
operators with an unbounded gap below the essential spectrum."""

from .bounds import (BoundParams, CommutationError, check_pairwise_commutation,
                     gamma_rate, phi_delta, psi, psi_inv, qualified_constant,
                     scalar_envelope, simplified_rate)
from .dense_linalg import (BlockTridiagLU, EigDecomposition, SingularShiftError,
                           abs_matrix, block_tridiag_factor, hermitian_eig,
                           psd_matfunc, spectral_norm, tridiag_count_below,
                           tridiag_eigs_below, tridiag_kth_eigenvalue)
from .green_spectral import (DecayReport, Eigenpair, EmptySpectrumError,
                             GreenBlockSet, eigenpairs_below, green_column,
                             perturbed_truncation, verify_commuting_decay,
                             verify_eigenvector_decay, verify_green_decay)
from .operator_model import (OperatorFamily, Truncation, assemble_truncation,
                             block_entries, builtin_family, diagonal_family,
                             parse_family_spec, scalar_free_family, table_family)
from .st_family import (LevinsonProfile, PhaseClass, StParams, decaying_root,
                        jc_lower_bound, levinson_profile, mu_asymptotic,
                        phase_class, st_family, transfer_eigenvalues)

__version__ = "0.1.0"
