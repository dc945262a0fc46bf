"""Optimal discrimination of symmetric multi-mode coherent-state families.

Closed-form minimum-error, unambiguous and oblivious-transfer probabilities,
for pure and phase-randomized states, validated against a brute-force
truncated-Fock-space oracle and simulated linear-optical measurement circuits.
"""

from .discrimination import (
    CrossoverReport,
    delta_pcorr,
    delta_pcorr_max,
    family_bot,
    family_p1bit,
    family_pcorr,
    four_mode_mixed_pcorr,
    four_mode_pure_pcorr,
    four_mode_unambiguous,
    p1bit_from_overlaps,
    phase_encoded_mixed_pcorr,
    phase_encoded_ot_crossover,
    phase_encoded_pure_pcorr,
    three_mode_mixed_pcorr,
    three_mode_pure_pcorr,
    two_mode_mixed_pcorr,
    two_mode_pure_pcorr,
)
from .fock import (
    CapacityError,
    NotPositiveSemidefiniteError,
    SpectralDecomposition,
    SubspaceBasis,
    enumerate_subspace,
    hermitian_eig,
    matrix_function,
)
from .optics import LinearCircuit, apply_circuit, click_statistics, min_error_via_circuit, preset
from .oracle import Povm, block_srm, helstrom_two, srm, verify_appendix_b, whole_matrix_srm
from .phase_rand import (
    CoherentStateVector,
    SubspaceOverlapSeries,
    decompose,
    mixed_state_matrix,
)
from .symmetric import (
    GramMatrix,
    SymmetricFamilySpec,
    circulant_eigenvalues,
    gram_matrix,
    srm_success_from_gram,
    subspace_states,
)

__version__ = "0.1.0"
