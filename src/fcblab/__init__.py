"""Fourier completely bounded norms of Boolean polynomials.

Computation and certification toolkit: Fourier-analytic statistics of
polynomials on the hypercube, matrix triples with Boolean behavior, explicit
influence certificates, a moment-matrix SDP for the fcb d-norm with witness
extraction, and a quantum query simulator for cross-validation.
"""

from .behavior import (
    Witness,
    Word,
    bitstring_witness,
    canonical_word,
    chain_value,
    evaluate_bml_on_matrices,
    evaluate_on_witness,
    verify_bb,
    word_class,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    ExtractionError,
    FcblabError,
    ModelViolationError,
    ParseError,
)
from .poly import (
    BlockMultilinearPolynomial,
    Polynomial,
    Statistics,
    bml_influences,
    bml_variance,
    degree_part,
    evaluate,
    fourier_transform,
    greedy_simulate,
    restrict,
    spectral_l1,
    statistics,
    sup_norm_bruteforce,
)
from .qsim import (
    QueryAlgorithm,
    check_characterization,
    extract_polynomial,
    parity_algorithm,
    random_algorithm,
    run,
)
from .sdp import (
    SdpProblem,
    SdpSolution,
    build_fcb_sdp,
    extract_witness,
    fcb_norm,
    solve_sdp,
)
from .witnesses import (
    BmlWitness,
    InfluenceCertificate,
    bml_general_witness,
    bml_homogeneous_witness,
    contraction_check,
    homogeneous_fcb_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMultilinearPolynomial",
    "BmlWitness",
    "CapacityError",
    "ConvergenceError",
    "ExtractionError",
    "FcblabError",
    "InfluenceCertificate",
    "ModelViolationError",
    "ParseError",
    "Polynomial",
    "QueryAlgorithm",
    "SdpProblem",
    "SdpSolution",
    "Statistics",
    "Witness",
    "Word",
    "bitstring_witness",
    "bml_general_witness",
    "bml_homogeneous_witness",
    "bml_influences",
    "bml_variance",
    "build_fcb_sdp",
    "canonical_word",
    "chain_value",
    "check_characterization",
    "contraction_check",
    "degree_part",
    "evaluate",
    "evaluate_bml_on_matrices",
    "evaluate_on_witness",
    "extract_polynomial",
    "extract_witness",
    "fcb_norm",
    "fourier_transform",
    "greedy_simulate",
    "homogeneous_fcb_witness",
    "parity_algorithm",
    "random_algorithm",
    "restrict",
    "run",
    "solve_sdp",
    "spectral_l1",
    "statistics",
    "sup_norm_bruteforce",
    "verify_bb",
    "word_class",
]
