"""Distributed compression of two correlated binary sources.

Two binary words that agree in each position with probability p are
compressed separately to syndromes of sparse parity-check codes and
reconstructed together by belief propagation on a joint Tanner graph.
The correlation enters the graph as one parity check per bit position
whose hidden difference bit carries a constant log-likelihood ratio.
"""

from .correlation import (
    LLR_MAX,
    CorrelatedPair,
    CorrelationModel,
    RatePair,
    RegionCheck,
    binary_entropy,
    conditional_entropy,
    hidden_llr,
    joint_entropy,
    sample_pair,
    sw_region_check,
)
from .decoder import FOLDED_Z, JointTannerGraph, build_joint_graph
from .decoder import DecodeResult, DecoderConfig, decode
from .ldpc import (
    AlistFormatError,
    ConstructionError,
    SparseParityMatrix,
    as_bit_array,
    gallager_construct,
    identity_matrix,
    load_alist,
    save_alist,
    syndrome,
)
from .sim import (
    SimConfig,
    SimRecord,
    configs_over_p,
    derive_trial_seed,
    format_csv,
    run_trials,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "LLR_MAX",
    "CorrelatedPair",
    "CorrelationModel",
    "RatePair",
    "RegionCheck",
    "binary_entropy",
    "conditional_entropy",
    "hidden_llr",
    "joint_entropy",
    "sample_pair",
    "sw_region_check",
    "AlistFormatError",
    "ConstructionError",
    "SparseParityMatrix",
    "as_bit_array",
    "gallager_construct",
    "identity_matrix",
    "load_alist",
    "save_alist",
    "syndrome",
    "FOLDED_Z",
    "JointTannerGraph",
    "build_joint_graph",
    "DecodeResult",
    "DecoderConfig",
    "decode",
    "SimConfig",
    "SimRecord",
    "configs_over_p",
    "derive_trial_seed",
    "format_csv",
    "run_trials",
    "sweep",
    "__version__",
]
