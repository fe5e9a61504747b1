"""Multishot rank-metric codes for the multiplicative-additive matrix channel.

Construction: a partition chain of Gabidulin inner codes, coset-encoded
per shot, with MDS outer codes protecting each level across shots.
Lifted codewords [I | underline(u_j)] travel through Y_j = A_j X_j + Z_j
under global budgets on rank deficiency (rho) and noise rank (tau).
Decoding: an exact oracle (minimum extended subspace distance) and a
hard-decision multistage peeling decoder, exhaustive or algebraic per
step; decoder.ROLES names the three the command line runs.
"""

from .channel import ChannelConfig, apply_channel, lift, lift_multishot, sample_channel
from .cosets import PartitionChain
from .decoder import MultistageResult, multistage_decode, oracle_decode_multishot
from .errors import ConfigError, GuardError
from .fields import ExtensionField, PrimeField, field_from_json, field_to_json
from .gabidulin import GabidulinCode
from .linalg import (
    Subspace,
    extended_rank_distance,
    extended_subspace_distance,
    rank,
    subspace_distance,
)
from .multilevel import (
    MultilevelCodeSpec,
    maximize_bound,
    spec_from_json,
    special_situation,
)
from .outer import OuterCode, SymbolMap
from .reduction import ReductionTriple, reconstruct, reduce_received

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "ConfigError",
    "ExtensionField",
    "GabidulinCode",
    "GuardError",
    "MultilevelCodeSpec",
    "MultistageResult",
    "OuterCode",
    "PartitionChain",
    "PrimeField",
    "ReductionTriple",
    "Subspace",
    "SymbolMap",
    "apply_channel",
    "extended_rank_distance",
    "extended_subspace_distance",
    "field_from_json",
    "field_to_json",
    "lift",
    "lift_multishot",
    "maximize_bound",
    "multistage_decode",
    "oracle_decode_multishot",
    "rank",
    "reconstruct",
    "reduce_received",
    "sample_channel",
    "spec_from_json",
    "special_situation",
    "subspace_distance",
    "__version__",
]
