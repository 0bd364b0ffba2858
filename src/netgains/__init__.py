"""Digital nets in base 2: construction, quality parameters, exact gain
coefficients of scrambled nets, and randomization with replicate variance
estimation."""

from .gf2 import BitMatrix
from .netgen import (
    GeneratorSet,
    NetPoints,
    ParseError,
    SubsetIndex,
    generate_points,
    load_generators,
)
from .quality import (
    QualityReport,
    microstructure_A,
    microstructure_AK,
    minimal_counting_t,
    quality_report,
    t_d,
    t_star_u,
    t_u,
    t_value,
    verify_net_by_counting,
)
from .gains import (
    GainReport,
    GainValue,
    ResourceLimitError,
    enumerate_gains,
    gain_bounds,
    gain_bruteforce,
    gain_fast,
    gain_pair_table,
    gain_representation,
    max_gain,
)
from .scramble import (
    HaarIntegrand,
    RqmcEstimate,
    ScrambleKind,
    ScrambleSpec,
    ScrambledPoints,
    estimate,
    scramble,
    verify_gain_identity,
)
from .samples import shift_net, sobol_net

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "GeneratorSet",
    "NetPoints",
    "ParseError",
    "SubsetIndex",
    "load_generators",
    "generate_points",
    "QualityReport",
    "quality_report",
    "t_value",
    "t_star_u",
    "t_u",
    "t_d",
    "verify_net_by_counting",
    "minimal_counting_t",
    "microstructure_A",
    "microstructure_AK",
    "GainValue",
    "GainReport",
    "ResourceLimitError",
    "gain_fast",
    "gain_bruteforce",
    "gain_pair_table",
    "gain_representation",
    "max_gain",
    "gain_bounds",
    "enumerate_gains",
    "ScrambleKind",
    "ScrambleSpec",
    "ScrambledPoints",
    "HaarIntegrand",
    "RqmcEstimate",
    "scramble",
    "estimate",
    "verify_gain_identity",
    "shift_net",
    "sobol_net",
]
