"""Realization theory for discrete-time affine LPV systems.

Simulation and convolution representations, Markov parameters and
black-box probing, Hankel sub-matrices, Kalman-Ho realization, minimality
analysis and reduction, state isomorphism recovery, the linear-switched
correspondence, and affine polynomial input-output equations.
"""

from .errors import (
    ALPVError,
    DimensionMismatch,
    HorizonExceeded,
    InvalidAlphabet,
    InvalidMatrix,
    InvalidWord,
    MissingVariable,
    NonFiniteEntry,
    NotIsomorphic,
    OutputDimNotScalar,
    ShapeMismatch,
    TrajectoryTooShort,
    WordTooShort,
    ZeroLeadingCoefficient,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    numerical_rank,
    pseudoinverse,
    range_basis,
    rank_factorize,
    row_basis,
)
from .words import (
    EPSILON,
    Word,
    index_to_word,
    word_count,
    word_from_str,
    word_to_index,
    word_to_str,
    words_up_to,
)
from .model import (
    ALPVSystem,
    InputSequence,
    SimulationResult,
    convolution_output,
    dual,
    simulate,
)
from .markov import (
    IOOracle,
    MarkovTable,
    kernel_coeff,
    markov_block,
    markov_table,
    probe_kernel_coeff,
    stacked_input_matrix,
    stacked_output_matrix,
    system_oracle,
)
from .hankel import (
    HankelBlockMatrix,
    build_hankel,
    hankel_rank,
    hankel_singular_values,
    observability_root,
    reachability_root,
)
from .realize import (
    AnalysisReport,
    analyze,
    extended_observability,
    extended_reachability,
    find_isomorphism,
    isomorphism_residual,
    kalman_ho,
    minimize,
    obs_reduce,
    reach_reduce,
)
from .switched import SwitchedInput, switched_output
from .ioeq import (
    AffineIOEquation,
    EquationCheckReport,
    SchedulingPoly,
    check_equation,
    equation_residual,
    io_span_dimension,
)

probe_markov_block = markov_block  # tests/test_acceptance.py imports these two names
factored_hankel_rank = hankel_rank

__version__ = "0.1.0"
