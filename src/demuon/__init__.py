"""Decentralized matrix optimization lab: orthogonalized tracked momentum
over gossip topologies, three baselines, and heavy-tailed gradient noise."""

from .config import ConfigError, ExperimentConfig, parse_config
from .diagnostics import (
    MetricsRow,
    PotentialParams,
    consensus_bound,
    consensus_error,
    consensus_error_nuclear,
    min_horizon,
    potential,
    theorem_potential_params,
    u_dm_constant,
)
from .linalg import (
    NumericalFailure,
    frobenius_norm,
    msgn_exact,
    msgn_newton_schulz,
    nuclear_norm,
    spectral_norm,
)
from .noise import NoiseModel, sample_noise
from .optimizers import (
    ALGORITHMS,
    BaselineParams,
    Diverged,
    Lane,
    RunResult,
    RunState,
    ScheduleParams,
    clip_to_frobenius,
    initial_state,
    run,
    step,
    theoretical_schedule,
)
from .problems import (
    ProblemFormatError,
    ProblemSet,
    dump_problem,
    exact_gradient,
    load_problem,
    make_nonconvex_gram,
    make_quadratic,
)
from .topology import (
    InvalidMixingError,
    MixingSpec,
    build_family,
    check_node_count,
    load_mixing_csv,
    mix_blocks,
    validate_mixing,
)

__version__ = "0.1.0"
