"""manychain: lockstep multi-chain HMC on CPU with precision-aware numerics."""

from .diagnostics import (
    DegenerateTraceError,
    DiagnosticsReport,
    RunStatistics,
    StreamingMoments,
    ess,
    harmonic_mean_acceptance,
    report_from_trace,
    split_rhat,
    streaming_rhat,
    welford_init,
    welford_merge,
    welford_update,
)
from .gradients import finite_difference_check
from .model import (
    ConstrainedParams,
    Dataset,
    DatasetError,
    GaussianTarget,
    ModelTarget,
    constrain,
    generate_synthetic,
    joint_log_prob,
    load_csv_dataset,
    replicate_dataset,
)
from .prng import (
    RandomKey,
    children,
    key_from_seed,
    normal,
    randint,
    split,
    uniform,
)
from .sampler import (
    ChainBatch,
    HmcConfig,
    LockstepViolationError,
    MomentsSink,
    RunSummary,
    StepOutput,
    TraceSink,
    adapt_step_size,
    estimate_diag_mass,
    hmc_step,
    leapfrog_step,
    run_chains,
    warmup_adapt,
)

__version__ = "0.1.0"
