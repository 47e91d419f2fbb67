"""Indexed semi-Markov modelling of minute-bar returns, volumes and waiting
times: estimation, copula coupling of the two variables, financial functions
of the fitted kernel and reproducible Monte Carlo simulation."""

__version__ = "0.1.0"

from .copulas import CopulaSpec, copula_eval, fit_copula, sample_copula
from .core import (
    IndexParams,
    IndexedKernel,
    JumpChain,
    StateGrid,
    discretize,
    estimate_kernel,
    index_at_times,
    make_state_grid,
)
from .finfunc import (
    FptQuery,
    FptResult,
    fpt_survival_mc,
    fpt_survival_recursive,
    modulus_covariance,
    mutual_information,
    one_step_marginal_return,
    one_step_marginal_volume,
    signed_covariance,
)
from .market_data import (
    BarSeries,
    ContingencyTable,
    DescriptiveStats,
    ReturnSeries,
    autocorrelation,
    compute_returns,
    contingency,
    cross_correlation_battery,
    descriptive_stats,
    jarque_bera,
    load_bars,
    run_battery,
)
from .optimize import GridSpec, OptResult, grid_search, mape
from .serialize import load_model, save_model
from .simulate import SimConfig, SynthPath, backtransform, simulate_path, simulate_univariate, validate_stylized_facts
from .triplet import (
    CondWaitDist,
    ConditioningCell,
    EmpiricalInverse,
    SignModel,
    SyncChain,
    TripletFitConfig,
    TripletKernel,
    estimate_cond_wait,
    estimate_signs,
    fit_triplet_kernel,
    quadrant_masses,
    synchronize,
    triplet_kernel_eval,
)
