"""Energy-based layer models, deep belief networks, and Monte Carlo
likelihood estimation with annealed importance sampling."""

__version__ = "0.1.0"

from .numerics import (
    LogEstimate,
    RngStream,
    log_mean_exp,
    log_sum_exp,
    logistic,
    monte_carlo_se,
    softplus_log,
)
from .models import (
    Grbm,
    Rbm,
    Srbm,
    brute_force_hidden_marginal_srbm,
    brute_force_log_partition,
    initialize_layer,
)
from .dbn import DbnModel, average_log_loss, brute_force_log_likelihood
from .estimation import (
    AisRun,
    AisSchedule,
    EstimatorSpec,
    estimate_dbn_log_likelihood,
    estimate_lower_bound,
    estimate_potential_log_loss,
    evaluate_stack,
    run_ais,
)
from .training import (
    LayerSpec,
    TrainConfig,
    cd_gradient,
    exact_ml_gradient,
    init_srbm_from_grbm,
    train_dbn_greedy,
    train_layer,
)
