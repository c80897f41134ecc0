"""Risk lower-bound distributions and learning-curve experiments for
PAC-learnable tasks: theoretical CDFs for finite and finite-VC hypothesis
classes, exact-loss ERM trials, and distribution comparison tooling."""

from .analysis import kl_divergence, moments
from .empirics import ExperimentConfig, TrialBatch, derive_trial_seed, histogram, run_trials
from .learners import (
    ConjunctionHypothesis,
    ConjunctionTask,
    ThresholdHypothesis,
    ThresholdTask,
    VariableState,
    conjunction_loss_enumerate,
    conjunction_loss_exact,
    label_conjunction,
    learn_threshold,
    threshold_loss_exact,
    threshold_loss_monte_carlo,
)
from .theory import (
    BoundSpec,
    DiscreteDistribution,
    bound_cdf,
    bound_density,
    bound_point_mass,
    cutoff,
    discretize_bound,
    sample_complexity_finite,
    sample_complexity_vc,
)

__version__ = "0.2.0"

# The columns of distributions.csv and bound_q.csv: one row a slot of an (m, source) group.
DISTRIBUTIONS_HEADER = ["m", "source", "slot_index", "slot_lo", "slot_hi", "mass"]


class ConfigError(Exception):
    """Invalid configuration or unusable input data (exit code 1).

    Defined here, not in ``paclab.cli``, so that the CLI run as ``python -m
    paclab.cli`` and the modules it imports raise and catch the one class.
    """
