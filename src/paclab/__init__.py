"""Risk lower-bound distributions and learning-curve experiments for
PAC-learnable tasks: theoretical CDFs for finite and finite-VC hypothesis
classes, exact-loss ERM trials, and distribution comparison tooling."""

from .analysis import CurvePoint, ExperimentRecord, build_curve, kl_divergence, moments
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
