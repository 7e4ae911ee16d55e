"""Streaming AUC maximization with stochastic proximal gradient methods.

Train linear scorers that maximize the area under the ROC curve on streaming
data: a proximal learner on a convex per-sample surrogate of the pairwise
least-squares objective, two saddle-point baselines, an exact AUC evaluator
and a benchmark/tuning harness.
"""

from .baselines import (ALGORITHMS, FastSolamTrainer, FastSpamTrainer,
                        SolamTrainer, SpamTrainer, run_algorithm,
                        unknown_algorithm_message)
from .data import (BinarizeRule, Dataset, Example, ParseError, binarize,
                   load_libsvm, parse_libsvm, save_libsvm, split,
                   stream_order, write_libsvm)
from .metrics import auc, auc_bruteforce
from .objective import (dataset_kappa, instance_kappa,
                        pairwise_objective_bruteforce, pairwise_objective_fast,
                        saddle_grad, saddle_value, surrogate_grad,
                        surrogate_value)
from .regularizers import Regularizer, l1, l2, none_reg
from .schedules import (FastRateSchedule, LogDampedSchedule, PolySchedule,
                        PracticalSchedule, Schedule, clamp_for_theory,
                        fast_rate_t1, theory_cap)
from .stats import ClassStats, NotReadyError, StatsSnapshot, exact_snapshot
from .trainer import (DivergenceError, SpaucTrainer, TracePoint,
                      TrainConfig, describe_config, load_model, save_model,
                      stream_run)

__version__ = "0.1.0"
