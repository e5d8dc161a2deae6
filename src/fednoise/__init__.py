"""Deterministic federated-learning simulator for training with noisy labels.

Clients keep class-wise feature centroids in sync with the server,
select small-loss samples, mask unconfident examples, and replace their
labels with soft pseudo-labels from the broadcast global model.
"""

import os
import sys
import warnings

# BLAS is pinned to one thread before numpy is first imported: with more
# threads, OpenBLAS splits large matrix products differently and the
# metrics CSV changes in its last digits. Plain assignment, so an
# inherited setting cannot break the same-config-same-bytes contract.
# BLAS reads these only when numpy loads it, so a process that imported
# numpy first keeps whatever thread count it started with; say so.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in _BLAS_THREAD_VARS):
    warnings.warn(
        "fednoise was imported after numpy, so it cannot pin BLAS to one thread; "
        "metrics CSVs may then differ in their last digits between machines and "
        "thread settings. Import fednoise first, or set "
        + ", ".join(f"{v}=1" for v in _BLAS_THREAD_VARS)
        + " before starting Python.",
        RuntimeWarning,
        stacklevel=2,
    )
for _var in _BLAS_THREAD_VARS:
    os.environ[_var] = "1"
del _var

from .bench import (
    DatasetSpec,
    ExperimentConfig,
    build_datasets,
    load_config,
    run_experiment,
    summary_accuracy,
)
from .coordinator import (
    FederationConfig,
    aggregate_global_centroids,
    evaluate_accuracy,
    fedavg,
    r_schedule,
    run_training,
    select_clients,
)
from .datagen import (
    ClientShard,
    Dataset,
    load_idx,
    make_blobs,
    partition_iid,
    split_per_class,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DataError,
    FednoiseError,
    FormatError,
    TrainingDiverged,
)
from .localnode import (
    CentroidSet,
    HyperParams,
    LocalUpdateResult,
    blend_with_global,
    class_mean_features,
    confident_mask,
    global_pseudo_labels,
    local_update,
    similarity_labels,
    small_loss_filter,
    total_loss_and_grads,
)
from .metrics import MetricsRecord, detection_metrics, weight_divergence, write_csv
from .noise import (
    NoiseSpec,
    TransitionMatrix,
    apply_noise,
    client_noise_ratios,
    corrupt,
    pair_transition,
    single_class_corruption,
    symmetric_transition,
)
from .numkit import ModelParams, init_params, mlp_backward, mlp_forward, sgd_step

__version__ = "0.1.0"

__all__ = [
    "CentroidSet",
    "ClientShard",
    "ConfigError",
    "ContractViolation",
    "DataError",
    "Dataset",
    "DatasetSpec",
    "ExperimentConfig",
    "FederationConfig",
    "FednoiseError",
    "FormatError",
    "HyperParams",
    "LocalUpdateResult",
    "MetricsRecord",
    "ModelParams",
    "NoiseSpec",
    "TrainingDiverged",
    "TransitionMatrix",
    "aggregate_global_centroids",
    "apply_noise",
    "blend_with_global",
    "build_datasets",
    "class_mean_features",
    "client_noise_ratios",
    "confident_mask",
    "corrupt",
    "detection_metrics",
    "evaluate_accuracy",
    "fedavg",
    "global_pseudo_labels",
    "init_params",
    "load_config",
    "load_idx",
    "local_update",
    "make_blobs",
    "mlp_backward",
    "mlp_forward",
    "pair_transition",
    "partition_iid",
    "r_schedule",
    "run_experiment",
    "run_training",
    "select_clients",
    "sgd_step",
    "similarity_labels",
    "single_class_corruption",
    "small_loss_filter",
    "split_per_class",
    "summary_accuracy",
    "symmetric_transition",
    "total_loss_and_grads",
    "weight_divergence",
    "write_csv",
]
