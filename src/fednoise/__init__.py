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
