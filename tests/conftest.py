import multiprocessing
import os

# Pin BLAS before numpy is first imported, as importing fednoise would:
# the test process imports numpy here, before any test imports fednoise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_child_processes_left():
    """Fail a test that leaves a child process running, and end it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"child processes outlived the test: {left}"
