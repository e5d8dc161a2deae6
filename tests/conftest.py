import multiprocessing

# Importing the package pins BLAS without loading numpy, so it comes first.
import fednoise  # noqa: F401
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
