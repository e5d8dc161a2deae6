"""Deterministic random-number streams.

Every random draw in the simulator comes from a Philox counter-based
generator keyed by a tuple of non-negative integers, hashed through
numpy's SeedSequence. Both algorithms are documented and platform
independent, so runs are bit-reproducible across machines and across
process counts. Parallel work items (per-client corruption, local
updates) derive their own streams from (master seed, stream id, ...).
"""

from __future__ import annotations

import numpy as np

# Stream identifiers keeping unrelated draws statistically independent.
STREAM_BLOBS = 1
STREAM_PARTITION = 2
STREAM_NOISE = 3
STREAM_INIT = 4
STREAM_SELECT = 5
STREAM_LOCAL = 6


def make_rng(*key: int) -> np.random.Generator:
    """Generator for the stream identified by the integer key tuple."""
    if not key:
        raise ValueError("make_rng needs at least one key part")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))
