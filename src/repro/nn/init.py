"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_rng


def kaiming_uniform(fan_in: int, fan_out: int, rng: SeedLike = None) -> np.ndarray:
    """He/Kaiming uniform initialisation, appropriate before ReLU layers."""
    rng = as_rng(rng)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
