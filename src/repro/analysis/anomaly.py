"""Diffusion-based anomaly scoring of job records.

The paper observes (conclusion, limitation 2) that diffusion models make
higher errors in data-scarce regions and that this property "makes it a
competent detector for anomalies", citing Livernoche et al. (2024).  This
module turns a fitted :class:`~repro.models.tabddpm.TabDDPMSurrogate` into an
anomaly scorer: a record is noised to a handful of intermediate timesteps, the
denoiser predicts the clean record, and the reconstruction error (Gaussian
error on numerical features, cross-entropy on categorical features) averaged
over timesteps is the anomaly score.  Records unlike anything seen during
training denoise poorly and receive high scores.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.models.tabddpm.model import TabDDPMSurrogate
from repro.nn import Tensor, no_grad
from repro.tabular.table import Table
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_fitted


class DiffusionAnomalyDetector:
    """Score how unlikely each record is under a fitted TabDDPM surrogate.

    Parameters
    ----------
    surrogate:
        A fitted :class:`TabDDPMSurrogate`.
    timesteps:
        Diffusion timesteps at which reconstruction is evaluated.  Defaults to
        a small set early in the chain (roughly the 4%, 10% and 20% marks),
        where most of the signal is still present and reconstruction error is
        dominated by how well the record sits on the learned data manifold
        rather than by the injected noise.
    n_repeats:
        Number of independent noise draws per timestep (averaged), trading
        cost for score variance.
    """

    def __init__(
        self,
        surrogate: TabDDPMSurrogate,
        *,
        timesteps: Optional[Sequence[int]] = None,
        n_repeats: int = 2,
        seed: SeedLike = 0,
    ) -> None:
        if not surrogate.is_fitted:
            raise ValueError("the TabDDPM surrogate must be fitted before anomaly scoring")
        if n_repeats < 1:
            raise ValueError("n_repeats must be at least 1")
        self.surrogate = surrogate
        total = surrogate.config.n_timesteps
        if timesteps is None:
            timesteps = sorted({max(1, total // 25), max(2, total // 10), max(3, total // 5)})
        timesteps = [int(t) for t in timesteps]
        if any(t < 0 or t >= total for t in timesteps):
            raise ValueError(f"timesteps must lie in [0, {total})")
        self.timesteps = timesteps
        self.n_repeats = int(n_repeats)
        self._rng = as_rng(seed)
        self.calibration_scores_: Optional[np.ndarray] = None

    # -- scoring ------------------------------------------------------------------
    def score(self, table: Table) -> np.ndarray:
        """Anomaly score per record (higher = more anomalous)."""
        surrogate = self.surrogate
        encoder = surrogate._encoder
        encoded = encoder.transform(table).values
        num_idx = surrogate._numerical_indices
        n = encoded.shape[0]
        scores = np.zeros(n, dtype=np.float64)

        for t in self.timesteps:
            for _ in range(self.n_repeats):
                t_vector = np.full(n, t, dtype=np.int64)
                noisy, _noise = surrogate._q_sample(encoded, t_vector, self._rng)

                with no_grad():
                    prediction = surrogate._denoiser(Tensor(noisy), t_vector).numpy()

                if num_idx.size:
                    eps_pred = prediction[:, num_idx]
                    x0_hat = surrogate._gaussian.predict_x0_from_eps(noisy[:, num_idx], t_vector, eps_pred)
                    scores += np.mean((x0_hat - encoded[:, num_idx]) ** 2, axis=1)
                for start, stop in surrogate._block_diffusion.spans:
                    logits = prediction[:, start:stop]
                    logits = logits - logits.max(axis=1, keepdims=True)
                    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                    true_onehot = encoded[:, start:stop]
                    scores += -(true_onehot * log_probs).sum(axis=1)

        return scores / (len(self.timesteps) * self.n_repeats)

    # -- calibration --------------------------------------------------------------
    def calibrate(self, reference: Table) -> "DiffusionAnomalyDetector":
        """Store reference scores so :meth:`is_anomalous` can use a percentile threshold."""
        self.calibration_scores_ = np.sort(self.score(reference))
        return self

    def is_anomalous(self, table: Table, *, percentile: float = 99.0) -> np.ndarray:
        """Boolean mask of records scoring above the calibrated percentile."""
        check_fitted(self, ["calibration_scores_"])
        if not 0.0 < percentile < 100.0:
            raise ValueError("percentile must be in (0, 100)")
        threshold = np.percentile(self.calibration_scores_, percentile)
        return self.score(table) > threshold
