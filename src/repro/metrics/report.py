"""Aggregate evaluation: one Table-I row per surrogate model.

:func:`evaluate_surrogate_data` computes all five paper metrics for one
synthetic table; :func:`format_table` renders a list of scores in the layout
of the paper's Table I so ``repro-experiments table1`` can print it directly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.correlation import diff_corr
from repro.metrics.distribution import mean_jsd, mean_wasserstein
from repro.metrics.mlef import MLEFConfig, diff_mlef
from repro.metrics.privacy import distance_to_closest_record
from repro.tabular.table import Table
from repro.utils.rng import SeedLike


@dataclass
class SurrogateScore:
    """All Table-I metrics for one surrogate model."""

    model: str
    wd: float
    jsd: float
    diff_corr: float
    dcr: float
    diff_mlef: float
    per_column_wd: Dict[str, float] = field(default_factory=dict)
    per_column_jsd: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def as_row(self) -> Dict[str, float]:
        """Only the five headline numbers (Table I row)."""
        return {
            "WD": self.wd,
            "JSD": self.jsd,
            "diff-CORR": self.diff_corr,
            "DCR": self.dcr,
            "diff-MLEF": self.diff_mlef,
        }


def evaluate_surrogate_data(
    model_name: str,
    real_train: Table,
    real_test: Table,
    synthetic: Table,
    *,
    mlef_config: Optional[MLEFConfig] = None,
    compute_mlef: bool = True,
    seed: SeedLike = None,
) -> SurrogateScore:
    """Compute every Table-I metric for one synthetic dataset.

    Parameters
    ----------
    model_name:
        Label used in reports (e.g. ``"TabDDPM"``).
    real_train, real_test:
        The real training and held-out tables (the paper's 80/20 split).
    synthetic:
        Data sampled from the surrogate after fitting on ``real_train``.
    mlef_config:
        Regressor settings for the efficacy metric.
    compute_mlef:
        The efficacy metric trains two boosted-tree models and dominates the
        metric cost; disable it for quick fidelity-only sweeps.
    """
    wd, per_wd = mean_wasserstein(real_train, synthetic)
    jsd, per_jsd = mean_jsd(real_train, synthetic)
    corr = diff_corr(real_train, synthetic)
    dcr = distance_to_closest_record(real_train, synthetic)
    if compute_mlef:
        mlef_gap = diff_mlef(real_train, synthetic, real_test, mlef_config, seed=seed)
    else:
        mlef_gap = float("nan")
    return SurrogateScore(
        model=model_name,
        wd=wd,
        jsd=jsd,
        diff_corr=corr,
        dcr=dcr,
        diff_mlef=mlef_gap,
        per_column_wd=per_wd,
        per_column_jsd=per_jsd,
    )


def format_table(scores: Sequence[SurrogateScore], *, title: str = "PERFORMANCE COMPARISONS ON SURROGATE MODELS") -> str:
    """Render scores in the layout of the paper's Table I."""
    header = f"{'Model':<12} {'WD↓':>8} {'JSD↓':>8} {'diff-CORR↓':>12} {'DCR↑':>8} {'diff-MLEF↓':>12}"
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for score in scores:
        lines.append(
            f"{score.model:<12} {score.wd:>8.3f} {score.jsd:>8.3f} "
            f"{score.diff_corr:>12.3f} {score.dcr:>8.3f} {score.diff_mlef:>12.3f}"
        )
    return "\n".join(lines)


def rank_models(scores: Sequence[SurrogateScore]) -> Dict[str, List[str]]:
    """Rank model names per metric (best first), mirroring the paper's reading
    of Table I (lower is better for everything except DCR).  A metric that
    was not computed (NaN, e.g. diff-MLEF under ``--no-mlef``) ranks last."""
    by_metric: Dict[str, List[str]] = {}
    metric_specs = [
        ("WD", lambda s: s.wd, False),
        ("JSD", lambda s: s.jsd, False),
        ("diff-CORR", lambda s: s.diff_corr, False),
        ("DCR", lambda s: s.dcr, True),
        ("diff-MLEF", lambda s: s.diff_mlef, False),
    ]
    for name, key, higher_is_better in metric_specs:
        ordered = sorted(scores, key=lambda s: _rank_key(key(s), higher_is_better))
        by_metric[name] = [s.model for s in ordered]
    return by_metric


def _rank_key(value: float, higher_is_better: bool) -> Tuple[bool, float]:
    """Sort key putting the best value first and NaN after every number."""
    if math.isnan(value):
        return True, 0.0
    return False, -value if higher_is_better else value
