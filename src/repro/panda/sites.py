"""Computing-site catalog with HS23 processing power and Zipf popularity.

The ATLAS grid comprises ~150 sites of very different sizes; a handful of
Tier-1 centres (BNL, CERN, TRIUMF, …) absorb a large share of user-analysis
jobs while a long tail of Tier-2 sites each run a few percent.  The catalog
models that imbalance with a Zipf-like popularity law and assigns each site an
HS23-per-core benchmark score (used to convert core-hours into the paper's
``workload`` feature) and a reliability that drives job failure rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_rng

#: Real-world-inspired site names.  Order matters: earlier names get larger
#: popularity under the Zipf law, mirroring the dominance of Tier-1 centres
#: (the paper's Fig. 4b shows BNL as the top computing site).
DEFAULT_SITE_NAMES: Sequence[str] = (
    "BNL", "CERN-P1", "TRIUMF", "FZK-LCG2", "IN2P3-CC", "RAL-LCG2",
    "PIC", "NDGF-T1", "SARA-MATRIX", "INFN-T1", "MWT2", "AGLT2",
    "SWT2_CPB", "NET2", "SLAC", "UKI-NORTHGRID-MAN-HEP", "UKI-SCOTGRID-GLASGOW",
    "DESY-HH", "DESY-ZN", "LRZ-LMU", "MPPMU", "GoeGrid", "wuppertalprod",
    "PRAGUELCG2", "CSCS-LCG2", "UNIBE-LHEP", "IFIC-LCG2", "IFAE",
    "TOKYO-LCG2", "HIROSHIMA", "AUSTRALIA-ATLAS", "BEIJING-LCG2",
    "RU-PROTVINO-IHEP", "JINR", "GRIF-LAL", "GRIF-IRFU", "LAPP",
    "CPPM", "LPC-CLERMONT", "ROMA1", "NAPOLI", "MILANO", "FRASCATI",
    "CA-WATERLOO-T2", "CA-SFU-T2", "TW-FTT", "SIGNET", "ARNES",
    "CYFRONET-LCG2", "WUT-LCG2", "BU_ATLAS", "OU_OCHEP", "UTA_SWT2",
    "ANLASC", "ORNL-T3", "NERSC", "BNL_CLOUD", "CERN-EXTENSION",
    "UIO-CLOUD", "UAM-LCG2",
)


@dataclass(frozen=True)
class ComputingSite:
    """A grid computing site.

    Attributes
    ----------
    name:
        PanDA site name.
    hs23_per_core:
        HEP-score-23 benchmark per core; converts core-hours to workload units.
    n_cores:
        Total cores available for user analysis (used by the grid simulator).
    reliability:
        Probability that a job at this site finishes successfully, before
        workload-dependent corrections.
    region:
        Coarse geographic region (used by data-locality brokerage).
    """

    name: str
    hs23_per_core: float
    n_cores: int
    reliability: float
    region: str

    def core_hours_to_workload(self, core_hours: np.ndarray) -> np.ndarray:
        """Convert core-hours to HS23-weighted workload units."""
        return np.asarray(core_hours, dtype=np.float64) * self.hs23_per_core


_REGIONS = ("US", "CERN", "EU", "UK", "ASIA", "CA", "OTHER")


class SiteCatalog:
    """Catalog of computing sites plus their popularity distribution."""

    def __init__(self, sites: Sequence[ComputingSite], popularity: Optional[np.ndarray] = None):
        if not sites:
            raise ValueError("SiteCatalog requires at least one site")
        self.sites: List[ComputingSite] = list(sites)
        if popularity is None:
            popularity = np.ones(len(self.sites))
        popularity = np.asarray(popularity, dtype=np.float64)
        if popularity.shape[0] != len(self.sites):
            raise ValueError("popularity must have one entry per site")
        if (popularity < 0).any() or popularity.sum() <= 0:
            raise ValueError("popularity must be non-negative with positive sum")
        self.popularity = popularity / popularity.sum()
        self._by_name: Dict[str, ComputingSite] = {s.name: s for s in self.sites}
        if len(self._by_name) != len(self.sites):
            raise ValueError("site names must be unique")

    # -- constructors ----------------------------------------------------------
    @classmethod
    def default(
        cls,
        n_sites: int = 40,
        *,
        zipf_exponent: float = 1.1,
        seed: SeedLike = None,
    ) -> "SiteCatalog":
        """Build a default catalog of ``n_sites`` sites with Zipf popularity."""
        if n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        rng = as_rng(seed)
        names = list(DEFAULT_SITE_NAMES[:n_sites])
        # Synthesize extra names if more sites than the built-in list are asked for.
        while len(names) < n_sites:
            names.append(f"T2_SITE_{len(names):03d}")
        sites: List[ComputingSite] = []
        for rank, name in enumerate(names):
            # Larger sites tend to have newer hardware (higher HS23/core) and
            # marginally better reliability.
            hs23 = float(np.clip(rng.normal(15.0 - 0.05 * rank, 2.0), 8.0, 25.0))
            n_cores = int(np.clip(rng.lognormal(mean=9.5 - 0.04 * rank, sigma=0.4), 500, 50_000))
            reliability = float(np.clip(rng.normal(0.92 - 0.0015 * rank, 0.03), 0.7, 0.995))
            region = _REGIONS[rank % len(_REGIONS)] if rank >= 2 else ("US" if rank == 0 else "CERN")
            sites.append(
                ComputingSite(
                    name=name,
                    hs23_per_core=hs23,
                    n_cores=n_cores,
                    reliability=reliability,
                    region=region,
                )
            )
        popularity = 1.0 / np.arange(1, n_sites + 1) ** zipf_exponent
        return cls(sites, popularity)

    # -- accessors ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sites)

    def __getitem__(self, name: str) -> ComputingSite:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown computing site {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    @property
    def names(self) -> List[str]:
        return [s.name for s in self.sites]

    def hs23_of(self, names: Sequence[str]) -> np.ndarray:
        """Vectorised lookup of HS23-per-core for an array of site names."""
        table = {s.name: s.hs23_per_core for s in self.sites}
        return np.array([table[n] for n in np.asarray(names).astype(str)])

    def reliability_of(self, names: Sequence[str]) -> np.ndarray:
        """Vectorised lookup of site reliability."""
        table = {s.name: s.reliability for s in self.sites}
        return np.array([table[n] for n in np.asarray(names).astype(str)])

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` site indices (codes into :attr:`names`) by popularity."""
        return rng.choice(len(self.sites), size=n, p=self.popularity)

    def sample_sites(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` site names according to the popularity distribution."""
        return np.array(self.names, dtype=object)[self.sample_indices(n, rng)].astype(str)
