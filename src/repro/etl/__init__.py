"""ETL substrate: join, clustering (O2), downsampling (§7) — each a rule
over a :class:`~repro.storage.rowblock.RowBlock`'s columns, in its own
module (``join_rows``, ``cluster_order``, ``keep_samples`` /
``keep_sessions``); :class:`ETLJob` applies the join and the clustering
with one ``take``."""

from .downsample import samples_per_session
from .pipeline import ETLConfig, ETLJob, ETLResult

__all__ = [
    "ETLConfig",
    "ETLJob",
    "ETLResult",
    "samples_per_session",
]
