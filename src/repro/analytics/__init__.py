"""Higher-order log analytics on MithriLog output (Section 8).

The paper's conclusion sketches the layer above the accelerator: "more
complex analytical operations such as principal component analysis [79]
or clustering [36] can also be implemented to benefit from the fast data
extraction capability of MithriLog". This package is that layer:

- :mod:`repro.analytics.counting` — template count vectors over time
  windows (the feature representation of Xu et al. [79]),
- :mod:`repro.analytics.anomaly` — PCA subspace anomaly detection over
  count vectors,
- :mod:`repro.analytics.clustering` — k-means clustering of log windows
  (Lin et al. [36] style problem identification),
- :mod:`repro.analytics.sequences` — template-transition (workflow)
  models over the tag stream (CloudSeer [82] style monitoring),
- :mod:`repro.analytics.workload` — mining of the service's own query
  journal: hot templates, per-tenant/template/stage/outcome slices,
  and drift detection between journal windows (the *Query Log
  Compression for Workload Analytics* direction).

Everything consumes the tagger/filter output of :mod:`repro.core`, so
these analyses run over *extracted* data, never raw logs.
"""

from repro.analytics.aggregate import AggregateReport, aggregate_matches
from repro.analytics.workload import (
    DriftReport,
    SliceStats,
    WorkloadProfile,
    drift,
    hot_templates,
    mine,
)
from repro.core.backend import numpy_or_none

# ``repro.obs`` pulls this package in at ``import repro`` time, and a host
# without numpy must still get the scan path (which routes itself to the
# reference kernel there); only the analyses below need numpy.
if numpy_or_none() is not None:
    from repro.analytics.anomaly import PCAAnomalyDetector
    from repro.analytics.clustering import KMeans
    from repro.analytics.counting import TemplateCountMatrix, count_windows
    from repro.analytics.sequences import TransitionModel

__all__ = [
    "AggregateReport",
    "DriftReport",
    "KMeans",
    "PCAAnomalyDetector",
    "SliceStats",
    "TemplateCountMatrix",
    "TransitionModel",
    "WorkloadProfile",
    "aggregate_matches",
    "count_windows",
    "drift",
    "hot_templates",
    "mine",
]
