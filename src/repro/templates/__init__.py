"""Log template extraction and machine-generated query workloads.

The evaluation (Section 7.1) drives every system with queries generated
from FT-tree [84, 85], a frequency-tree log parsing method: tokens that
occur more often globally sit closer to the root, lines insert their
frequency-sorted token lists as paths, and high-fanout nodes (variable
fields) are pruned into wildcards. Root-to-leaf paths are templates.

- :mod:`repro.templates.fttree` — the frequency-tree extractor plus the
  Section 4.3 template-to-query compiler (sibling negation rule),
- :mod:`repro.templates.querygen` — the single/OR-2/OR-8 query batches
  used by all benchmarks.
"""

from repro.templates.fttree import FTTree, FTTreeParams, Template
from repro.templates.querygen import QueryWorkload, build_workload

__all__ = [
    "FTTree",
    "FTTreeParams",
    "QueryWorkload",
    "Template",
    "build_workload",
]
