"""The RLC index — the paper's primary contribution.

- :class:`RlcIndex` — per-vertex ``Lin``/``Lout`` entry sets, grouped
  by minimum repeat, with the query algorithm (Algorithm 1 /
  Definition 4);
- :func:`build_rlc_index` — the indexing algorithm (Algorithm 2):
  eager or lazy kernel-based search with pruning rules PR1-PR3 over a
  2-hop-style vertex ordering; the ETC baseline runs the same search
  (:func:`repro.core.builder.kernel_based_search`) without them;
- :mod:`repro.core.ordering` — the IN-OUT access-id strategy and
  ablation alternatives;
- :class:`ExtendedQueryEvaluator` — index-accelerated evaluation of
  extended constraints such as ``a+ b+`` (Table V's Q4).
"""

from repro.core.index import BuildStats, RlcIndex
from repro.core.builder import build_rlc_index
from repro.core.ordering import compute_order
from repro.core.extended import ExtendedQueryEvaluator
from repro.core.witness import find_witness_path

__all__ = [
    "BuildStats",
    "ExtendedQueryEvaluator",
    "RlcIndex",
    "build_rlc_index",
    "compute_order",
    "find_witness_path",
]
