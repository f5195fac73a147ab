"""Label-sequence algebra for RLC queries.

This subpackage implements Section III-A and Definition 3 of the paper:

- :func:`minimum_repeat` / :func:`is_primitive` — the minimum repeat
  ``MR(L)`` of a label sequence (Lemma 1: it is unique), computed with
  the KMP failure function;
- :func:`kernel_decomposition` / :func:`suffix_kernel_decomposition` —
  the unique kernel/tail decomposition ``L = (L')^h . L''`` of Definition
  3 (Lemma 2: the kernel is unique), in prefix form (forward searches)
  and suffix form (backward searches);
- :class:`LabelDictionary` — bidirectional mapping between user-facing
  label names and the dense integer ids used internally.
"""

from repro.labels.minimum_repeat import (
    border_array,
    is_primitive,
    kernel_decomposition,
    minimum_repeat,
    power_of,
    shortest_period,
    suffix_kernel_decomposition,
)
from repro.labels.sequences import LabelDictionary, format_constraint, parse_constraint

__all__ = [
    "LabelDictionary",
    "border_array",
    "format_constraint",
    "is_primitive",
    "kernel_decomposition",
    "minimum_repeat",
    "parse_constraint",
    "power_of",
    "shortest_period",
    "suffix_kernel_decomposition",
]
