"""Baseline evaluators for RLC queries (Section III-B and VI-a).

The paper compares the RLC index against:

- :class:`NfaBfs` — breadth-first traversal of the graph x NFA product;
- :class:`NfaBiBfs` — bidirectional product BFS (also the ground-truth
  oracle for workload generation, Section VI-c);
- :class:`NfaDfs` — depth-first variant ("same time complexity as BFS
  but not as efficient as BiBFS");
- :class:`ExtendedTransitiveClosure` (ETC) — the materialized extreme:
  every reachable pair with its set of k-bounded minimum repeats,
  built by unpruned forward kernel-based search.

The three online traversals and the simulated Table V systems of
:mod:`repro.baselines.simulated` are one family: each defines only its
product-search loop, ``evaluate(source, target, nfa)``, and shares
``query(source, target, labels)`` and ``query_regex`` (a parsed
expression or its text) with the others.  ETC answers ``query`` from
its closure.  Batched execution lives one layer up, in
:meth:`repro.engine.EngineBase.query_batch`.
"""

from repro.baselines.bfs import NfaBfs, evaluate_nfa_bfs
from repro.baselines.bibfs import NfaBiBfs, evaluate_nfa_bibfs
from repro.baselines.dfs import NfaDfs, evaluate_nfa_dfs
from repro.baselines.etc import ExtendedTransitiveClosure

__all__ = [
    "ExtendedTransitiveClosure",
    "NfaBfs",
    "NfaBiBfs",
    "NfaDfs",
    "evaluate_nfa_bfs",
    "evaluate_nfa_bibfs",
    "evaluate_nfa_dfs",
]
