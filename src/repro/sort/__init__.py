"""External sorting: run formation, k-way merging, distribution sort.

Public surface:

* :func:`~repro.sort.merge.external_merge_sort` — the workhorse sorter.
* :func:`~repro.sort.steps.merge_sort_steps` — the same sort as an
  intent-yielding generator, for the query service or
  :func:`~repro.core.intents.drive`.
* :func:`~repro.sort.merge.merge_streams` — a single merge pass, run
  by :class:`~repro.sort.merge.BlockMerger`, the one merge engine
  (the sequence heap and the pipelined ``Sorter`` merge with it too).
* :func:`~repro.sort.distribution.distribution_sort` — the distribution
  (bucket) paradigm.
* :func:`~repro.sort.naive.two_way_merge_sort` — the restricted-fan-in
  baseline showing the ``log_{M/B}`` advantage.
* run-formation strategies and verification helpers.

The load-sort schedule exists once, as three cooperative generators
that yield their reads as ``StreamRead`` intents and reserve every
frame from a ``budget``:
:func:`~repro.sort.runs.form_runs_steps` (memoryload runs),
:func:`~repro.sort.merge.merge_group_steps` (one forecast-prefetched
group merge) and :func:`~repro.sort.merge.merge_pass_steps` (one merge
pass).  The eager :func:`~repro.sort.runs.form_runs_load_sort`,
:func:`~repro.sort.merge.merge_streams` and
:func:`~repro.sort.merge.merge_pass` are ``drive`` loops over them, and
``merge_sort_steps`` composes them.
"""

from .distribution import distribution_sort
from .merge import external_merge_sort, merge_streams
from .naive import two_way_merge_sort
from .selection import external_median, external_select
from .strings import external_string_sort
from .runs import (
    average_run_length,
    form_runs_load_sort,
    form_runs_replacement_selection,
    identity,
)
from .steps import merge_sort_steps
from .verify import is_permutation, is_sorted_stream, streams_equal

__all__ = [
    "external_merge_sort",
    "merge_sort_steps",
    "distribution_sort",
    "two_way_merge_sort",
    "merge_streams",
    "form_runs_load_sort",
    "form_runs_replacement_selection",
    "average_run_length",
    "identity",
    "external_select",
    "external_median",
    "external_string_sort",
    "is_sorted_stream",
    "streams_equal",
    "is_permutation",
]
