"""Relational operators on the external-memory substrate.

The survey's motivating application: external sorting and hashing as the
engine room of a database.  Tables are streams of tuples; operators are
batch jobs with textbook I/O costs.
"""

from .joins import (
    block_nested_loop_join,
    grace_hash_join,
    hash_group_by,
    merge_join_iterators,
    sort_merge_join,
)
from .operators import (
    AGGREGATES,
    Aggregate,
    distinct,
    group_by,
    order_by,
    project,
    select,
    top_k,
)
from .steps import (
    sort_merge_join_materialized,
    sort_merge_join_steps,
)
from .table import Table

__all__ = [
    "Table",
    "select",
    "project",
    "order_by",
    "group_by",
    "hash_group_by",
    "distinct",
    "top_k",
    "Aggregate",
    "AGGREGATES",
    "sort_merge_join",
    "sort_merge_join_materialized",
    "sort_merge_join_steps",
    "grace_hash_join",
    "block_nested_loop_join",
    "merge_join_iterators",
]
