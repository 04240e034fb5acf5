"""EM-cost: symbolic I/O-complexity inference and bound certification.

The EM200-series tier sits between the per-line rules (EM001-EM007) and
the dynamic sanitizer envelope: it *statically* derives a symbolic I/O
cost for every ``@io_bound``-decorated algorithm by composing
per-statement transfer counts through loop nests and callee summaries,
then certifies the declared bound (the theory callable and the docstring
form) against the inferred expression.

The checks run in the emlint pass (:mod:`repro.analysis.engine`) over
the project build the flow tier shares; pass ``report`` to
:func:`~repro.analysis.engine.lint_paths` to receive the
inferred/declared expression table, for cross-checking sanitizer
envelopes.
"""

from .expr import Cost, Term, render

__all__ = [
    "Cost",
    "Term",
    "render",
]
