"""Symbolic I/O-cost expressions over the machine parameters.

A cost is a sum of :class:`Term` monomials over a small atom vocabulary:

==========  =========================================================
``N``       input records
``Z``       output records (``len(result)`` in theory callables)
``B``       block size (appears with negative exponents: ``N/B``)
``M``       internal memory (``M/B`` is the block budget ``m``)
``logm``    ``log_{M/B}(N/B)`` — merge/distribution pass count
``logB``    ``log_B N`` — B-tree search depth
``logN``    ``log_2 N`` — doubling/halving round count
``K``       an unrecognized data-dependent factor (EM203 material)
==========  =========================================================

Comparisons (does the declared bound *cover* an inferred term, is one
term asymptotically larger) are decided numerically on a spanning grid
of machine regimes rather than by symbolic rewriting: every term is a
monomial in the quantities above, so evaluating both sides at a spread
of ``(N, M, B, Z)`` corners — tall-cache and short-cache, scan-bound
and search-bound, ``Z`` below and above ``N`` — separates any pair of
distinct monomials in this vocabulary while staying robust to the
``M``/``B`` exponents that make lattice-based dominance awkward.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

ATOMS = ("N", "Z", "B", "M", "logm", "logB", "logN", "K")


class Term:
    """``coeff · N^a · Z^b · B^c · ...`` — one monomial of a cost."""

    __slots__ = ("coeff", "powers")

    def __init__(self, coeff: float = 1.0,
                 powers: Optional[Dict[str, int]] = None) -> None:
        self.coeff = float(coeff)
        self.powers = {a: e for a, e in (powers or {}).items() if e}

    def key(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(self.powers.items()))

    def times(self, other: "Term") -> "Term":
        powers = dict(self.powers)
        for atom, exp in other.powers.items():
            powers[atom] = powers.get(atom, 0) + exp
        return Term(self.coeff * other.coeff, powers)

    def over(self, other: "Term") -> "Term":
        powers = dict(self.powers)
        for atom, exp in other.powers.items():
            powers[atom] = powers.get(atom, 0) - exp
        coeff = self.coeff / other.coeff if other.coeff else self.coeff
        return Term(coeff, powers)

    @property
    def is_constant(self) -> bool:
        return not self.powers

    @property
    def has_unknown(self) -> bool:
        return "K" in self.powers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Term({render_term(self)!r})"


#: a cost is a sum of terms
Cost = List[Term]


def term(coeff: float = 1.0, **powers: int) -> Term:
    return Term(coeff, powers)


def scan(coeff: float = 1.0) -> Term:
    """``coeff · N/B`` — one pass over the input."""
    return Term(coeff, {"N": 1, "B": -1})


def sort_terms(coeff: float = 1.0) -> Cost:
    """``coeff · (N/B)·(1 + log_{M/B}(N/B))`` — the sort closed form
    with run formation counted as the first pass (mirrors
    :func:`repro.core.bounds.sort_io`)."""
    return [Term(coeff, {"N": 1, "B": -1}),
            Term(coeff, {"N": 1, "B": -1, "logm": 1})]


def normalized(cost: Iterable[Term]) -> Cost:
    """Merge like monomials and drop zero terms."""
    merged: Dict[Tuple[Tuple[str, int], ...], Term] = {}
    for t in cost:
        if not t.coeff:
            continue
        key = t.key()
        if key in merged:
            merged[key] = Term(merged[key].coeff + t.coeff, dict(t.powers))
        else:
            merged[key] = Term(t.coeff, dict(t.powers))
    return sorted(merged.values(), key=lambda t: t.key())


def add(*costs: Iterable[Term]) -> Cost:
    out: Cost = []
    for cost in costs:
        out.extend(cost)
    return normalized(out)


def mul(a: Iterable[Term], b: Iterable[Term]) -> Cost:
    return normalized([x.times(y) for x in a for y in b])


def scale(cost: Iterable[Term], factor: Term) -> Cost:
    return normalized([t.times(factor) for t in cost])


# ---------------------------------------------------------------------
# Numeric comparison grid
# ---------------------------------------------------------------------

#: (N, M, B, Z) regimes spanning the model's corner cases.  All satisfy
#: N >= M >= B >= 2 (the external-memory regime the closed forms assume)
#: and vary Z on both sides of N.
GRID: Tuple[Tuple[float, float, float, float], ...] = (
    (2.0 ** 30, 2.0 ** 20, 2.0 ** 10, 2.0 ** 15),
    (2.0 ** 40, 2.0 ** 26, 2.0 ** 8, 2.0 ** 40),
    (2.0 ** 24, 2.0 ** 22, 2.0 ** 4, 2.0 ** 10),
    (2.0 ** 50, 2.0 ** 30, 2.0 ** 16, 2.0 ** 34),
    (2.0 ** 34, 2.0 ** 16, 2.0 ** 6, 2.0 ** 45),
    (2.0 ** 60, 2.0 ** 21, 2.0 ** 12, 2.0 ** 5),
    (2.0 ** 26, 2.0 ** 24, 2.0 ** 2, 2.0 ** 26),
)

#: the asymptotic subset: large-N regimes where leading terms dominate,
#: used for the coefficient-sensitive EM202 ratio
LARGE_GRID: Tuple[Tuple[float, float, float, float], ...] = (
    (2.0 ** 50, 2.0 ** 30, 2.0 ** 16, 2.0 ** 34),
    (2.0 ** 60, 2.0 ** 21, 2.0 ** 12, 2.0 ** 5),
    (2.0 ** 56, 2.0 ** 24, 2.0 ** 6, 2.0 ** 56),
)


def _env(point: Tuple[float, float, float, float]) -> Dict[str, float]:
    n, mem, block, z = point
    m = max(2.0, mem / block)
    blocks = max(2.0, n / block)
    return {
        "N": n,
        "Z": z,
        "B": block,
        "M": mem,
        "logm": max(1.0, math.log(blocks, m)),
        "logB": max(1.0, math.log(n, max(2.0, block))),
        "logN": max(1.0, math.log2(n)),
        # K is data-dependent with no model clamp: pessimistically N
        "K": n,
    }


_ENVS = tuple(_env(p) for p in GRID)
_LARGE_ENVS = tuple(_env(p) for p in LARGE_GRID)


def term_value(t: Term, env: Dict[str, float],
               stripped: bool = False) -> float:
    value = 1.0 if stripped else t.coeff
    for atom, exp in t.powers.items():
        value *= env.get(atom, 1.0) ** exp
    return value


def cost_value(cost: Iterable[Term], env: Dict[str, float],
               stripped: bool = False) -> float:
    return sum(term_value(t, env, stripped) for t in cost)


def covers(declared: Iterable[Term], t: Term) -> bool:
    """Is ``t`` within a constant factor of ``declared`` across every
    machine regime (coefficients stripped on both sides)?"""
    declared = list(declared)
    if not declared:
        return False
    for env in _ENVS:
        if term_value(t, env, stripped=True) \
                > cost_value(declared, env, stripped=True) * 1.0001:
            return False
    return True


def any_arm_covers(arms: Iterable[Cost], t: Term) -> bool:
    """Coverage against a ``min(...)`` bound: the dispatcher takes the
    cheaper arm at runtime, so an inferred branch term is certified if
    *some* arm pays for it."""
    return any(covers(arm, t) for arm in arms)


def leading_ratio(inferred: Iterable[Term],
                  declared: Iterable[Term]) -> float:
    """min over large regimes of inferred/declared *with* coefficients:
    the constant-factor excess at leading order.  An asymptotically
    vanishing extra term drives this to ~1; an omitted pass at the
    bound's leading order keeps it >= 2."""
    inferred, declared = list(inferred), list(declared)
    ratio = float("inf")
    for env in _LARGE_ENVS:
        denom = cost_value(declared, env)
        if denom <= 0:
            return float("inf")
        ratio = min(ratio, cost_value(inferred, env) / denom)
    return ratio


def leading_term(cost: Iterable[Term]) -> Optional[Term]:
    """The term that dominates the sum in the large-N regimes."""
    best, best_value = None, -1.0
    for t in cost:
        value = sum(term_value(t, env, stripped=True)
                    for env in _LARGE_ENVS)
        if value > best_value:
            best, best_value = t, value
    return best


# ---------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------

_ATOM_TEXT = {
    "N": "N",
    "Z": "Z",
    "B": "B",
    "M": "M",
    "logm": "log_m(n)",
    "logB": "log_B(N)",
    "logN": "log2(N)",
    "K": "K",
}


def render_term(t: Term) -> str:
    num = [a for a in ATOMS if t.powers.get(a, 0) > 0]
    den = [a for a in ATOMS if t.powers.get(a, 0) < 0]
    parts: List[str] = []
    coeff = t.coeff
    if coeff and abs(coeff - round(coeff)) < 1e-9:
        coeff = round(coeff)
    if coeff != 1 or not num:
        parts.append(f"{coeff:g}")
    for atom in num:
        exp = t.powers[atom]
        text = _ATOM_TEXT[atom]
        parts.append(text if exp == 1 else f"{text}^{exp}")
    text = "·".join(parts)
    for atom in den:
        exp = -t.powers[atom]
        base = _ATOM_TEXT[atom]
        text += f"/{base}" if exp == 1 else f"/{base}^{exp}"
    return text


def render(cost: Iterable[Term]) -> str:
    cost = normalized(cost)
    if not cost:
        return "0"
    ordered = sorted(
        cost,
        key=lambda t: -sum(term_value(t, env, stripped=True)
                           for env in _LARGE_ENVS))
    return " + ".join(render_term(t) for t in ordered)


def render_arms(arms: Iterable[Cost]) -> str:
    arms = list(arms)
    if not arms:
        return "?"
    if len(arms) == 1:
        return render(arms[0])
    return "min(" + ", ".join(render(arm) for arm in arms) + ")"
