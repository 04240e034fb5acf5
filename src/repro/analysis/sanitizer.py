"""Runtime I/O-bound sanitizer: the bounds table as an executable contract.

:func:`io_bound` decorates a public algorithm with its theoretical I/O
bound (a callable over the machine parameters, usually one of
:mod:`repro.core.bounds`).  Decoration alone only *registers* the
contract; with ``REPRO_IO_SANITIZE=1`` in the environment every call is
measured and asserted::

    measured_IOs  ≤  factor · theory(machine, N)  +  slack
    budget.peak   ≤  M

and a :class:`SanitizerRecord` with the measured-vs-theory ratio is
appended to :func:`records` for reporting.  A violation raises
:class:`IOBoundViolation` (an ``AssertionError`` subclass), so a test
suite run under the sanitizer fails loudly when an algorithm drifts out
of its constant-factor envelope.

The ``theory`` callable receives ``(machine, n)`` and may additionally
declare parameters named ``result`` (the function's return value, for
output-sensitive bounds like ``Sort(N) + Z/B``) and/or ``call`` (a dict
of the bound call arguments, for bounds that depend on tuning knobs like
``fan_in``).

A cooperative generator (a ``*_steps`` function) is registered but not
measured: its I/O is done by whichever driver runs it, interleaved with
other jobs' under the query service.  EM-cost certifies it statically,
and the eager drivers of its phases are measured instead.
"""

from __future__ import annotations

import functools
import inspect
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.machine import Machine

ENV_FLAG = "REPRO_IO_SANITIZE"


class IOBoundViolation(AssertionError):
    """A decorated algorithm exceeded its asserted I/O (or memory)
    envelope while the sanitizer was active."""


@dataclass
class SanitizerRecord:
    """One measured call of an ``@io_bound`` algorithm."""

    name: str
    n: int
    measured: int
    theory: float
    allowed: float

    @property
    def ratio(self) -> float:
        """Measured I/Os per theoretical I/O (0 when theory is 0)."""
        return self.measured / self.theory if self.theory else 0.0


@dataclass
class BoundSpec:
    """Registered contract for one algorithm."""

    name: str
    func: Callable[..., Any]
    theory: Callable[..., float]
    factor: float
    slack: Optional[int]


_REGISTRY: Dict[str, BoundSpec] = {}
_RECORDS: List[SanitizerRecord] = []


def sanitize_enabled() -> bool:
    """Whether ``REPRO_IO_SANITIZE`` is set (checked on every call, so
    tests can flip it with ``monkeypatch.setenv``)."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in (
        "", "0", "false", "no")


def registry() -> Dict[str, BoundSpec]:
    """Copy of the registered algorithm → bound-spec mapping."""
    return dict(_REGISTRY)


def records() -> List[SanitizerRecord]:
    """Records accumulated since the last :func:`clear_records`."""
    return list(_RECORDS)


def clear_records() -> None:
    """Drop accumulated sanitizer records (between experiments)."""
    _RECORDS.clear()


def sized(value: Any, default: int = -1) -> int:
    """``len(value)`` when it is sized, else ``default``.  Theories use
    this to skip the envelope (returning ``inf``) for one-shot iterable
    inputs whose size cannot be known up front."""
    try:
        return len(value)
    except TypeError:
        return default


def _find_machine(args: tuple, kwargs: dict) -> Optional[Machine]:
    """First Machine among the arguments, or the ``.machine`` of the
    first argument that carries one (Table, FileStream, ...)."""
    values = list(args) + list(kwargs.values())
    for value in values:
        if isinstance(value, Machine):
            return value
    for value in values:
        carried = getattr(value, "machine", None)
        if isinstance(carried, Machine):
            return carried
    return None


def _default_n(args: tuple, kwargs: dict) -> int:
    """Problem size N: the length of the first sized argument."""
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, Machine):
            continue
        try:
            return len(value)
        except TypeError:
            continue
    return 0


def _bind_call(func: Callable[..., Any], args: tuple,
               kwargs: dict) -> Dict[str, Any]:
    try:
        bound = inspect.signature(func).bind(*args, **kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)
    except TypeError:  # signature mismatch surfaces from func itself
        return dict(kwargs)


def io_bound(
    theory: Callable[..., float],
    *,
    factor: float = 4.0,
    slack: Optional[int] = None,
    n: Optional[Callable[..., int]] = None,
    machine: Optional[Callable[..., Machine]] = None,
    label: Optional[str] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Declare an algorithm's I/O bound and register it for sanitizing.

    Args:
        theory: callable ``(machine, n) -> I/Os`` (optionally also
            taking ``result`` and/or ``call`` keyword parameters).
        factor: allowed constant factor over ``theory``.
        slack: allowed additive I/Os (default ``4·m + 16``, covering
            short trailing blocks and per-run bookkeeping).
        n: optional extractor ``(*args, **kwargs) -> N`` overriding the
            first-sized-argument default.
        machine: optional extractor for the machine being charged.
        label: registry key (default ``module.qualname``).
    """
    theory_params = set(inspect.signature(theory).parameters)
    wants_result = "result" in theory_params
    wants_call = "call" in theory_params

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        name = label or f"{func.__module__}.{func.__qualname__}"
        _REGISTRY[name] = BoundSpec(
            name=name, func=func, theory=theory, factor=factor,
            slack=slack)
        if inspect.isgeneratorfunction(func):
            # A cooperative generator's I/O happens in whichever driver
            # runs it, interleaved with other jobs under the service:
            # EM-cost certifies it statically, and the eager drivers of
            # its phases are the calls measured here.
            func.__io_bound__ = _REGISTRY[name]
            return func

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not sanitize_enabled():
                return func(*args, **kwargs)
            m = machine(*args, **kwargs) if machine else _find_machine(
                args, kwargs)
            if m is None:
                return func(*args, **kwargs)
            n_value = n(*args, **kwargs) if n else _default_n(
                args, kwargs)
            before = m.stats()
            result = func(*args, **kwargs)
            measured = (m.stats() - before).total
            extras: Dict[str, Any] = {}
            if wants_result:
                extras["result"] = result
            if wants_call:
                extras["call"] = _bind_call(func, args, kwargs)
            theory_value = float(theory(m, n_value, **extras))
            slack_value = slack if slack is not None else 4 * m.m + 16
            allowed = factor * theory_value + slack_value
            _RECORDS.append(SanitizerRecord(
                name=name, n=n_value, measured=measured,
                theory=theory_value, allowed=allowed))
            if measured > allowed:
                raise IOBoundViolation(
                    f"{name}: measured {measured} I/Os exceeds allowed "
                    f"{allowed:.0f} (= {factor} x theory "
                    f"{theory_value:.0f} + {slack_value}) for N="
                    f"{n_value} on {m!r}"
                )
            if m.budget.peak > m.M:
                raise IOBoundViolation(
                    f"{name}: memory peak {m.budget.peak} exceeds "
                    f"M={m.M} on {m!r}"
                )
            return result

        wrapper.__io_bound__ = _REGISTRY[name]
        return wrapper

    return decorate


def sanitizer_report() -> str:
    """Human-readable measured-vs-theory summary of accumulated records,
    worst offender first."""
    if not _RECORDS:
        return "sanitizer: no records"
    worst: Dict[str, SanitizerRecord] = {}
    calls: Dict[str, int] = {}
    for record in _RECORDS:
        calls[record.name] = calls.get(record.name, 0) + 1
        if (record.name not in worst
                or record.ratio > worst[record.name].ratio):
            worst[record.name] = record
    lines = [
        f"{'algorithm':<55} {'calls':>5} {'N':>9} {'measured':>9} "
        f"{'theory':>9} {'ratio':>6}"
    ]
    for name, record in sorted(
            worst.items(), key=lambda kv: -kv[1].ratio):
        lines.append(
            f"{name:<55} {calls[name]:>5} {record.n:>9} "
            f"{record.measured:>9} {record.theory:>9.0f} "
            f"{record.ratio:>6.2f}"
        )
    return "\n".join(lines)
