"""Typed block payloads: buffers instead of lists of Python objects.

The I/O model measures block capacity in *records*, so nothing in the
substrate cares how a payload is represented — but wall-clock time does.
A block of 64 Python ints costs 64 object headers, 64 refcount bumps per
copy, and 64 interpreter-dispatched comparisons per merge step.  The same
block as a numpy array (or an ``array.array``) is one contiguous buffer:
copies are ``memcpy``, comparisons are batched per block (Arge–Thorup's
RAM-efficient sorting), and serialization to a real file is ``tobytes()``.

This module is the single place that knows the payload representations:

* ``list`` — the seed representation, arbitrary Python objects;
* ``numpy.ndarray`` — scalar or structured dtype, the vectorized path;
* ``array.array`` — typed scalars without numpy.

Every helper preserves the input's representation, so a typed payload
stays typed through streams, the buffer pool, the write-behind window,
and the fault injector's torn prefixes.  Algorithms never branch on the
representation themselves; they call :func:`sort_payload` /
:func:`argsort` / :func:`take` / :func:`concat` and get the batch
implementation when one exists.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from typing import Any, Callable, Iterable, List, Optional, Sequence

try:  # numpy is the preferred typed backend but never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

np = _np  # re-exported so callers can gate their own fast paths


def is_typed(payload: Any) -> bool:
    """Whether ``payload`` is a buffer-backed (vectorizable) payload."""
    if isinstance(payload, array):
        return True
    return np is not None and isinstance(payload, np.ndarray)


def copy_payload(payload: Sequence[Any]) -> Sequence[Any]:
    """An independent, same-representation copy of ``payload``.

    The device layer's isolation contract: a stored block never aliases
    caller memory.  ``ndarray.copy()`` also compacts a view (a slice of a
    permuted memoryload) into an owned contiguous buffer.
    """
    if np is not None and isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, array):
        return array(payload.typecode, payload)
    return list(payload)


def concat(parts: Sequence[Sequence[Any]]) -> Sequence[Any]:
    """Concatenate payload ``parts``, preserving their representation.

    Mixed representations (or no parts) fall back to a plain list.
    """
    if not parts:
        return []
    if len(parts) == 1:
        return copy_payload(parts[0])
    first = parts[0]
    if np is not None and isinstance(first, np.ndarray) \
            and all(isinstance(p, np.ndarray) for p in parts):
        if first.dtype.names is not None and first.ndim == 1 \
                and all(p.ndim == 1 and p.dtype == first.dtype
                        for p in parts):
            # Preallocate-and-assign: ``np.concatenate`` re-derives a
            # promoted dtype per input, which is measurably hot for
            # structured dtypes on the merge path; same-dtype parts
            # need only memcpy.  Plain dtypes are cheaper to promote
            # than these checks, so they go straight to numpy.
            out = np.empty(sum(len(p) for p in parts),
                           dtype=first.dtype)
            pos = 0
            for part in parts:
                out[pos:pos + len(part)] = part
                pos += len(part)
            return out
        return np.concatenate(parts)
    if isinstance(first, array) \
            and all(isinstance(p, array)
                    and p.typecode == first.typecode for p in parts):
        out = array(first.typecode)
        for part in parts:
            out.extend(part)
        return out
    out_list: List[Any] = []
    for part in parts:
        out_list.extend(part)
    return out_list


def take(payload: Sequence[Any], indices: Sequence[int]) -> Sequence[Any]:
    """``[payload[i] for i in indices]`` in the payload's representation.

    The key-pointer sort's single permutation pass: records move once,
    through their pointers, never during the comparison sort.
    """
    if np is not None and isinstance(payload, np.ndarray):
        return payload[np.asarray(indices)]
    if isinstance(payload, array):
        return array(payload.typecode, (payload[i] for i in indices))
    return [payload[i] for i in indices]


class FieldKey:
    """A key function that names a record field (``record[name]``).

    Naming the field (instead of closing over it in a lambda) lets the
    batch helpers vectorize: a structured-array payload's keys are the
    column ``payload[name]``, extracted once per block.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __call__(self, record: Any) -> Any:
        return record[self.name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"field({self.name!r})"


def field(name: str) -> FieldKey:
    """Key function selecting ``record[name]``, vectorizable on
    structured-array payloads."""
    return FieldKey(name)


def _vector_keys(payload: Sequence[Any],
                 key: Optional[Callable[[Any], Any]]):
    """The key column of an ndarray payload, or None when the key cannot
    be applied batch-wise."""
    if np is None or not isinstance(payload, np.ndarray):
        return None
    if key is None or getattr(key, "__name__", "") == "identity":
        return payload if payload.dtype.names is None else None
    if isinstance(key, FieldKey) and payload.dtype.names \
            and key.name in payload.dtype.names:
        return payload[key.name]
    return None


def key_column(payload: Sequence[Any],
               key: Optional[Callable[[Any], Any]] = None):
    """The key column of a typed payload as an ndarray, or ``None``
    when no batch extraction exists (object payloads, opaque keys) —
    the gate for vectorized scatter/search fast paths."""
    return _vector_keys(payload, key)


def argsort(payload: Sequence[Any],
            key: Optional[Callable[[Any], Any]] = None) -> Sequence[int]:
    """Stable sort order of ``payload`` under ``key``, as indices.

    Vectorized (``numpy.argsort(kind="stable")``) when the payload is an
    ndarray and the key is the identity or a :func:`field` of it;
    otherwise a Python sort over an extracted key list — still one key
    call per record, never a full-record comparison.
    """
    column = _vector_keys(payload, key)
    if column is not None:
        return np.argsort(column, kind="stable")
    if key is None or getattr(key, "__name__", "") == "identity":
        keys: Sequence[Any] = payload
    else:
        keys = [key(record) for record in payload]
    return sorted(range(len(payload)), key=keys.__getitem__)


def sorts_by_value(payload: Sequence[Any],
                   key: Optional[Callable[[Any], Any]] = None) -> bool:
    """Whether ``payload`` is an integer or bool ndarray under the
    identity key: equal keys are then the same bytes, so no order among
    them can show.  Not floats: ``-0.0 == 0.0``, and NaN."""
    column = _vector_keys(payload, key)
    return column is payload and payload.dtype.kind in "iub"


def sort_payload(payload: Sequence[Any],
                 key: Optional[Callable[[Any], Any]] = None
                 ) -> Sequence[Any]:
    """``payload`` stably ordered by ``key``, as a new payload: the
    key-pointer sort (:func:`argsort`, then one :func:`take`), or
    ``np.sort`` of the values when the payload :func:`sorts_by_value`.
    """
    if sorts_by_value(payload, key):
        return np.sort(payload)
    return take(payload, argsort(payload, key))


def merge_values(left, right):
    """Merge two sorted integer columns: numpy's stable sort is a
    timsort, which merges the two runs in linear time."""
    return np.sort(np.concatenate((left, right)), kind="stable")


def key_list(payload: Sequence[Any],
             key: Optional[Callable[[Any], Any]] = None) -> List[Any]:
    """The block's keys as a Python list (for ``bisect`` galloping).

    ``ndarray.tolist()`` converts a whole column in C, yielding plain
    ints/floats/strs whose comparisons are an order of magnitude faster
    than numpy scalars under ``bisect``.  The returned list may alias
    ``payload`` when it already is a plain list of keys — callers must
    treat it as read-only.
    """
    column = _vector_keys(payload, key)
    if column is not None:
        return column.tolist()
    if key is None or getattr(key, "__name__", "") == "identity":
        if isinstance(payload, array):
            return payload.tolist()
        if isinstance(payload, list):
            return payload
        return list(payload)
    return [key(record) for record in payload]


# ----------------------------------------------------------------------
# canonical bytes: serialization and checksums
# ----------------------------------------------------------------------

_KIND_NDARRAY = b"N"
_KIND_ARRAY = b"A"
_KIND_PICKLE = b"P"

# (dtype, shape) <-> pickled header caches: a stream writes thousands of
# blocks sharing a handful of dtypes/lengths, and pickling the dtype per
# block costs more than the tobytes() that follows.  Bounded: cleared
# wholesale if a workload somehow produces unbounded distinct shapes.
_HEADER_CACHE_LIMIT = 1024
_encode_headers: dict = {}
_decode_headers: dict = {}
_dtype_tags: dict = {}


def _dtype_tag(dtype) -> bytes:
    # str() of a structured dtype rebuilds the full field spec every
    # call — several times the cost of hashing the block it tags.
    tag = _dtype_tags.get(dtype)
    if tag is None:
        if len(_dtype_tags) >= _HEADER_CACHE_LIMIT:
            _dtype_tags.clear()
        tag = b"N:" + str(dtype).encode("utf-8") + b":"
        _dtype_tags[dtype] = tag
    return tag


def _ndarray_header(dtype, shape) -> bytes:
    cache_key = (dtype, shape)
    header = _encode_headers.get(cache_key)
    if header is None:
        if len(_encode_headers) >= _HEADER_CACHE_LIMIT:
            _encode_headers.clear()
        header = pickle.dumps((dtype, shape), protocol=4)
        _encode_headers[cache_key] = header
    return header


def _ndarray_meta(header: bytes):
    meta = _decode_headers.get(header)
    if meta is None:
        if len(_decode_headers) >= _HEADER_CACHE_LIMIT:
            _decode_headers.clear()
        meta = pickle.loads(header)
        _decode_headers[header] = meta
    return meta


def canonical_bytes(records: Sequence[Any]) -> bytes:
    """Deterministic bytes covering **every** record of the payload.

    The checksum input.  ``repr`` is not usable here: numpy elides the
    middle of large arrays with ``...``, so two blocks differing only in
    elided elements would collide and a torn write would go undetected.
    Typed payloads hash their raw buffer (tagged with dtype/typecode so a
    reinterpreted buffer never collides); object payloads hash their
    pickle, falling back to ``repr`` for unpicklable records.
    """
    if np is not None and isinstance(records, np.ndarray) \
            and not records.dtype.hasobject:
        return _dtype_tag(records.dtype) + records.tobytes()
    if isinstance(records, array):
        return b"A:" + records.typecode.encode("utf-8") + b":" \
            + records.tobytes()
    try:
        return b"P:" + pickle.dumps(list(records), protocol=4)
    except Exception:
        return b"R:" + repr(list(records)).encode("utf-8")


def encode_block(records: Sequence[Any]) -> bytes:
    """Serialize a payload for a real-file backend.

    Typed payloads are a fixed header plus ``tobytes()``; object payloads
    (and object-dtype arrays) are pickled whole, so :func:`decode_block`
    restores exactly the representation that was written.
    """
    if np is not None and isinstance(records, np.ndarray) \
            and not records.dtype.hasobject:
        header = _ndarray_header(records.dtype, records.shape)
        return _KIND_NDARRAY + struct.pack("<I", len(header)) + header \
            + records.tobytes()
    if isinstance(records, array):
        typecode = records.typecode.encode("ascii")
        return _KIND_ARRAY + struct.pack("<I", len(typecode)) + typecode \
            + records.tobytes()
    payload = records if (np is not None
                          and isinstance(records, np.ndarray)) \
        else list(records)
    return _KIND_PICKLE + pickle.dumps(payload, protocol=4)


def decode_block(data: bytes) -> Sequence[Any]:
    """Inverse of :func:`encode_block`; returns an owned, writable
    payload in the representation that was encoded."""
    kind = data[:1]
    if kind == _KIND_NDARRAY:
        (header_len,) = struct.unpack_from("<I", data, 1)
        dtype, shape = _ndarray_meta(data[5:5 + header_len])
        flat = np.frombuffer(data, dtype=dtype, offset=5 + header_len)
        return flat.reshape(shape).copy()
    if kind == _KIND_ARRAY:
        (code_len,) = struct.unpack_from("<I", data, 1)
        typecode = data[5:5 + code_len].decode("ascii")
        out = array(typecode)
        out.frombytes(data[5 + code_len:])
        return out
    if kind == _KIND_PICKLE:
        return pickle.loads(data[1:])
    raise ValueError(f"unknown block encoding {kind!r}")


# ----------------------------------------------------------------------
# block assembly
# ----------------------------------------------------------------------

class BlockBuilder:
    """Accumulate payload segments and emit exactly-``B``-record blocks.

    The bridge between data-dependent producers (a distribution sort's
    buckets, a galloping merge's segments) and ``append_block``: segments
    of any length go in; every emitted block holds exactly ``B`` records
    except the one produced by the final :meth:`flush`.  This keeps block
    counts — and therefore simulated I/O — identical to the seed's
    record-at-a-time buffered writers.

    Segments are sliced lazily: ndarray slices are views, so a full
    aligned block passes through without a copy (the sink copies on
    store).
    """

    __slots__ = ("block_size", "_emit", "_parts", "_count")

    def __init__(self, block_size: int,
                 emit: Callable[[Sequence[Any]], None]):
        self.block_size = block_size
        self._emit = emit
        self._parts: List[Sequence[Any]] = []
        self._count = 0

    def __len__(self) -> int:
        """Records currently pending (always < ``B`` between calls)."""
        return self._count

    def push(self, payload: Sequence[Any], start: int = 0,
             stop: Optional[int] = None) -> None:
        """Append ``payload[start:stop]`` to the pending stream."""
        if stop is None:
            stop = len(payload)
        block_size = self.block_size
        while start < stop:
            if not self._parts and stop - start >= block_size:
                # Aligned full block: emit the slice directly.
                self._emit(payload[start:start + block_size])
                start += block_size
                continue
            chunk = min(block_size - self._count, stop - start)
            self._parts.append(payload[start:start + chunk])
            self._count += chunk
            start += chunk
            if self._count == block_size:
                self._emit(concat(self._parts))
                self._parts = []
                self._count = 0

    def flush(self) -> None:
        """Emit the pending partial block (if any)."""
        if self._parts:
            self._emit(concat(self._parts))
            self._parts = []
            self._count = 0
