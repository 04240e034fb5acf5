"""Dense matrices in external memory: transpose and multiply.

A ``p × q`` matrix is stored row-major, packed ``B`` records per block.
Transposing it is a *permutation*, and the survey's transpose bound
``Θ((N/B) log_{M/B} min(M, p, q, N/B))`` interpolates between one scan
(when a ``B × B`` tile fits in memory) and the full permutation cost.

* :func:`transpose_naive` reads the input column by column through the
  buffer pool — the RAM-model loop — paying ~1 I/O per element once the
  matrix outgrows the pool.
* :func:`transpose_blocked` moves ``B × B`` tiles through memory: read
  ``B`` blocks, transpose in RAM, write ``B`` blocks — ``2N/B`` I/Os when
  ``B² ≤ M`` (the common case), falling back to sort-based permuting
  otherwise.
* :func:`multiply_blocked` is classic tiled matrix multiply with three
  ``t × t`` tiles resident (``3t² ≤ M``), versus :func:`multiply_naive`.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..analysis.sanitizer import io_bound
from ..core.blockfile import BlockFile
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..pipeline.sorter import Sorter, _primed


_target = itemgetter(0)


def _matrix_n(machine: Machine, matrix: "ExternalMatrix") -> int:
    return matrix.rows * matrix.cols


def _permute_theory(machine: Machine, n: int) -> int:
    """General-permutation regime: ``O(Sort(N))`` plus the I/O scans."""
    return (sort_io(n, machine.M, machine.B, machine.D)
            + 4 * scan_io(n, machine.B, machine.D))


class ExternalMatrix:
    """A ``rows × cols`` matrix stored row-major on the simulated disk."""

    def __init__(self, machine: Machine, rows: int, cols: int,
                 blocks: Optional[BlockFile] = None):
        if rows < 1 or cols < 1:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got {rows}x{cols}"
            )
        self.machine = machine
        self.rows = rows
        self.cols = cols
        B = machine.block_size
        needed = (rows * cols + B - 1) // B
        if blocks is None:
            blocks = BlockFile(machine, needed, name="matrix")
        elif blocks.num_blocks != needed:
            raise ConfigurationError(
                f"block file has {blocks.num_blocks} blocks, "
                f"need {needed} for a {rows}x{cols} matrix"
            )
        self.blocks = blocks

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, machine: Machine,
                  data: Sequence[Sequence[Any]]) -> "ExternalMatrix":
        """Build a matrix from a list of equal-length rows."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for row in data:
            if len(row) != cols:
                raise ConfigurationError("ragged rows are not a matrix")
        flat: List[Any] = [value for row in data for value in row]
        matrix = cls(machine, rows, cols)
        B = machine.block_size
        for index in range(matrix.blocks.num_blocks):
            matrix.blocks.write_block(
                index, flat[index * B:(index + 1) * B]
            )
        return matrix

    @classmethod
    def from_function(
        cls, machine: Machine, rows: int, cols: int,
        fn: Callable[[int, int], Any],
    ) -> "ExternalMatrix":
        """Build a matrix with entry ``(i, j)`` equal to ``fn(i, j)``,
        writing each block exactly once."""
        matrix = cls(machine, rows, cols)
        B = machine.block_size
        buffer: List[Any] = []
        index = 0
        for i in range(rows):
            for j in range(cols):
                buffer.append(fn(i, j))
                if len(buffer) == B:
                    matrix.blocks.write_block(index, buffer)
                    index += 1
                    buffer = []
        if buffer:
            matrix.blocks.write_block(index, buffer)
        return matrix

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> Any:
        """Read a single entry through the buffer pool (cached)."""
        self._check_entry(i, j)
        position = i * self.cols + j
        block = self.machine.pool.get(
            self.blocks.block_id(position // self.machine.block_size)
        )
        return block[position % self.machine.block_size]

    def to_rows(self) -> List[List[Any]]:
        """Materialize the whole matrix (test helper; one scan)."""
        flat = list(self.blocks.scan())
        return [
            flat[i * self.cols:(i + 1) * self.cols]
            for i in range(self.rows)
        ]

    def read_tile(self, r0: int, r1: int, c0: int, c1: int) -> List[List[Any]]:
        """Read the submatrix ``[r0, r1) × [c0, c1)``.

        Each row segment needs its covering blocks (contiguous); the
        distinct blocks of the whole tile are fetched with one batched
        pool request (:meth:`~repro.core.cache.BufferPool.get_many`), so
        a tile of ``t`` rows costs at most ``t · ceil(t/B + 1)`` reads —
        fewer when rows share blocks — issued as parallel waves.
        """
        B = self.machine.block_size
        spans: List[Tuple[int, int, int]] = []
        needed: List[int] = []
        seen = set()
        for i in range(r0, r1):
            start = i * self.cols + c0
            first_block = start // B
            last_block = (i * self.cols + c1 - 1) // B
            spans.append((start, first_block, last_block))
            for index in range(first_block, last_block + 1):
                if index not in seen:
                    seen.add(index)
                    needed.append(index)
        block_ids = [self.blocks.block_id(index) for index in needed]
        payloads = dict(zip(
            needed, self.machine.pool.get_many(block_ids)
        ))
        tile: List[List[Any]] = []
        for start, first_block, last_block in spans:
            segment: List[Any] = []
            for index in range(first_block, last_block + 1):
                segment.extend(payloads[index])
            offset = start - first_block * B
            tile.append(segment[offset:offset + (c1 - c0)])
        return tile

    def _check_entry(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ConfigurationError(
                f"entry ({i}, {j}) outside {self.rows}x{self.cols}"
            )

    def delete(self) -> None:
        """Free the matrix's blocks."""
        self.blocks.delete()


# ----------------------------------------------------------------------
# transpose
# ----------------------------------------------------------------------
# em: ok(EM201) dim-structured: the col/row loops jointly cover N=p·q
@io_bound(lambda machine, n: n + 2 * scan_io(n, machine.B, machine.D),
          factor=2.0, n=_matrix_n)
def transpose_naive(machine: Machine, matrix: ExternalMatrix) -> ExternalMatrix:
    """Transpose with the RAM-model column loop.

    Reads the input column by column through the buffer pool; once a
    column's blocks exceed the pool, every element access is a miss and
    the cost approaches one I/O per element.
    """
    result = ExternalMatrix(machine, matrix.cols, matrix.rows)
    B = machine.block_size
    buffer: List[Any] = []
    out_index = 0
    with machine.budget.reserve(B):
        for j in range(matrix.cols):
            for i in range(matrix.rows):
                buffer.append(matrix.get(i, j))
                if len(buffer) == B:
                    result.blocks.write_block(out_index, buffer)
                    out_index += 1
                    buffer = []
        if buffer:
            result.blocks.write_block(out_index, buffer)
    return result


# em: ok(EM201) dim-structured: the tile loops jointly cover N/B² tiles
@io_bound(_permute_theory, factor=3.0, n=_matrix_n)
def transpose_blocked(machine: Machine,
                      matrix: ExternalMatrix) -> ExternalMatrix:
    """Transpose by moving ``B × B`` tiles through memory.

    When the matrix dimensions are multiples of ``B`` and a tile fits in
    memory, each tile costs ``B`` reads + ``B`` writes: ``2N/B`` I/Os in
    total — the transpose bound's one-scan regime.  Otherwise falls back
    to :func:`transpose_by_sort` (the general-permutation regime).
    """
    B = machine.block_size
    p, q = matrix.rows, matrix.cols
    # A full tile plus the input and output block-file frames must fit.
    tile_fits = B * B <= machine.M - 2 * machine.B
    aligned = p % B == 0 and q % B == 0
    if not (tile_fits and aligned):
        return transpose_by_sort(machine, matrix)

    result = ExternalMatrix(machine, q, p)
    in_blocks_per_row = q // B
    out_blocks_per_row = p // B
    with machine.budget.reserve(B * B):
        for tile_i in range(p // B):
            for tile_j in range(q // B):
                tile = [
                    matrix.blocks.read_block(
                        (tile_i * B + r) * in_blocks_per_row + tile_j
                    )
                    for r in range(B)
                ]
                for c in range(B):
                    out_row = [tile[r][c] for r in range(B)]
                    result.blocks.write_block(
                        (tile_j * B + c) * out_blocks_per_row + tile_i,
                        out_row,
                    )
    return result


@io_bound(_permute_theory, factor=3.0, n=_matrix_n)
def transpose_by_sort(machine: Machine,
                      matrix: ExternalMatrix) -> ExternalMatrix:
    """Transpose as a general permutation routed by a pipelined sort:
    ``O(Sort(N))`` I/Os, no alignment requirements — one input scan
    into the sort, its runs written and read back (nothing when the
    matrix fits one memoryload), and one write of the result."""
    p, q = matrix.rows, matrix.cols
    B = machine.block_size
    with Sorter(machine, key=_target, name="transpose/tagged") as ordered:
        ordered.consume(
            ((position % q) * p + position // q, value)
            for position, value in enumerate(matrix.blocks.scan()))
        # The pull is planned beside the output buffer and leaves the
        # result's block file its spare frame; both are taken once the
        # first record is pulled.
        pull = _primed(ordered.finish(beside=B))
        result = ExternalMatrix(machine, q, p)
        try:
            with machine.budget.reserve(B):
                buffer: List[Any] = []
                index = 0
                for _, value in pull:
                    buffer.append(value)
                    if len(buffer) == B:
                        result.blocks.write_block(index, buffer)
                        index += 1
                        buffer = []
                if buffer:
                    result.blocks.write_block(index, buffer)
        except BaseException:
            result.delete()
            raise
    return result


# ----------------------------------------------------------------------
# multiply
# ----------------------------------------------------------------------
# em: ok(EM201) dim-structured: the i/j/k loops jointly cover N=p·q·r
@io_bound(lambda machine, n: n + 2 * scan_io(n, machine.B, machine.D),
          factor=2.0,
          n=lambda machine, a, b: a.rows * a.cols * b.cols)
def multiply_naive(machine: Machine, a: ExternalMatrix,
                   b: ExternalMatrix) -> ExternalMatrix:
    """Multiply with the RAM-model triple loop through the buffer pool.

    ``a.get(i, k)`` accesses are row-local (cache friendly) but
    ``b.get(k, j)`` walks a column per output entry, so large inputs pay
    ~1 I/O per multiply-add."""
    if a.cols != b.rows:
        raise ConfigurationError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    result = ExternalMatrix(machine, a.rows, b.cols)
    B = machine.block_size
    buffer: List[Any] = []
    out_index = 0
    with machine.budget.reserve(B):
        for i in range(a.rows):
            for j in range(b.cols):
                total = 0
                for k in range(a.cols):
                    total += a.get(i, k) * b.get(k, j)
                buffer.append(total)
                if len(buffer) == B:
                    result.blocks.write_block(out_index, buffer)
                    out_index += 1
                    buffer = []
        if buffer:
            result.blocks.write_block(out_index, buffer)
    return result


def _blocked_multiply_theory(machine: Machine, n: int,
                             call: dict) -> float:
    """``O(n³/(B·t))`` tile traffic for ``n³ = p·q·r`` multiply-adds,
    plus the result writes."""
    t = call.get("tile") or max(1, math.isqrt(machine.M // 3))
    return (4 * n / (machine.B * t)
            + 4 * scan_io(n, machine.B, machine.D))


# em: ok(EM201, EM205) tile bound N^{3/2}/(B·√M) lies outside the
# N,M,B term algebra (√M tile side); certified by the sanitizer envelope
@io_bound(_blocked_multiply_theory, factor=4.0,
          n=lambda machine, a, b, tile=None: a.rows * a.cols * b.cols)
def multiply_blocked(machine: Machine, a: ExternalMatrix,
                     b: ExternalMatrix,
                     tile: Optional[int] = None) -> ExternalMatrix:
    """Tiled matrix multiply: three ``t × t`` tiles resident at once
    (``3t² ≤ M``), giving ``O(N^{3/2} / (B·√M))`` I/Os — the survey's
    matrix-multiply bound."""
    if a.cols != b.rows:
        raise ConfigurationError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    p, q, r = a.rows, a.cols, b.cols
    if tile is not None:
        t = tile
    else:
        # Resident set: an accumulator band (t·r), an A tile (t²), and a
        # B tile (t²), plus the three block-file frames (a, b, result).
        t = max(1, int(math.isqrt(machine.M // 3)))
        while t > 1 and t * r + 2 * t * t + 3 * machine.B > machine.M:
            t -= 1
    if t * r + 2 * t * t + 3 * machine.B > machine.M:
        raise ConfigurationError(
            f"tile size {t} needs {t * r + 2 * t * t + 3 * machine.B} "
            f"resident records for a {p}x{q} @ {q}x{r} multiply, "
            f"M={machine.M}"
        )
    # Accumulator tiles are built in memory row-band by row-band and
    # written once at the end of each (i-band, j-band) pass.
    result_rows: List[List[Any]] = []
    result = ExternalMatrix(machine, p, r)
    B = machine.block_size
    write_buffer: List[Any] = []
    out_index = 0

    def flush_band(band: List[List[Any]]) -> None:
        nonlocal write_buffer, out_index
        for row in band:
            for value in row:
                write_buffer.append(value)
                if len(write_buffer) == B:
                    result.blocks.write_block(out_index, write_buffer)
                    out_index += 1
                    write_buffer = []

    for i0 in range(0, p, t):
        i1 = min(i0 + t, p)
        band = [[0] * r for _ in range(i1 - i0)]
        with machine.budget.reserve((i1 - i0) * r):
            for k0 in range(0, q, t):
                k1 = min(k0 + t, q)
                with machine.budget.reserve((i1 - i0) * (k1 - k0)):
                    a_tile = a.read_tile(i0, i1, k0, k1)
                    for j0 in range(0, r, t):
                        j1 = min(j0 + t, r)
                        with machine.budget.reserve(
                            (k1 - k0) * (j1 - j0)
                        ):
                            b_tile = b.read_tile(k0, k1, j0, j1)
                            for i in range(i1 - i0):
                                row = a_tile[i]
                                out = band[i]
                                for k in range(k1 - k0):
                                    aik = row[k]
                                    if aik == 0:
                                        continue
                                    b_row = b_tile[k]
                                    for j in range(j1 - j0):
                                        out[j0 + j] += aik * b_row[j]
            flush_band(band)
    if write_buffer:
        result.blocks.write_block(out_index, write_buffer)
    return result
