"""F6 — matrix transpose: blocked tiles vs the RAM loop.

Paper claim: when a ``B × B`` tile fits in memory, transpose costs one
read + one write pass (``2N/B``); the column-by-column RAM loop costs up
to one I/O per element once a column's blocks exceed the pool.

Reproduction: square matrices of growing size; blocked transpose must
stay at exactly ``2N/B`` while the naive loop approaches ``N`` reads.
The smallest matrix (16 blocks) fits the pool's frames, so there the
naive loop's column walk hits cached blocks and costs what blocked does.
"""

from conftest import report

from repro.core import Machine
from repro.matrix import ExternalMatrix, transpose_blocked, transpose_naive

B, M_BLOCKS = 16, 32  # B^2 = 256 <= M - B = 496


def run_experiment():
    rows = []
    for side in (16, 64, 128):
        n = side * side
        m1 = Machine(block_size=B, memory_blocks=M_BLOCKS)
        mat1 = ExternalMatrix.from_function(
            m1, side, side, lambda i, j: i * side + j
        )
        m1.reset_stats()
        transpose_blocked(m1, mat1)
        blocked = m1.stats().total

        m2 = Machine(block_size=B, memory_blocks=M_BLOCKS)
        mat2 = ExternalMatrix.from_function(
            m2, side, side, lambda i, j: i * side + j
        )
        m2.reset_stats()
        transpose_naive(m2, mat2)
        naive = m2.stats().total

        rows.append([
            f"{side}x{side}", 2 * n // B, blocked, naive,
            f"{naive / blocked:.1f}x",
        ])
        assert blocked == 2 * n // B  # exactly two passes
    # A matrix the pool holds costs the naive loop no extra I/O; the gap
    # opens once the matrix outgrows the pool.
    blocked_io, naive_io = zip(*(row[2:4] for row in rows))
    assert naive_io[0] == blocked_io[0]
    assert all(n > b for n, b in zip(naive_io[1:], blocked_io[1:]))
    return rows


def test_f6_transpose(once):
    rows = once(run_experiment)
    report(
        "F6", f"transpose I/Os, B={B}, m={M_BLOCKS}",
        ["matrix", "2N/B", "blocked I/O", "naive I/O", "naive/blocked"],
        rows,
    )
