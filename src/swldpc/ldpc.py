"""Sparse binary parity-check codes and syndrome encoding.

A code is held as a :class:`SparseParityMatrix`: the m x n binary matrix H
as sorted row adjacency, with one flat row-major index of its nonzeros.
Compression of a source block u is the syndrome map s = H u over GF(2);
the joint decoder recovers u from s.

The on-disk interchange format is the plain-text alist convention used for
published LDPC matrices, see :func:`load_alist` / :func:`save_alist`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class ConstructionError(RuntimeError):
    """Raised when randomized code construction cannot produce a matrix."""


class AlistFormatError(ValueError):
    """Malformed alist text. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SparseParityMatrix:
    """Binary parity-check matrix held as sorted row adjacency.

    Attributes:
        n: number of columns (source block length).
        m: number of rows (syndrome length), m <= n.
        rows: for each row, the strictly increasing tuple of column indices
            of its ones.
        entries: the same nonzeros as one row-major flat index, a pair of
            read-only int64 arrays (column ids, row ids). Built from
            ``rows`` at construction; not a constructor argument.

    The object is immutable, so it can be shared freely across decoder
    sessions. Use :meth:`from_rows` to build one from unsorted rows.
    """

    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]
    entries: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"column count must be positive, got {self.n}")
        if not 0 <= self.m <= self.n:
            raise ValueError(
                f"row count must satisfy 0 <= m <= n, got m={self.m}, n={self.n}"
            )
        if len(self.rows) != self.m:
            raise ValueError(f"expected m={self.m} rows, got {len(self.rows)}")
        lengths = np.fromiter(map(len, self.rows), dtype=np.int64, count=self.m)
        cols = np.fromiter(
            chain.from_iterable(self.rows), dtype=np.int64, count=int(lengths.sum())
        )
        owner = np.repeat(np.arange(self.m, dtype=np.int64), lengths)
        outside = (cols < 0) | (cols >= self.n)
        if outside.any():
            e = int(np.argmax(outside))
            raise ValueError(
                f"row {owner[e]} has column index {cols[e]} outside [0, {self.n})"
            )
        unsorted = (np.diff(cols) <= 0) & (np.diff(owner) == 0)
        if unsorted.any():
            j = int(owner[np.argmax(unsorted)])
            raise ValueError(f"row {j} is not sorted or has duplicates: {self.rows[j]}")
        cols.flags.writeable = False
        owner.flags.writeable = False
        object.__setattr__(self, "entries", (cols, owner))

    def __reduce__(self):
        # pickle the rows alone; the copy rebuilds its read-only index
        return (SparseParityMatrix, (self.n, self.m, self.rows))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[Iterable[int]]) -> "SparseParityMatrix":
        """Build a matrix from row adjacency in any order; repeats collapse."""
        row_tuples = tuple(tuple(sorted(set(int(i) for i in row))) for row in rows)
        return cls(n=n, m=len(row_tuples), rows=row_tuples)

    @property
    def cols(self) -> tuple[tuple[int, ...], ...]:
        """For each column, the sorted tuple of row indices of its ones."""
        cols, owner = self.entries
        # stable, so each column keeps the ascending row order of the index
        by_col = owner[np.argsort(cols, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(cols, minlength=self.n)).tolist()
        return tuple(
            tuple(by_col[start:end]) for start, end in zip([0] + ends, ends)
        )

    @property
    def num_entries(self) -> int:
        return len(self.entries[0])

    @property
    def rate(self) -> float:
        """Nominal compression rate m/n in bits per source bit."""
        return self.m / self.n

    def to_dense(self) -> np.ndarray:
        """Dense (m, n) uint8 copy, for small-instance tooling."""
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        cols, owner = self.entries
        h[owner, cols] = 1
        return h


def identity_matrix(n: int) -> SparseParityMatrix:
    """The n x n identity as a parity-check matrix (the uncompressed case).

    Its syndrome is the source block itself, which lets the rate-1 corner
    point flow through the same encode/decode pathway as any other code.
    """
    return SparseParityMatrix(n=n, m=n, rows=tuple((i,) for i in range(n)))


def gallager_construct(
    n: int, dv: int, dc: int, seed: int, max_retries: int = 2000
) -> SparseParityMatrix:
    """Random (dv, dc)-regular parity-check matrix on n columns.

    Every column has weight exactly dv and every row weight exactly dc,
    giving m = n*dv/dc rows. The construction matches variable sockets to
    check sockets through a random permutation and resamples whenever the
    permutation would create a parallel edge (a repeated (row, column)
    pair), so the result is a simple bipartite graph. 4-cycles are not
    excluded. Deterministic given the seed.

    Args:
        n: block length; n*dv must be divisible by dc and n >= dc.
        dv: column weight, at least 2.
        dc: row weight, strictly greater than dv.
        seed: 64-bit seed for the permutation stream.
        max_retries: bound on rejection resampling before giving up.

    Raises:
        ValueError: incompatible (n, dv, dc).
        ConstructionError: no parallel-edge-free permutation found within
            max_retries draws.
    """
    if dv < 2:
        raise ValueError(f"variable degree must be at least 2, got dv={dv}")
    if dc <= dv:
        raise ValueError(f"check degree must exceed variable degree, got dv={dv}, dc={dc}")
    if n < dc:
        raise ValueError(f"block length must be at least dc, got n={n}, dc={dc}")
    if (n * dv) % dc != 0:
        raise ValueError(f"n*dv must be divisible by dc, got n={n}, dv={dv}, dc={dc}")
    m = (n * dv) // dc
    rng = np.random.default_rng(int(seed) % 2**64)
    var_of_socket = np.repeat(np.arange(n, dtype=np.int64), dv)
    for _ in range(max_retries):
        check_of_socket = rng.permutation(n * dv) // dc
        keys = np.sort(check_of_socket * n + var_of_socket)
        if np.any(np.diff(keys) == 0):
            continue  # parallel edge, reject the whole permutation
        # keys are sorted and distinct, so every row is strictly increasing
        rows = (keys % n).reshape(m, dc).tolist()
        return SparseParityMatrix(n=n, m=m, rows=tuple(map(tuple, rows)))
    raise ConstructionError(
        f"could not build a parallel-edge-free ({dv},{dc})-regular matrix with "
        f"n={n} within {max_retries} permutation draws"
    )


def as_bit_array(bits: Sequence[int] | np.ndarray, length: int | None = None) -> np.ndarray:
    """Coerce a 0/1 sequence to a uint8 array, validating values and length."""
    u = np.asarray(bits)
    if u.ndim != 1:
        raise ValueError(f"bit sequence must be one-dimensional, got shape {u.shape}")
    if u.size and not np.isin(u, (0, 1)).all():
        raise ValueError("bit sequence may only contain 0 and 1")
    if length is not None and u.size != length:
        raise ValueError(f"bit sequence has length {u.size}, expected {length}")
    return u.astype(np.uint8)


def syndrome(h: SparseParityMatrix, u: Sequence[int] | np.ndarray) -> np.ndarray:
    """Syndrome s = H u over GF(2); the compression of source block u.

    s[j] is the XOR of u over the columns in row j. Linear: the syndrome
    of u XOR v is the XOR of the two syndromes.

    Returns:
        uint8 array of length h.m.
    """
    u = as_bit_array(u, h.n)
    cols, owner = h.entries
    acc = np.bincount(owner, weights=u[cols].astype(np.float64), minlength=h.m)
    return (acc.astype(np.int64) & 1).astype(np.uint8)


def gf2_rank(h: SparseParityMatrix) -> int:
    """Rank of H over GF(2).

    Random regular constructions are occasionally rank-deficient; they
    still work, the deficiency just wastes syndrome bits. The true rate
    of a code is gf2_rank(h)/h.n rather than h.m/h.n.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for row in h.rows:
        acc = 0
        for i in row:
            acc |= 1 << i
        while acc:
            top = acc.bit_length() - 1
            if top in pivots:
                acc ^= pivots[top]
            else:
                pivots[top] = acc
                rank += 1
                break
    return rank


def save_alist(h: SparseParityMatrix) -> str:
    """Serialize a matrix to canonical alist text.

    Layout: "n m" header, then "max_col_weight max_row_weight", the n
    column weights, the m row weights, one line of 1-based row indices per
    column, one line of 1-based column indices per row. Canonical output
    has sorted ascending indices, single spaces, no zero padding and a
    trailing newline, so equal matrices serialize byte-identically.
    """
    cols = h.cols
    col_weights = [len(c) for c in cols]
    row_weights = [len(r) for r in h.rows]
    lines = [
        f"{h.n} {h.m}",
        f"{max(col_weights, default=0)} {max(row_weights, default=0)}",
        " ".join(str(w) for w in col_weights),
        " ".join(str(w) for w in row_weights),
    ]
    for col in cols:
        lines.append(" ".join(str(j + 1) for j in col))
    for row in h.rows:
        lines.append(" ".join(str(i + 1) for i in row))
    return "\n".join(lines) + "\n"


def _parse_ints(line: str, lineno: int, what: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise AlistFormatError(f"{what}: expected integers, got {line!r}", lineno) from None


def _parse_adjacency(
    line: str, lineno: int, what: str, declared_weight: int, limit: int
) -> tuple[int, ...]:
    """Parse one 1-based adjacency line; zeros are padding and ignored."""
    values = _parse_ints(line, lineno, what)
    entries = []
    for v in values:
        if v == 0:
            continue  # zero padding, tolerated on read
        if not 1 <= v <= limit:
            raise AlistFormatError(f"{what}: index {v} outside [1, {limit}]", lineno)
        entries.append(v - 1)
    if len(set(entries)) != len(entries):
        raise AlistFormatError(f"{what}: duplicate entry", lineno)
    if len(entries) != declared_weight:
        raise AlistFormatError(
            f"{what}: declared weight {declared_weight} but {len(entries)} entries", lineno
        )
    return tuple(sorted(entries))


def load_alist(text: str) -> SparseParityMatrix:
    """Parse alist text into a matrix, validating it fully.

    Zero-padded adjacency entries are accepted (some published files pad
    every line to the maximum weight). The row and column listings must
    describe the same matrix; any inconsistency is reported with the
    1-based line number where it was detected.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def get_line(idx: int) -> str:
        if idx >= len(lines):
            raise AlistFormatError("unexpected end of file", len(lines) + 1)
        return lines[idx]

    header = _parse_ints(get_line(0), 1, "header")
    if len(header) != 2 or header[0] < 1 or header[1] < 0:
        raise AlistFormatError(f"header must be 'n m' with n >= 1, got {lines[0]!r}", 1)
    n, m = header
    if m > n:
        raise AlistFormatError(f"row count {m} exceeds column count {n}", 1)

    max_weights = _parse_ints(get_line(1), 2, "maximum weights")
    if len(max_weights) != 2 or min(max_weights) < 0:
        raise AlistFormatError(f"expected 'max_col_weight max_row_weight', got {lines[1]!r}", 2)

    col_weights = _parse_ints(get_line(2), 3, "column weights")
    if len(col_weights) != n:
        raise AlistFormatError(f"expected {n} column weights, got {len(col_weights)}", 3)
    row_weights = _parse_ints(get_line(3), 4, "row weights")
    if len(row_weights) != m:
        raise AlistFormatError(f"expected {m} row weights, got {len(row_weights)}", 4)
    if col_weights and max(col_weights) != max_weights[0]:
        raise AlistFormatError(
            f"declared maximum column weight {max_weights[0]} but weights peak at "
            f"{max(col_weights)}", 2
        )
    if row_weights and max(row_weights) != max_weights[1]:
        raise AlistFormatError(
            f"declared maximum row weight {max_weights[1]} but weights peak at "
            f"{max(row_weights)}", 2
        )

    cols = []
    for i in range(n):
        lineno = 5 + i
        cols.append(
            _parse_adjacency(get_line(lineno - 1), lineno, f"column {i}", col_weights[i], m)
        )
    rows = []
    for j in range(m):
        lineno = 5 + n + j
        rows.append(
            _parse_adjacency(get_line(lineno - 1), lineno, f"row {j}", row_weights[j], n)
        )
    for extra in range(4 + n + m, len(lines)):
        if lines[extra].strip():
            raise AlistFormatError(f"unexpected trailing content {lines[extra]!r}", extra + 1)

    # cross-check: the column listing must imply exactly the row listing
    derived_rows: list[list[int]] = [[] for _ in range(m)]
    for i, col in enumerate(cols):
        for j in col:
            derived_rows[j].append(i)
    for j in range(m):
        if tuple(sorted(derived_rows[j])) != rows[j]:
            raise AlistFormatError(
                f"row {j} adjacency disagrees with the column listings", 5 + n + j
            )

    return SparseParityMatrix(n=n, m=m, rows=tuple(rows))
