"""Sparse binary parity-check codes and syndrome encoding.

A code is held as a :class:`SparseParityMatrix`: the m x n binary matrix H
as sorted row adjacency, with one flat row-major index of its nonzeros.
Compression of a source block u is the syndrome map s = H u over GF(2);
the joint decoder recovers u from s.

The on-disk interchange format is the plain-text alist convention used for
published LDPC matrices, see :func:`load_alist` / :func:`save_alist`.
"""

from __future__ import annotations

import re
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
    # text is rejected by its dtype kind: numpy before 1.25 answers
    # str == int with one scalar (and a warning) instead of a mask
    if u.size and (u.dtype.kind in "SU" or not ((u == 0) | (u == 1)).all()):
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


def _listing(ids: np.ndarray, counts: np.ndarray) -> list[str]:
    """Lines of space-separated ``ids``, the k-th line holding ``counts[k]`` of them."""
    words = list(map(str, ids.tolist()))
    ends = np.cumsum(counts).tolist()
    return [" ".join(words[start:end]) for start, end in zip([0] + ends, ends)]


def save_alist(h: SparseParityMatrix) -> str:
    """Serialize a matrix to canonical alist text.

    Layout: "n m" header, then "max_col_weight max_row_weight", the n
    column weights, the m row weights, one line of 1-based row indices per
    column, one line of 1-based column indices per row. Canonical output
    has sorted ascending indices, single spaces, no zero padding and a
    trailing newline, so equal matrices serialize byte-identically.
    """
    cols, owner = h.entries
    col_weights = np.bincount(cols, minlength=h.n)
    row_weights = np.bincount(owner, minlength=h.m)
    # column-major keys, so each column lists its rows in ascending order
    by_col = np.sort(cols * h.m + owner) % h.m
    lines = [
        f"{h.n} {h.m}",
        f"{int(col_weights.max())} {int(row_weights.max(initial=0))}",
        " ".join(map(str, col_weights.tolist())),
        " ".join(map(str, row_weights.tolist())),
        *_listing(by_col + 1, col_weights),
        *_listing(cols + 1, row_weights),
    ]
    return "\n".join(lines) + "\n"


# Token grammar of alist text: ASCII whitespace separates tokens, and a token
# is an optional sign followed by ASCII digits.
_TOKEN = re.compile(rb"[+-]?[0-9]+")
# tokens with more digits are parsed one by one and clamped to +-_HUGE, which
# keeps every comparison with a weight or an index bound of the file
_MAX_DIGITS = 18
_HUGE = 10**_MAX_DIGITS


class _Tokens:
    """The whitespace-separated tokens of alist text, found in one numpy pass.

    Lines are the pieces of ``text.split("\\n")`` without a final empty one.

    Attributes:
        data: the text as ASCII bytes, each non-ASCII character replaced by
            ``?`` (which no token may contain).
        starts, ends: byte span of each token.
        values: int64 value of each token, clamped to +-10**18; meaningless
            on a line that breaks the grammar.
        offsets: the tokens of line k are ``offsets[k]:offsets[k + 1]``.
        bad: for each line, whether one of its tokens breaks the grammar.
    """

    def __init__(self, text: str):
        self.data = data = text.encode("ascii", "replace")
        buf = np.frombuffer(data, dtype=np.uint8)
        # byte classes by uint8 arithmetic, which wraps below zero: digits
        # are 48..57, ASCII whitespace is 9..13 and 32; both masks are padded
        digit = np.zeros(len(buf) + 1, dtype=bool)
        digit[:-1] = buf - ord("0") < 10
        solid = np.zeros(len(buf) + 2, dtype=bool)  # not whitespace
        solid[1:-1] = (buf - 9 > 4) & (buf != ord(" "))
        # a token starts or ends wherever "not whitespace" flips
        flips = np.flatnonzero(solid[1:] != solid[:-1])
        self.starts, self.ends = starts, ends = flips[0::2], flips[1::2]

        newlines = np.flatnonzero(buf == ord("\n"))
        self.num_lines = len(newlines) + int(not data.endswith(b"\n") and len(data) > 0)
        self.offsets = np.concatenate(
            ([0], np.searchsorted(starts, newlines), [len(starts)])
        )[: self.num_lines + 1]

        # a sign must open its token (the byte before it, solid[odd], is
        # whitespace) and precede a digit; any other byte outside whitespace
        # and digits breaks the token
        odd = np.flatnonzero(solid[1:-1] & ~digit[:-1])
        sign_ok = (
            ((buf[odd] == ord("+")) | (buf[odd] == ord("-")))
            & ~solid[odd]
            & digit[odd + 1]
        )
        self.bad = np.zeros(self.num_lines, dtype=bool)
        self.bad[np.searchsorted(newlines, odd[~sign_ok])] = True

        # add up each token's digits one decimal place at a time, in int32
        # while every token has at most 9 digits; a place before the token's
        # first digit counts zero (its position may be negative, but never
        # below -len(buf), as some token has `width` digits)
        first_digit = starts + ~digit[starts]  # past a sign
        num_digits = ends - first_digit
        width = min(int(num_digits.max(initial=0)), _MAX_DIGITS)
        dtype = np.int32 if width <= 9 else np.int64
        values = np.zeros(len(starts), dtype=dtype)
        at = ends - 1
        for place in range(width):
            term = buf[at].astype(dtype)
            term -= ord("0")
            term *= at >= first_digit
            term *= 10**place
            values += term
            at -= 1
        self.values = values = values.astype(np.int64)
        values[buf[starts] == ord("-")] *= -1
        for k in np.flatnonzero(num_digits > _MAX_DIGITS).tolist():
            token = data[starts[k] : ends[k]]
            if _TOKEN.fullmatch(token):
                values[k] = max(-_HUGE, min(int(token), _HUGE))

    def exact(self, k: int) -> int:
        """Unclamped value of token k, for messages."""
        return int(self.data[self.starts[k] : self.ends[k]])

    def ints(self, line: int) -> list[int]:
        """Unclamped values of the tokens on a line."""
        return [self.exact(k) for k in range(self.offsets[line], self.offsets[line + 1])]

    def peak(self, line: int) -> int:
        """Largest unclamped value on a non-empty line."""
        lo = int(self.offsets[line])
        seg = self.values[lo : self.offsets[line + 1]]
        top = int(seg.max())
        if abs(top) < _HUGE:
            return top
        return max(self.exact(lo + k) for k in np.flatnonzero(seg == top).tolist())


def load_alist(text: str) -> SparseParityMatrix:
    """Parse alist text into a matrix, validating it fully.

    Zero-padded adjacency entries are accepted (some published files pad
    every line to the maximum weight). The row and column listings must
    describe the same matrix; any inconsistency is reported with the
    1-based line number where it was detected.

    Token grammar: lines end at "\\n", and each line holds integers
    ``[+-]?[0-9]+`` in ASCII, separated by ASCII whitespace (space, tab,
    CR, VT, FF), so CRLF files read like LF files and ``+3``, ``-1`` and
    ``007`` mean 3, -1 and 7. Anything else on a line, such as a digit-group
    underscore (``1_0``), a non-ASCII digit or space, or any other
    character, fails as "expected integers" on that line. Lines after the
    last adjacency line may hold only ASCII whitespace.
    """
    tok = _Tokens(text)

    def line_text(k: int) -> str:
        return text.split("\n", k + 1)[k]

    def parsed(k: int, what: str) -> int:
        """Check that line k exists and parses; return its token count."""
        if k >= tok.num_lines:
            raise AlistFormatError("unexpected end of file", tok.num_lines + 1)
        if tok.bad[k]:
            raise AlistFormatError(f"{what}: expected integers, got {line_text(k)!r}", k + 1)
        return int(tok.offsets[k + 1] - tok.offsets[k])

    parsed(0, "header")
    header = tok.ints(0)
    if len(header) != 2 or header[0] < 1 or header[1] < 0:
        raise AlistFormatError(f"header must be 'n m' with n >= 1, got {line_text(0)!r}", 1)
    n, m = header
    if m > n:
        raise AlistFormatError(f"row count {m} exceeds column count {n}", 1)

    parsed(1, "maximum weights")
    max_weights = tok.ints(1)
    if len(max_weights) != 2 or min(max_weights) < 0:
        raise AlistFormatError(
            f"expected 'max_col_weight max_row_weight', got {line_text(1)!r}", 2
        )

    if (count := parsed(2, "column weights")) != n:
        raise AlistFormatError(f"expected {n} column weights, got {count}", 3)
    if (count := parsed(3, "row weights")) != m:
        raise AlistFormatError(f"expected {m} row weights, got {count}", 4)
    for line, what, declared in ((2, "column", max_weights[0]), (3, "row", max_weights[1])):
        if tok.offsets[line + 1] == tok.offsets[line]:
            continue  # m = 0: no row weights
        peak = tok.peak(line)
        if peak != declared:
            raise AlistFormatError(
                f"declared maximum {what} weight {declared} but weights peak at {peak}", 2
            )

    # Adjacency lines 5 .. 4 + n + m, as far as the text goes: n columns
    # listing 1-based rows, then m rows listing 1-based columns. Per token:
    # the line it is on (0-based within the block) and its value.
    present = min(tok.num_lines, 4 + n + m) - 4
    first, last = int(tok.offsets[4]), int(tok.offsets[4 + present])
    per_line = np.diff(tok.offsets[4 : 5 + present])
    line = np.repeat(np.arange(present), per_line)
    value = tok.values[first:last]
    # the column listing's tokens, then the row listing's
    col_part = slice(0, int(tok.offsets[4 + min(n, present)]) - first)
    row_part = slice(col_part.stop, None)
    nonzero = value != 0  # zero is padding
    outside = nonzero & (value < 1)
    outside[col_part] |= value[col_part] > m
    outside[row_part] |= value[row_part] > n
    entry = nonzero & ~outside
    # (row, column) of each entry as one row-major key
    from_cols = np.sort(((value[col_part] - 1) * n + line[col_part])[entry[col_part]])
    from_rows = np.sort(((line[row_part] - n) * n + value[row_part] - 1)[entry[row_part]])

    # per-line faults, in the order one line reports them
    parse = tok.bad[4 : 4 + present]
    out_of_range = np.zeros(present, dtype=bool)
    out_of_range[line[outside]] = True
    duplicate = np.zeros(present, dtype=bool)
    duplicate[from_cols[1:][from_cols[1:] == from_cols[:-1]] % n] = True
    duplicate[n + from_rows[1:][from_rows[1:] == from_rows[:-1]] // n] = True
    weights = tok.values[tok.offsets[2] : tok.offsets[4]]  # columns, then rows
    found = np.bincount(line[nonzero], minlength=present)
    wrong_weight = found != weights[:present]
    faulty = parse | out_of_range | duplicate | wrong_weight
    if faulty.any():
        i = int(np.argmax(faulty))
        what, limit = (f"column {i}", m) if i < n else (f"row {i - n}", n)
        if parse[i]:
            message = f"{what}: expected integers, got {line_text(4 + i)!r}"
        elif out_of_range[i]:
            k = first + int(np.argmax(outside & (line == i)))
            message = f"{what}: index {tok.exact(k)} outside [1, {limit}]"
        elif duplicate[i]:
            message = f"{what}: duplicate entry"
        else:
            declared = tok.exact(int(tok.offsets[2]) + i)
            message = f"{what}: declared weight {declared} but {found[i]} entries"
        raise AlistFormatError(message, 5 + i)
    if present < n + m:
        raise AlistFormatError("unexpected end of file", tok.num_lines + 1)
    if last < len(tok.starts):
        extra = int(np.searchsorted(tok.offsets, last, side="right")) - 1
        raise AlistFormatError(
            f"unexpected trailing content {line_text(extra)!r}", extra + 1
        )

    # cross-check: the column listing must imply exactly the row listing
    if not np.array_equal(from_cols, from_rows):
        j = int(np.setxor1d(from_cols, from_rows, assume_unique=True).min()) // n
        raise AlistFormatError(
            f"row {j} adjacency disagrees with the column listings", 5 + n + j
        )

    flat = tuple((from_rows % n).tolist())
    ends = np.cumsum(found[n:]).tolist()
    rows = tuple([flat[start:end] for start, end in zip([0] + ends, ends)])
    return SparseParityMatrix(n=n, m=m, rows=rows)
