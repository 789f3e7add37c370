"""Sparse binary parity-check codes and syndrome encoding.

A code is held as a :class:`SparseParityMatrix`: the m x n binary matrix H
as one flat row-major index of its nonzeros, ``entries`` (column ids, row
ids). It is built from that index by its constructor or from row lists by
``from_rows``. The only other row layout, the rows grouped by weight that
:func:`syndrome` reduces over and the decoder lays its messages out in, is
built from the index once per matrix (``_degree_groups``), and so is the
place of every entry in that layout, with each column's places
(``_slots``). A matrix holds nothing else: what a decoder builds over a
code is kept by the decoder's graphs.
Compression of a source block u is the syndrome map s = H u over GF(2);
the joint decoder recovers u from s.

The on-disk interchange format is the plain-text alist convention used for
published LDPC matrices, see :func:`load_alist` / :func:`save_alist`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
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


def _integer(name: str, value, positive: bool = False) -> int:
    """``value`` as an ``int``: the one check of every count and seed.

    Python and numpy integers pass; a ``bool``, a float or anything else
    raises ``ValueError`` naming ``name``, and so does a value below 1 when
    ``positive`` is set. Nothing is silently truncated.
    """
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or positive and value < 1:
        kind = "a positive integer" if positive else "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _boolean(name: str, value) -> bool:
    """``value`` as a ``bool``: the one check of every flag. Python and
    numpy bools pass; anything else, 0 and 1 included, raises
    ``ValueError`` naming ``name``."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _check_type(name: str, value, cls: type) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a ``cls``,
    so a wrong argument (a bare probability for a model, a dense array for
    a code) fails where it is passed rather than where it is first used."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


def _shape(n: int, m: int) -> tuple[int, int]:
    """Check a matrix's column and row counts; return them as ints."""
    n, m = _integer("column count", n), _integer("row count", m)
    if n < 1:
        raise ValueError(f"column count must be positive, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"row count must satisfy 0 <= m <= n, got m={m}, n={n}")
    return n, m


def _column_id(value) -> int:
    """A column index as an ``int`` by the test of ``_integer``; a float or
    a bool raises instead of being truncated."""
    try:
        return _integer("column index", value)
    except ValueError:
        raise ValueError(f"column index {value!r} is not an integer") from None


def _check_columns(cols: np.ndarray, owner: np.ndarray, n: int) -> None:
    """Raise for the first column id, in index order, outside [0, n)."""
    outside = (cols < 0) | (cols >= n)
    if outside.any():
        e = int(np.argmax(outside))
        raise ValueError(f"row {owner[e]} has column index {cols[e]} outside [0, {n})")


def _ids(name: str, values) -> np.ndarray:
    """One side of a flat index as int64; floats and bools raise instead of
    being truncated, except in an empty array, and so does a bool inside a
    sequence that is not an array, which numpy would read as 0 or 1."""
    ids = np.asarray(values)
    if ids.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {ids.shape}")
    if ids.dtype.kind not in "iu" and ids.size:
        raise ValueError(f"{name} must be integers, got dtype {ids.dtype}")
    for item in () if isinstance(values, np.ndarray) else values:
        if isinstance(item, (bool, np.bool_)):
            raise ValueError(f"{name} must be integers, got {item}")
    if ids.dtype == np.uint64 and ids.size and ids.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must fit int64, got {ids.max()}")  # not wrapped below 0
    return ids.astype(np.int64, copy=False)


def _degree_groups(degrees: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Ids grouped by degree, in the order in which the degrees first appear.

    Returns one ``(degree, ids)`` pair per distinct value of ``degrees``,
    ``ids`` the ascending positions that hold it. This is the one grouping
    rule of the rows of a matrix by weight
    (``SparseParityMatrix._row_blocks``), which are the decoder's check
    groups.
    """
    # the degree of each run of equal degrees, in order: their first
    # appearances are those of the degrees
    starts = np.flatnonzero(degrees[1:] != degrees[:-1]) + 1
    runs = degrees[:1].tolist() + degrees[starts].tolist()
    return [(d, np.flatnonzero(degrees == d)) for d in dict.fromkeys(runs)]


def _column_slots(cols: np.ndarray, slots: np.ndarray, n: int):
    """Each column's entries, as the slots that hold them, in the rows of a
    staircase.

    ``cols`` holds the column of every entry in row-major order and
    ``slots`` where some layout holds that entry. The columns are ordered
    by weight, lightest first, ties by id: ``order`` lists them so, or is
    None where that is the id order. Row k of the staircase holds the slot
    of entry k, counted in row-major order, of every column of weight above
    k, which are the last ``counts[k]`` columns of the order. Returns
    ``(order, counts, staircase)``, the rows joined into one array. Built
    with one sort of unique keys, the column above the row-major position,
    in the narrowest unsigned type that holds them (a 32-bit sort is twice
    as fast as a 64-bit one).
    """
    num = len(cols)
    shift = num.bit_length()
    key_type = np.min_scalar_type(n << shift)
    keys = np.sort(cols.astype(key_type) << shift | np.arange(num, dtype=key_type))
    by_column = slots.take(keys & ((1 << shift) - 1))
    weights = np.bincount(cols, minlength=n)
    starts = np.cumsum(weights) - weights
    order = None
    if (weights[1:] < weights[:-1]).any():
        order = np.argsort(weights, kind="stable")
        weights, starts = weights[order], starts[order]
    counts = tuple((n - np.cumsum(np.bincount(weights))[:-1]).tolist())
    rows = [by_column.take(starts[n - count :] + k) for k, count in enumerate(counts)]
    return order, counts, np.concatenate([np.zeros(0, np.int64), *rows])


@dataclass(frozen=True, init=False, eq=False)
class SparseParityMatrix:
    """Binary parity-check matrix held as one flat row-major index.

    Attributes:
        n: number of columns (source block length).
        m: number of rows (syndrome length), m <= n.
        entries: the nonzeros as a pair of read-only int64 arrays (column
            ids, row ids), sorted by row and, within a row, by column.

    Construct with ``SparseParityMatrix(n, m, (col_ids, row_ids))`` from the
    index itself, or with :meth:`from_rows` from each row's column indices
    in any order. The constructor checks the index and keeps int64 arrays
    as given, marking them read-only; other integer arrays are converted.
    Matrices compare equal when ``n``, ``m`` and ``entries`` are equal. The
    object is immutable, so it can be shared freely across decoder sessions
    and threads. The rows grouped by weight (``_row_blocks``) and the
    place of every entry in them (``_slots``) are built from ``entries``
    once per object, on first use, and kept on it; those are the only
    caches a matrix holds. A pickled copy carries only the index and builds
    its own.
    """

    n: int
    m: int
    entries: tuple[np.ndarray, np.ndarray]

    def __init__(self, n: int, m: int, entries: tuple[np.ndarray, np.ndarray]):
        n, m = _shape(n, m)
        cols, owner = _ids("column ids", entries[0]), _ids("row ids", entries[1])
        if len(cols) != len(owner):
            raise ValueError(f"got {len(cols)} column ids but {len(owner)} row ids")
        step = np.diff(owner)
        if owner.size and (owner[0] < 0 or (step < 0).any()):
            raise ValueError("row ids must be non-decreasing from 0")
        if owner.size and owner[-1] >= m:
            raise ValueError(f"expected m={m} rows, got {owner[-1] + 1}")
        _check_columns(cols, owner, n)
        unsorted = (np.diff(cols) <= 0) & (step == 0)
        if unsorted.any():
            j = owner[np.argmax(unsorted)]
            row = tuple(cols[owner == j].tolist())
            raise ValueError(f"row {j} is not sorted or has duplicates: {row}")
        cols.flags.writeable = False
        owner.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "entries", (cols, owner))

    def __reduce__(self):
        # pickle the flat index; the copy is rebuilt read-only
        return (SparseParityMatrix, (self.n, self.m, self.entries))

    def __eq__(self, other):
        if not isinstance(other, SparseParityMatrix):
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m) and all(
            map(np.array_equal, self.entries, other.entries)
        )

    def __hash__(self):
        cols, owner = self.entries
        return hash((self.n, self.m, cols.tobytes(), owner.tobytes()))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[Iterable[int]]) -> "SparseParityMatrix":
        """Build a matrix from row adjacency in any order; repeats collapse.

        The column ids pass the checks of the constructor; one beyond int64
        is refused as outside [0, n), as the constructor refuses any other,
        or, where n is larger still, as an id that int64 cannot hold.
        """
        sorted_rows = [sorted(set(map(_column_id, row))) for row in rows]
        lengths = [len(row) for row in sorted_rows]
        owner = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        try:
            cols = np.fromiter(chain.from_iterable(sorted_rows), dtype=np.int64, count=sum(lengths))
        except OverflowError:  # an id beyond int64, checked on the Python ints
            cols = np.array(list(chain.from_iterable(sorted_rows)), dtype=object)
        if cols.dtype == object:
            _check_columns(cols, owner, _shape(n, len(lengths))[0])
            raise ValueError(f"column ids must fit int64, got {cols.max()}")
        return cls(n, len(lengths), (cols, owner))

    @cached_property
    def _row_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The rows grouped by weight, built once per matrix.

        One ``(block, rows)`` pair per row weight, in the order in which the
        weights first appear down the rows (:func:`_degree_groups`): ``rows``
        holds the ascending ids of the rows of that weight and ``block``
        their column ids as one contiguous ``(weight, len(rows))`` array,
        entry k of every row in row k. Every row, also one without entries,
        is in exactly one block, so a single block holds all rows in order.
        Both arrays are read-only.
        """
        cols, owner = self.entries
        weights = np.bincount(owner, minlength=self.m)
        starts = np.cumsum(weights) - weights
        blocks = []
        for weight, rows in _degree_groups(weights):
            block = cols[starts[rows] + np.arange(weight)[:, None]]
            rows.flags.writeable = block.flags.writeable = False
            blocks.append((block, rows))
        return tuple(blocks)

    @cached_property
    def _slots(self):
        """Where the decoder holds each entry, built once per matrix.

        The decoder lays the entries out position-major: the row blocks,
        each raveled, one after another, so that entry k of row
        ``rows[j]`` of a block is its slot k * len(rows) + j.
        ``(slots, order, counts, staircase)``: ``slots`` maps every entry of
        the flat index to its slot, and the rest is ``_column_slots`` over
        those slots. The arrays are read-only.
        """
        cols, owner = self.entries
        weights = np.bincount(owner, minlength=self.m)
        starts = np.cumsum(weights) - weights
        slots = np.empty(len(cols), dtype=np.int64)
        stop = 0
        for block, rows in self._row_blocks:
            start, stop = stop, stop + block.size
            entries = starts[rows] + np.arange(len(block))[:, None]
            slots[entries] = np.arange(start, stop).reshape(block.shape)
        order, counts, staircase = _column_slots(cols, slots, self.n)
        for array in (slots, order, staircase):
            if array is not None:
                array.flags.writeable = False
        return slots, order, counts, staircase

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
    ids = np.arange(n, dtype=np.int64)
    return SparseParityMatrix(n, n, (ids, ids))


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

    A draw costs one permutation of the n*dv sockets plus an O(n*dv) test:
    a parallel edge is two sockets of one variable in one check, so the
    test compares the dv(dv-1)/2 pairs of columns of the (n, dv) socket
    table. Only the accepted draw is sorted into rows, by one (row, column)
    key per entry below n*m, so n*m must fit a numpy index (``np.intp``).

    Args:
        n: block length; n*dv must be divisible by dc and n >= dc.
        dv: column weight, at least 2.
        dc: row weight, strictly greater than dv.
        seed: 64-bit seed for the permutation stream.
        max_retries: bound on rejection resampling before giving up.

    Raises:
        ValueError: incompatible (n, dv, dc), or n*m beyond ``np.intp``.
        ConstructionError: no parallel-edge-free permutation found within
            max_retries draws.
    """
    n, seed = _integer("block length", n), _integer("seed", seed)
    dv, dc = _integer("variable degree", dv), _integer("check degree", dc)
    max_retries = _integer("max_retries", max_retries)
    if dv < 2:
        raise ValueError(f"variable degree must be at least 2, got dv={dv}")
    if dc <= dv:
        raise ValueError(f"check degree must exceed variable degree, got dv={dv}, dc={dc}")
    if n < dc:
        raise ValueError(f"block length must be at least dc, got n={n}, dc={dc}")
    if (n * dv) % dc != 0:
        raise ValueError(f"n*dv must be divisible by dc, got n={n}, dv={dv}, dc={dc}")
    m = (n * dv) // dc
    largest = np.iinfo(np.intp).max
    if n * m > largest:  # and so n*dv, as n >= dc
        raise ValueError(f"block length n={n} is too large: n*m={n * m} exceeds {largest}")
    rng = np.random.default_rng(seed % 2**64)
    socket_pairs = list(combinations(range(dv), 2))
    for _ in range(max_retries):
        check_of_socket = rng.permutation(n * dv) // dc
        # row v holds the checks of variable v's dv sockets
        checks_of_var = check_of_socket.reshape(n, dv)
        if any((checks_of_var[:, a] == checks_of_var[:, b]).any() for a, b in socket_pairs):
            continue  # parallel edge, reject the whole permutation
        var_of_socket = np.repeat(np.arange(n, dtype=np.int64), dv)
        keys = np.sort(check_of_socket * n + var_of_socket)
        # keys are sorted and distinct, so every row is strictly increasing
        return SparseParityMatrix(n, m, (keys % n, keys // n))
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
    valid = u.dtype.kind not in "SU" and ((u == 0) | (u == 1)).all()
    if u.size and not valid:
        raise ValueError("bit sequence may only contain 0 and 1")
    if length is not None and u.size != length:
        raise ValueError(f"bit sequence has length {u.size}, expected {length}")
    return u.astype(np.uint8)


def syndrome(h: SparseParityMatrix, u: Sequence[int] | np.ndarray) -> np.ndarray:
    """Syndrome s = H u over GF(2); the compression of source block u.

    s[j] is the XOR of u over the columns in row j. Linear: the syndrome
    of u XOR v is the XOR of the two syndromes.

    The bits of u are gathered through the matrix's row blocks (one
    ``(weight, rows)`` array of column ids per row weight) and each block
    is xor-reduced along its first axis. A row without entries reduces
    over nothing and gets bit 0.

    Returns:
        uint8 array of length h.m.
    """
    _check_type("h", h, SparseParityMatrix)
    return _row_parity(h, as_bit_array(u, h.n))


def _row_parity(h: SparseParityMatrix, u: np.ndarray) -> np.ndarray:
    """The xor of ``u`` over each row of H, in ``u``'s dtype (uint8 or bool).

    ``u`` is not validated. A matrix of one row block, such as a regular
    code, reduces it without the loop: that serves every corner frame,
    whose H2 is the (3,6) code (4.1 us against 5.4 us a call through the
    loop at n = 1024, numpy 2.4 on a 2-core Xeon).
    """
    blocks = h._row_blocks
    if len(blocks) == 1:  # every row, in order
        return np.bitwise_xor.reduce(u[blocks[0][0]], axis=0)
    s = np.zeros(h.m, dtype=u.dtype)
    for block, rows in blocks:
        s[rows] = np.bitwise_xor.reduce(u[block], axis=0)
    return s


def _text(values: np.ndarray, counts: np.ndarray) -> str:
    """Lines of space-separated ``values``, the k-th line holding ``counts[k]``.

    The inverse of :class:`_Tokens` for nonnegative values: every value is
    written one decimal place at a time into one byte buffer, followed by a
    space, or by a newline where it ends its line.
    """
    width = len(str(int(values.max(initial=0))))
    # uint32 divides several times faster than int64
    values = values.astype(np.uint32 if width <= 9 else np.int64)
    # an empty line is one item without digits, so every line has an item
    empty = np.flatnonzero(counts == 0)
    at_empty = np.cumsum(counts)[empty] - counts[empty]
    values = np.insert(values, at_empty, 0)
    num_digits = np.ones(len(values), dtype=np.int64)
    for place in range(1, width):
        num_digits += values >= 10**place
    num_digits[at_empty + np.arange(len(empty))] = 0
    # each item is its digits and one separator; `width` bytes of slack in
    # front take the leading zeros of the first items
    ends = np.cumsum(num_digits + 1) + width
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    # a place a value lacks writes a zero over an earlier item's digit of a
    # lower place or over a separator, both written after it
    for place in range(width - 1, -1, -1):
        buf[ends - 2 - place] = values // 10**place % 10 + ord("0")
    buf[ends - 1] = ord(" ")
    buf[ends[np.cumsum(np.maximum(counts, 1)) - 1] - 1] = ord("\n")
    return buf[width:].tobytes().decode("ascii")


def save_alist(h: SparseParityMatrix) -> str:
    """Serialize a matrix to canonical alist text.

    Layout: "n m" header, then "max_col_weight max_row_weight", the n
    column weights, the m row weights, one line of 1-based row indices per
    column, one line of 1-based column indices per row. Canonical output
    has sorted ascending indices, single spaces, no zero padding and a
    trailing newline, so equal matrices serialize byte-identically.
    """
    _check_type("h", h, SparseParityMatrix)
    cols, owner = h.entries
    col_weights = np.bincount(cols, minlength=h.n)
    row_weights = np.bincount(owner, minlength=h.m)
    # column-major keys, so each column lists its rows in ascending order
    by_col = np.sort(cols * h.m + owner) % h.m
    header = [h.n, h.m, int(col_weights.max()), int(row_weights.max(initial=0))]
    values = np.concatenate((header, col_weights, row_weights, by_col + 1, cols + 1))
    counts = np.concatenate(([2, 2, h.n, h.m], col_weights, row_weights))
    return _text(values, counts)


# Token grammar of alist text: ASCII whitespace separates tokens, and a token
# is an optional sign followed by ASCII digits.
_TOKEN = re.compile(rb"[+-]?[0-9]+")
# Tokens with more digits are parsed one by one and clamped to +-_HUGE (see
# _Tokens for why the clamp changes no comparison).
_MAX_DIGITS = 16
_HUGE = 10**_MAX_DIGITS
# For a token of d digits (at most 8), the mask that keeps the low nibble of
# the last d bytes of the little-endian word ending at the token's end.
_DIGIT_MASKS = np.array(
    [0x0F0F0F0F0F0F0F0F << 8 * (8 - d) & 0xFFFFFFFFFFFFFFFF for d in range(9)],
    dtype=np.uint64,
)
# Multipliers and masks that combine digit pairs, then quads, then octets.
_COMBINE = tuple(
    (np.uint64(scale), np.uint64(shift), np.uint64(mask))
    for scale, shift, mask in (
        (10 * 2**8 + 1, 8, 0x00FF00FF00FF00FF),
        (100 * 2**16 + 1, 16, 0x0000FFFF0000FFFF),
        (10000 * 2**32 + 1, 32, 0xFFFFFFFF),
    )
)


def _eight_digits(words: np.ndarray, num_digits: np.ndarray) -> np.ndarray:
    """Values of the last ``num_digits`` (0 to 8) ASCII digits of each word.

    Each word holds the 8 bytes that end at a token's last digit, loaded
    little-endian, so the last digit is the top byte. Masking keeps the low
    nibble (the digit's value) of the token's bytes and zeroes the rest, and
    three multiply, shift and mask steps add up neighbouring digit pairs,
    then pairs of those, then the two halves (D. Lemire, "Number parsing at
    a gigabyte per second", Software: Practice and Experience 51(8), 2021).
    The unsigned products wrap, which discards only bits that the shifts and
    masks throw away. Works in place on ``words``.
    """
    words &= _DIGIT_MASKS[num_digits]
    for scale, shift, mask in _COMBINE:
        words *= scale
        words >>= shift
        words &= mask
    return words


class _Tokens:
    """The whitespace-separated tokens of alist text, found in one numpy pass.

    Lines are the pieces of ``text.split("\\n")`` without a final empty one.

    Token values take no loop over decimal places. One gather reads, for
    every token, the 8 bytes that end at its last byte as a little-endian
    word, from the text with 8 spaces in front (an unaligned view), and
    :func:`_eight_digits` turns each word into the value of the token's
    last 8 digits or fewer with a few 64-bit operations, after D. Lemire,
    "Number parsing at a gigabyte per second" (Software: Practice and
    Experience 51(8), 2021). Tokens of 9 to 16 digits add the value of a
    second word, and longer ones are parsed one by one.

    Attributes:
        data: the text as ASCII bytes, each non-ASCII character replaced by
            ``?`` (which no token may contain).
        starts, ends: byte span of each token.
        values: int64 value of each token, clamped to +-10**16; meaningless
            on a line that breaks the grammar. The clamp changes no outcome
            of ``load_alist``: the bounds that values meet are n and m
            (equal to the token counts of the weight lines, which are
            checked first) and the entry counts of single lines, all below
            the length of the text and so far below 10**16; weight peaks
            and messages read the exact values.
        offsets: the tokens of line k are ``offsets[k]:offsets[k + 1]``.
        bad: for each line, whether one of its tokens breaks the grammar.
    """

    def __init__(self, text: str):
        self.data = data = text.encode("ascii", "replace")
        # eight spaces in front, so that 8 bytes end at every token's end,
        # and one behind
        padded = np.frombuffer(b"".join((b" " * 8, data, b" ")), dtype=np.uint8)
        buf = padded[8:-1]
        # byte classes by uint8 arithmetic, which wraps below zero: digits
        # are 48..57, ASCII whitespace is 9..13 and 32; `solid` (not
        # whitespace) has one space on either side, `digit` one behind
        solid = (padded[7:] - 9 > 4) & (padded[7:] != ord(" "))
        digit = padded[8:] - ord("0") < 10
        # a token starts or ends wherever "not whitespace" flips
        flips = np.flatnonzero(solid[1:] != solid[:-1])
        self.starts, self.ends = starts, ends = flips[0::2], flips[1::2]

        newlines = np.flatnonzero(buf == ord("\n"))
        self.num_lines = len(newlines) + int(not data.endswith(b"\n") and len(data) > 0)
        self.offsets = np.concatenate(
            ([0], np.searchsorted(starts, newlines), [len(starts)])
        )[: self.num_lines + 1]

        num_digits = ends - starts
        negative = None  # tokens with a minus sign, if any byte is not a digit
        self.bad = np.zeros(self.num_lines, dtype=bool)
        if np.count_nonzero(digit) < np.count_nonzero(solid):
            # Some byte outside whitespace is not a digit. A sign must open
            # its token (the byte before it, solid[odd], is whitespace) and
            # precede a digit; any other such byte breaks the token.
            odd = np.flatnonzero(solid[1:-1] & ~digit[:-1])
            sign_ok = (
                ((buf[odd] == ord("+")) | (buf[odd] == ord("-")))
                & ~solid[odd]
                & digit[odd + 1]
            )
            self.bad[np.searchsorted(newlines, odd[~sign_ok])] = True
            num_digits -= ~digit[starts]  # past a sign
            negative = buf[starts] == ord("-")
        del solid, digit  # freed before the value arrays, for a lower peak of memory

        # word k holds bytes k-8 .. k-1 of the text, so word ends[k] ends
        # with token k's last digit
        words = np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))
        width = int(num_digits.max(initial=0))
        values = _eight_digits(words[ends], np.minimum(num_digits, 8) if width > 8 else num_digits)
        if width > 8:
            wide = np.flatnonzero(num_digits > 8)
            high = _eight_digits(words[ends[wide] - 8], np.minimum(num_digits[wide] - 8, 8))
            values[wide] += high * np.uint64(10**8)
        self.values = values = values.view(np.int64)
        if negative is not None:
            values[negative] *= -1
        if width > _MAX_DIGITS:
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

    The text is tokenised in one numpy pass (``_Tokens``), which reads up
    to 8 digits of every token at once with 64-bit word arithmetic (D.
    Lemire, Software: Practice and Experience 51(8), 2021), and every check
    runs on the resulting arrays; only error messages look at single
    tokens again.
    """
    _check_type("text", text, str)
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
    # the row listing is in row order already, which timsort merely checks
    from_rows = np.sort(
        ((line[row_part] - n) * n + value[row_part] - 1)[entry[row_part]], kind="stable"
    )

    # per-line faults, in the order one line reports them
    parse = tok.bad[4 : 4 + present]
    out_of_range = np.zeros(present, dtype=bool)
    out_of_range[line[outside]] = True
    duplicate = np.zeros(present, dtype=bool)
    duplicate[from_cols[1:][from_cols[1:] == from_cols[:-1]] % n] = True
    duplicate[n + from_rows[1:][from_rows[1:] == from_rows[:-1]] // n] = True
    weights = tok.values[tok.offsets[2] : tok.offsets[4]]  # columns, then rows
    found = per_line - np.bincount(line[~nonzero], minlength=present)
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

    owner, cols = np.divmod(from_rows, n)
    return SparseParityMatrix(n, m, (cols, owner))
