"""Reference alist reader and writer, one Python call per line, kept as test oracles.

This is the plain per-line reading of the alist layout that
:func:`swldpc.ldpc.load_alist` vectorises. The differential tests require the
library parser to return an equal matrix, or to raise with the same line
number and message, on every input this reader handles the same way; and
:func:`swldpc.ldpc.save_alist` to write the same bytes as
:func:`save_alist_reference`.

It reads tokens with Python's ``int()``, so it also accepts digit-group
underscores (``1_0``), non-ASCII digits and non-ASCII whitespace; the library
grammar rejects those (see the ``load_alist`` docstring).
"""

from __future__ import annotations

from swldpc.ldpc import AlistFormatError, SparseParityMatrix


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


def load_alist_reference(text: str) -> SparseParityMatrix:
    """Parse alist text line by line; same results and errors as ``load_alist``."""
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

    return SparseParityMatrix.from_rows(n, rows)


def save_alist_reference(h: SparseParityMatrix) -> str:
    """Canonical alist text, with the column and row listings gathered one
    entry at a time from the row-major index ``h.entries``."""
    cols = [[] for _ in range(h.n)]
    rows = [[] for _ in range(h.m)]
    for i, j in zip(*(ids.tolist() for ids in h.entries)):
        cols[i].append(j)
        rows[j].append(i)
    col_weights = [len(c) for c in cols]
    row_weights = [len(r) for r in rows]
    lines = [
        f"{h.n} {h.m}",
        f"{max(col_weights, default=0)} {max(row_weights, default=0)}",
        " ".join(str(w) for w in col_weights),
        " ".join(str(w) for w in row_weights),
    ]
    for col in cols:
        lines.append(" ".join(str(j + 1) for j in col))
    for row in rows:
        lines.append(" ".join(str(i + 1) for i in row))
    return "\n".join(lines) + "\n"
