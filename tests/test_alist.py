"""Differential tests: the vectorised alist reader and writer against the
per-line reference in ``_alist_reference``.

On every input the library must return an equal matrix, or raise with the
same line number and message, except for the documented narrowing of the
token grammar (pinned in ``TestGrammar``).
"""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _alist_reference import load_alist_reference, save_alist_reference
from swldpc import (
    AlistFormatError,
    SparseParityMatrix,
    gallager_construct,
    identity_matrix,
    load_alist,
    save_alist,
)

H_CHAIN = SparseParityMatrix.from_rows(3, ((0, 1), (1, 2)))
H_CHAIN_ALIST = "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"
# irregular: an empty row, an empty column (column 3), weights 1 to 3
H_IRREGULAR = SparseParityMatrix.from_rows(5, ((0, 2), (), (1, 2, 4)))
HUGE = "1" + "0" * 20  # past int64


def outcome(parse, text):
    """("ok", matrix) or ("error", line, message) for one parse of text."""
    try:
        return ("ok", parse(text))
    except AlistFormatError as err:
        return ("error", err.line, str(err))


def assert_same(text):
    assert outcome(load_alist, text) == outcome(load_alist_reference, text), repr(text)


def _tokens(text):
    """(line index, token index) of every space-separated token in canonical text."""
    lines = text.split("\n")[:-1]
    return lines, [(k, t) for k, line in enumerate(lines) for t in range(len(line.split()))]


def _edit_token(text, k, t, edit):
    lines, _ = _tokens(text)
    words = lines[k].split()
    words[t : t + 1] = edit(words[t])
    lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


def _mutations(text, n):
    """Every single-token replacement, deletion and duplication."""
    _, positions = _tokens(text)
    replacements = ["0", "-1", str(n + 1), "x", HUGE, "-" + HUGE, "0" * 20 + "2"]
    for k, t in positions:
        for r in replacements:
            yield _edit_token(text, k, t, lambda w, r=r: [r])
        yield _edit_token(text, k, t, lambda w: [])
        yield _edit_token(text, k, t, lambda w: [w, w])


CORPUS = [("chain", H_CHAIN_ALIST, 3), ("irregular", save_alist(H_IRREGULAR), 5)]


class TestDifferential:
    @pytest.mark.parametrize("name, text, n", CORPUS, ids=[c[0] for c in CORPUS])
    def test_single_token_mutations(self, name, text, n):
        cases = list(_mutations(text, n))
        assert len(cases) > 100
        for case in cases:
            assert_same(case)

    @pytest.mark.parametrize("name, text, n", CORPUS, ids=[c[0] for c in CORPUS])
    def test_dropped_lines_and_truncations(self, name, text, n):
        lines = text.split("\n")[:-1]
        for k in range(len(lines)):
            assert_same("\n".join(lines[:k] + lines[k + 1 :]) + "\n")
            assert_same("\n".join(lines[: k + 1]) + "\n")
            assert_same("\n".join(lines[: k + 1]))  # no final newline
        assert_same("")

    @pytest.mark.parametrize(
        "text",
        [
            # huge declared weights that agree with each other fail on the line
            f"3 2\n{HUGE} 2\n1 {HUGE} 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n",
            f"3 2\n-{HUGE} 2\n-{HUGE} -{HUGE} -{HUGE}\n2 2\n1\n1 2\n2\n1 2\n2 3\n",
            f"3 2\n{HUGE} 2\n{HUGE} 1{HUGE[1:]} 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n",
            f"{HUGE} 2\n2 2\n1 2 1\n2 2\n",
            # signs, leading zeros and padding keep their meaning
            "+3 2\n2 +2\n01 +2 001\n2 2\n-0 1\n1 +0 2\n2\n001 2\n2 0 3\n",
            # an error on an earlier line beats the end of file
            "3 2\n2 2\n1 2 1\n2 2\n1\n1 x\n",
            # lone signs, signs inside tokens, other characters
            "3 2\n2 2\n1 2 1\n2 2\n-\n1 2\n2\n1 2\n2 3\n",
            "3 2\n2 2\n1 2 1\n2 2\n1+\n1 2\n2\n1 2\n2 3\n",
            "3 2\n2 2\n1 2 1\n2 2\n--1\n1 2\n2\n1 2\n2 3\n",
            "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3.0\n",
            "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n\n\x00\n",
            # the cross-check names the first disagreeing row
            "3 2\n2 2\n1 2 1\n2 2\n2\n1 2\n1\n1 2\n2 3\n",
            "4 2\n1 2\n1 1 1 1\n2 2\n1\n1\n2\n2\n1 2\n3 4\n",
        ],
    )
    def test_edge_cases(self, text):
        assert_same(text)

    @given(st.data())
    def test_formatting_property(self, data):
        # random matrices in free formatting: m = 0, empty rows and columns,
        # zero padding, shuffled entries, signs, leading zeros (tokens of up
        # to 22 digits), tabs and runs of spaces, CRLF line ends, trailing
        # blank lines
        n = data.draw(st.integers(1, 8), label="n")
        m = data.draw(st.integers(0, n), label="m")
        row_sets = data.draw(
            st.lists(st.sets(st.integers(0, n - 1)), min_size=m, max_size=m), label="rows"
        )
        h = SparseParityMatrix.from_rows(n, row_sets)
        blank = st.sampled_from(["", " ", "\t", "  \t "])
        gap = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x0c"])
        # zero padding up to 20 digits crosses the 8- and 16-digit words
        spell = st.builds(
            lambda sign, zeros: sign + "0" * zeros + "{}",
            st.sampled_from(["", "+"]),
            st.integers(0, 20),
        )
        out = []
        for k, line in enumerate(save_alist(h).split("\n")[:-1]):
            words = line.split()
            if k >= 4:
                pad = data.draw(st.integers(0, 2), label="padding")
                words = data.draw(st.permutations(words + ["0"] * pad), label="order")
            words = [data.draw(spell).format(w) for w in words]
            text = data.draw(blank)
            for w in words:
                text += w + data.draw(gap)
            out.append(text.rstrip(" ") if data.draw(st.booleans()) else text)
        newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
        trailing = data.draw(st.lists(blank, max_size=3), label="trailing")
        text = newline.join(out + trailing) + newline
        assert load_alist(text) == h
        assert_same(text)

    @given(st.data())
    def test_random_edits(self, data):
        # a few random character edits of canonical text, within the grammar's
        # alphabet plus one foreign character
        n = data.draw(st.integers(1, 6), label="n")
        m = data.draw(st.integers(0, n), label="m")
        row_sets = data.draw(
            st.lists(st.sets(st.integers(0, n - 1)), min_size=m, max_size=m), label="rows"
        )
        text = save_alist(SparseParityMatrix.from_rows(n, row_sets))
        alphabet = st.sampled_from(list("0123456789+- \t\r\nx"))
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            at = data.draw(st.integers(0, len(text)), label="at")
            kind = data.draw(st.sampled_from(["insert", "replace", "delete"]), label="kind")
            keep = at + 1 if kind != "insert" else at
            text = text[:at] + ("" if kind == "delete" else data.draw(alphabet)) + text[keep:]
        assert_same(text)


# digit counts around the tokenizer's 8-byte words: one word holds up to 8
# digits, two up to 16, and longer tokens are parsed one by one
DIGIT_COUNTS = [1, 7, 8, 9, 16, 17, 18, 19, 25]


class TestTokenBoundaries:
    """Tokens of every length around the 8-byte word decode, against the
    reference parser: the same matrix, or the same line and message."""

    @pytest.mark.parametrize("digits", DIGIT_COUNTS)
    def test_every_token_at_every_width(self, digits):
        # each token of the chain in turn, spelled with `digits` digits:
        # zero-padded (the same matrix), all nines, or a one and zeros,
        # unsigned or signed; the header's first token sits at byte 0
        _, positions = _tokens(H_CHAIN_ALIST)
        for k, t in positions:
            for sign in ("", "+", "-"):
                for spell in (
                    lambda w: w.zfill(digits),
                    lambda w: "9" * digits,
                    lambda w: "1" + "0" * (digits - 1),
                ):
                    text = _edit_token(H_CHAIN_ALIST, k, t, lambda w: [sign + spell(w)])
                    assert_same(text)
                    assert_same(text[:-1])  # no final newline

    @pytest.mark.parametrize("digits", DIGIT_COUNTS)
    @pytest.mark.parametrize("sign", ["", "+"])
    def test_zero_padded_matrix(self, digits, sign):
        text = re.sub("[0-9]+", lambda w: sign + w.group().zfill(digits), H_CHAIN_ALIST)
        assert text.startswith(sign + "0" * (digits - 1) + "3 ")
        for case in (text, text[:-1]):
            assert load_alist(case) == H_CHAIN
            assert_same(case)

    @pytest.mark.parametrize("digits", [1, 8, 9, 17])
    @pytest.mark.parametrize("separator", ["\t", "\r", "\x0b", "\x0c"])
    def test_separators(self, digits, separator):
        text = re.sub("[0-9]+", lambda w: w.group().zfill(digits), H_CHAIN_ALIST)
        text = text.replace(" ", separator)
        for case in (text, text.replace("\n", "\r\n"), separator + text[:-1]):
            assert load_alist(case) == H_CHAIN
            assert_same(case)
        assert_same(text.replace(separator + "0" * (digits - 1) + "3", separator + "9" * digits))


class TestGrammar:
    """The token grammar is ASCII ``[+-]?[0-9]+`` between ASCII whitespace.

    Python's ``int()`` and ``str.split()`` also accept digit-group
    underscores, non-ASCII digits and non-ASCII whitespace; the reference
    parser reads each case below as the worked example, the library rejects it.
    """

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("2 3\n", "0_2 3\n", 9, "row 1: expected integers, got '0_2 3'"),
            ("2 3\n", "2 \u0663\n", 9, "row 1: expected integers, got '2 \u0663'"),
            ("2 3\n", "2\xa03\n", 9, "row 1: expected integers, got '2\\xa03'"),
            ("2 3\n", "2\x1c3\n", 9, "row 1: expected integers, got '2\\x1c3'"),
            ("2 3\n", "2 3\u2003\n", 9, "row 1: expected integers, got '2 3\\u2003'"),
            ("3 2\n", "\uff13 2\n", 1, "header: expected integers, got '\uff13 2'"),
            ("2 3\n", "2 3\n\xa0\n", 10, "unexpected trailing content '\\xa0'"),
        ],
        ids=[
            "underscore",
            "arabic-indic-digit",
            "no-break-space",
            "file-separator",
            "em-space",
            "fullwidth-digit-header",
            "no-break-space-trailing",
        ],
    )
    def test_narrowed_cases(self, old, new, line, message):
        text = H_CHAIN_ALIST.replace(old, new)
        assert load_alist_reference(text) == H_CHAIN
        with pytest.raises(AlistFormatError) as err:
            load_alist(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_signs_and_leading_zeros_keep_their_meaning(self):
        text = "+3 002\n2 +2\n1 2 1\n+2 02\n+1\n1 002\n2\n-0 1 +2\n2 3\n"
        assert load_alist(text) == load_alist_reference(text) == H_CHAIN
        with pytest.raises(AlistFormatError, match=r"^line 9: row 1: index -1 outside \[1, 3\]$"):
            load_alist(H_CHAIN_ALIST.replace("2 3\n", "2 -1\n"))


class TestSaveAlist:
    @pytest.mark.parametrize(
        "h",
        [
            H_CHAIN,
            H_IRREGULAR,
            identity_matrix(7),
            gallager_construct(96, 3, 6, seed=7),
            SparseParityMatrix.from_rows(4, ()),
            SparseParityMatrix.from_rows(4, ((), ())),
        ],
        ids=["chain", "irregular", "identity", "gallager", "m0", "empty-rows"],
    )
    def test_matches_reference_writer(self, h):
        assert save_alist(h) == save_alist_reference(h)
        assert load_alist(save_alist(h)) == h

    @given(st.data())
    def test_matches_reference_writer_property(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        m = data.draw(st.integers(0, n), label="m")
        row_sets = data.draw(
            st.lists(st.sets(st.integers(0, n - 1)), min_size=m, max_size=m), label="rows"
        )
        h = SparseParityMatrix.from_rows(n, row_sets)
        assert save_alist(h) == save_alist_reference(h)


def test_large_code_round_trip():
    h = gallager_construct(2048, 3, 6, seed=311)
    text = save_alist(h)
    assert text == save_alist_reference(h)
    assert load_alist(text) == load_alist_reference(text) == h
    assert np.array_equal(load_alist(text).to_dense(), h.to_dense())
