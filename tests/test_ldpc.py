import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swldpc import (
    AlistFormatError,
    ConstructionError,
    SparseParityMatrix,
    as_bit_array,
    gallager_construct,
    identity_matrix,
    load_alist,
    save_alist,
    syndrome,
)
from _exact_reference import gf2_rank
from _strategies import mixed_weight_matrices, rows_of
from _syndrome_reference import syndrome_reference

# H = [[1,1,0],[0,1,1]]: worked example used throughout this file
H_CHAIN = SparseParityMatrix.from_rows(3, ((0, 1), (1, 2)))

H_CHAIN_ALIST = "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"


def _flat(rows):
    """The flat index (column ids, row ids) of rows listed in order."""
    cols = [i for row in rows for i in row]
    return cols, np.repeat(np.arange(len(rows)), [len(row) for row in rows]).tolist()


def _columns(h):
    """For each column, its row ids in ascending order, from ``h.entries``."""
    cols, owner = h.entries  # row-major, so each column's rows ascend
    return [owner[cols == i].tolist() for i in range(h.n)]


class TestSparseParityMatrix:
    def test_from_rows_derives_columns(self):
        assert H_CHAIN.n == 3
        assert H_CHAIN.m == 2
        assert rows_of(H_CHAIN) == ((0, 1), (1, 2))
        assert _columns(H_CHAIN) == [[0], [0, 1], [1]]

    def test_to_dense(self):
        assert np.array_equal(
            H_CHAIN.to_dense(), np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        )

    def test_identity(self):
        h = identity_matrix(4)
        assert rows_of(h) == ((0,), (1,), (2,), (3,))
        assert np.array_equal(h.to_dense(), np.eye(4, dtype=np.uint8))

    def test_validation_rejects_inconsistency(self):
        with pytest.raises(ValueError):
            SparseParityMatrix(n=3, m=1, entries=([0, 1, 1], [0, 0, 0]))
        with pytest.raises(ValueError):
            SparseParityMatrix(n=2, m=3, entries=([0, 1, 0], [0, 1, 2]))
        with pytest.raises(ValueError):
            SparseParityMatrix.from_rows(3, ((0, 5),))
        with pytest.raises(ValueError):
            SparseParityMatrix.from_rows(0, ())
        with pytest.raises(ValueError):
            SparseParityMatrix(n=3, m=1, entries=([1, 0], [0, 0]))

    @pytest.mark.parametrize(
        "m, rows, message",
        [
            (3, ((0,), (1, 2), (0, 4)), r"row 2 has column index 4 outside \[0, 4\)"),
            (3, ((0,), (), (-1, 2)), r"row 2 has column index -1 outside \[0, 4\)"),
            (2, ((0, 3), (2, 1)), r"row 1 is not sorted or has duplicates: \(2, 1\)"),
            (3, ((0,), (1,), (3, 3)), r"row 2 is not sorted or has duplicates: \(3, 3\)"),
            # more rows than m; fewer are empty rows, see the next test
            (3, ((0,), (1,), (2,), (3,)), r"expected m=3 rows, got 4"),
            (1, ((0,), (1,)), r"expected m=1 rows, got 2"),
        ],
    )
    def test_constructor_names_the_offending_row(self, m, rows, message):
        with pytest.raises(ValueError, match=message):
            SparseParityMatrix(n=4, m=m, entries=_flat(rows))

    def test_rows_after_the_last_entry_are_empty(self):
        # the index lists entries, not rows: m=3 over entries in rows 0 and
        # 1 leaves row 2 empty
        h = SparseParityMatrix(n=4, m=3, entries=_flat(((0,), (1,))))
        assert rows_of(h) == ((0,), (1,), ())
        assert h == SparseParityMatrix.from_rows(4, ((0,), (1,), ()))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((np.array([0.0, 1.9]), [0, 0]), "column ids must be integers, got dtype float64"),
            ((np.array([1.0]), [0]), "column ids must be integers, got dtype float64"),
            (([True, False], [0, 0]), "column ids must be integers, got dtype bool"),
            (([0, 1], np.array([0.0, 0.5])), "row ids must be integers, got dtype float64"),
            (([0, 1], [False, True]), "row ids must be integers, got dtype bool"),
            # a bool among integers, which numpy would promote to 0 or 1
            (([0, 1, True], [0, 0, 1]), "column ids must be integers, got True"),
            (([0, 1, 0], (0, 0, True)), "row ids must be integers, got True"),
            (([0, np.True_], [0, 0]), "column ids must be integers, got True"),
            (([False, 1], [0, 0]), "column ids must be integers, got False"),
            (([0, 1], ["0", "0"]), "row ids must be integers, got dtype <U1"),
            (([[0, 1]], [[0, 0]]), "column ids must be one-dimensional, got shape (1, 2)"),
            (([0, 1], [0]), "got 2 column ids but 1 row ids"),
            (([0, 1], [1, 0]), "row ids must be non-decreasing from 0"),
            (([0], [-1]), "row ids must be non-decreasing from 0"),
            ((np.array([0, 2**64 - 1], dtype=np.uint64), [0, 0]),
             f"column ids must fit int64, got {2**64 - 1}"),
        ],
        ids=["float", "whole-float", "bool", "float-rows", "bool-rows", "bool-item",
             "bool-item-rows", "numpy-bool-item", "false-item", "text-rows", "2d", "lengths",
             "decreasing-rows", "negative-row", "uint64"],
    )
    def test_index_arrays_are_checked_whole(self, entries, message):
        # a float or bool array is refused, never truncated
        with pytest.raises(ValueError, match=re.escape(message)):
            SparseParityMatrix(2, 2, entries)

    def test_empty_index_of_any_dtype(self):
        # np.asarray([]) is float64, and an empty array has nothing to truncate
        for h in (SparseParityMatrix(3, 0, ([], [])), SparseParityMatrix(3, 2, ([], []))):
            assert [ids.dtype for ids in h.entries] == [np.int64, np.int64]
            assert h == SparseParityMatrix.from_rows(3, ((),) * h.m)

    @pytest.mark.parametrize("copy", [lambda h: h, lambda h: pickle.loads(pickle.dumps(h))])
    def test_flat_index_is_read_only(self, copy):
        h = copy(H_CHAIN)
        assert h == H_CHAIN
        cols, owner = h.entries
        assert cols.tolist() == [0, 1, 1, 2] and owner.tolist() == [0, 0, 1, 1]
        with pytest.raises(ValueError):
            cols[0] = 2
        with pytest.raises(ValueError):
            owner[0] = 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda h: SparseParityMatrix(h.n, h.m, tuple(ids.copy() for ids in h.entries)),
            lambda h: SparseParityMatrix.from_rows(h.n, [row[::-1] + row for row in rows_of(h)]),
            lambda h: load_alist(save_alist(h)),
            lambda h: pickle.loads(pickle.dumps(h)),
        ],
        ids=["constructor", "from_rows", "load_alist", "pickle"],
    )
    @pytest.mark.parametrize(
        "h",
        [gallager_construct(48, 3, 6, seed=5), identity_matrix(9), H_CHAIN],
        ids=["gallager_construct", "identity_matrix", "from_rows"],
    )
    def test_construction_paths_agree(self, build, h):
        copy = build(h)
        assert copy == h and hash(copy) == hash(h) and rows_of(copy) == rows_of(h)
        restored = pickle.loads(pickle.dumps(copy))
        assert restored == h and hash(restored) == hash(h)
        for index in restored.entries:
            assert index.dtype == np.int64 and not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 1

    def test_equality_needs_equal_shape_and_entries(self):
        assert H_CHAIN != SparseParityMatrix(4, 2, H_CHAIN.entries)
        assert H_CHAIN != SparseParityMatrix(3, 3, H_CHAIN.entries)  # an empty third row
        assert H_CHAIN != SparseParityMatrix.from_rows(3, ((0, 1), (0, 2)))
        # equal column ids, different row ids
        split = SparseParityMatrix.from_rows(3, ((0, 1), (2,)))
        assert split != SparseParityMatrix.from_rows(3, ((0,), (1, 2)))
        assert H_CHAIN != H_CHAIN.entries

    def test_rows_of_a_flat_built_matrix(self):
        rows = ((1, 4), (), (0, 2, 3), (4,))
        cols = np.array([1, 4, 0, 2, 3, 4])
        owner = np.array([0, 0, 2, 2, 2, 3])
        h = SparseParityMatrix(5, 4, (cols, owner))
        assert rows_of(h) == rows and h == SparseParityMatrix.from_rows(5, rows)

    @given(st.data())
    def test_flat_path_matches_constructor(self, data):
        # rows drawn loosely: indices out of range, unsorted and repeated
        n = data.draw(st.integers(1, 8), label="n")
        m = data.draw(st.integers(0, n), label="m")
        rows = data.draw(
            st.lists(st.lists(st.integers(-2, n + 1), max_size=4), min_size=m, max_size=m),
            label="rows",
        )
        # the checks row by row: the first entry out of range, else the
        # first row that does not strictly increase
        outside = [(j, i) for j, row in enumerate(rows) for i in row if not 0 <= i < n]
        unsorted = [j for j, row in enumerate(rows) if any(b <= a for a, b in zip(row, row[1:]))]
        if outside:
            want = "row {} has column index {} outside [0, {})".format(*outside[0], n)
        elif unsorted:
            want = f"row {unsorted[0]} is not sorted or has duplicates: {tuple(rows[unsorted[0]])}"
        else:
            want = tuple(map(tuple, rows))
        try:
            h = SparseParityMatrix(n, m, _flat(rows))
        except ValueError as err:
            assert str(err) == want
        else:
            assert rows_of(h) == want and h == SparseParityMatrix.from_rows(n, rows)

    @pytest.mark.parametrize(
        "n, m, message",
        [
            (4.0, 1, r"column count must be an integer, got 4\.0"),
            (True, 1, r"column count must be an integer, got True"),
            (4, 1.0, r"row count must be an integer, got 1\.0"),
            (4, False, r"row count must be an integer, got False"),
        ],
    )
    def test_counts_must_be_integers(self, n, m, message):
        with pytest.raises(ValueError, match=message):
            SparseParityMatrix(n, m, ([0], [0]))
        with pytest.raises(ValueError, match=message):
            SparseParityMatrix(n, m, (np.array([0]), np.array([0])))
        assert SparseParityMatrix(np.int64(4), np.int64(1), ([0], [0])).n == 4

    @pytest.mark.parametrize("build", ["constructor", "from_rows"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(1.5, 2.7)], "column index 1.5 is not an integer"),
            ([(0, 1.9)], "column index 1.9 is not an integer"),
            ([(0,), (1.2, 1.9)], "column index 1.2 is not an integer"),
            ([(3,), (2, 1.0)], "column index 1.0 is not an integer"),
            ([(np.float64(2.0),)], "is not an integer"),
            ([("1",)], "column index '1' is not an integer"),
            ([(True,)], "column index True is not an integer"),
            ([(np.True_,)], "is not an integer"),
            ([np.array([False, True])], "is not an integer"),
            # ids beyond int64 are outside [0, 4), as an id of any size is
            ([(2**70,)], "row 0 has column index 1180591620717411303424 outside [0, 4)"),
            ([(0,), (np.uint64(2**63),)], "row 1 has column index 9223372036854775808 outside [0, 4)"),
            ([(1,), (3, -(2**64))], "row 1 has column index -18446744073709551616 outside [0, 4)"),
            ([(1,), (2, 2**64, -1)], "row 1 has column index -1 outside [0, 4)"),
        ],
    )
    def test_column_ids_must_be_integers(self, build, rows, message):
        if build == "from_rows":
            with pytest.raises(ValueError, match=re.escape(message)):
                SparseParityMatrix.from_rows(4, rows)
        else:
            # the constructor reads one array, which a single float, text,
            # bool or too large id makes a float, text, bool or object
            # array, refused whole; a uint64 array is refused past int64
            cols = np.array([i for row in rows for i in row])
            message = f"column ids must be integers, got dtype {cols.dtype}"
            if cols.dtype == np.uint64:
                message = f"column ids must fit int64, got {cols.max()}"
            with pytest.raises(ValueError, match=re.escape(message)):
                SparseParityMatrix(4, len(rows), (cols, _flat(rows)[1]))

    def test_column_ids_beyond_int64_where_n_is_larger(self):
        # n is beyond int64 too: the id is inside [0, n), but no index holds it
        with pytest.raises(ValueError, match=re.escape(f"column ids must fit int64, got {2**65}")):
            SparseParityMatrix.from_rows(2**70, [(2**65,)])

    def test_numpy_integer_column_ids(self):
        rows = [(np.int64(0), np.int32(2)), (np.uint8(3),)]
        expected = SparseParityMatrix(4, 2, ([0, 2, 3], [0, 0, 1]))
        narrow = (np.array([0, 2, 3], dtype=np.int32), np.array([0, 0, 1], dtype=np.uint8))
        built = SparseParityMatrix(4, 2, narrow)
        assert built == SparseParityMatrix.from_rows(4, rows) == expected
        assert [ids.dtype for ids in built.entries] == [np.int64, np.int64]

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((24, 3, 6, 1.5), {}, "seed must be an integer, got 1.5"),
            ((24.0, 3, 6, 1), {}, "block length must be an integer, got 24.0"),
            ((24, 3.0, 6, 1), {}, "variable degree must be an integer, got 3.0"),
            ((24, 3, True, 1), {}, "check degree must be an integer, got True"),
            ((24, 3, 6, 1), {"max_retries": 5.0}, "max_retries must be an integer, got 5.0"),
        ],
    )
    def test_construction_arguments_must_be_integers(self, args, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            gallager_construct(*args, **kwargs)

    def test_construction_takes_numpy_integers(self):
        h = gallager_construct(np.int64(24), np.int64(3), np.int32(6), np.uint64(1))
        assert h == gallager_construct(24, 3, 6, 1)

    @given(st.data())
    def test_single_format_properties(self, data):
        # random row sets, including m = 0, empty rows and empty columns
        n = data.draw(st.integers(1, 12), label="n")
        m = data.draw(st.integers(0, n), label="m")
        row_sets = data.draw(
            st.lists(st.sets(st.integers(0, n - 1)), min_size=m, max_size=m), label="rows"
        )
        u = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        h = SparseParityMatrix.from_rows(n, row_sets)
        dense = h.to_dense()
        assert _columns(h) == [np.flatnonzero(dense[:, i]).tolist() for i in range(n)]
        assert load_alist(save_alist(h)) == h
        assert np.array_equal(syndrome(h, u), dense.astype(np.int64) @ u % 2)

    def test_empty_rows_are_allowed(self):
        h = SparseParityMatrix.from_rows(3, ((), (0, 2)))
        assert h.m == 2
        assert np.array_equal(syndrome(h, [1, 1, 1]), np.array([0, 0], dtype=np.uint8))


class TestSyndrome:
    def test_worked_example(self):
        assert np.array_equal(
            syndrome(H_CHAIN, [1, 0, 1]), np.array([1, 1], dtype=np.uint8)
        )

    def test_identity_returns_the_block(self):
        u = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(syndrome(identity_matrix(4), u), u)

    def test_zero_word_gives_zero_syndrome(self):
        h = gallager_construct(24, 3, 6, seed=0)
        assert not syndrome(h, np.zeros(24, dtype=np.uint8)).any()

    def test_linearity(self):
        h = gallager_construct(30, 3, 6, seed=1)
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = rng.integers(0, 2, 30).astype(np.uint8)
            v = rng.integers(0, 2, 30).astype(np.uint8)
            assert np.array_equal(syndrome(h, u ^ v), syndrome(h, u) ^ syndrome(h, v))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            syndrome(H_CHAIN, [1, 0])  # wrong length
        with pytest.raises(ValueError):
            syndrome(H_CHAIN, [1, 2, 0])  # not a bit
        with pytest.raises(ValueError):
            syndrome(H_CHAIN, np.zeros((3, 1)))  # not one-dimensional

    @pytest.mark.parametrize(
        "n, rows",
        [
            (5, ((0, 2), (1, 3, 4), (), ())),
            (4, ((), (), ())),
            (3, ()),
            (6, ((0, 1, 2, 3, 4, 5),)),
            (6, ((), (0, 5), (), (1, 2, 3), ())),
        ],
        ids=["trailing-empty-rows", "every-row-empty", "no-rows", "one-full-row", "interleaved-empty"],
    )
    def test_rows_the_xor_reduction_cannot_see(self, n, rows):
        # reduceat has no empty segment, so these rows are reduced around
        h = SparseParityMatrix.from_rows(n, rows)
        rng = np.random.default_rng(n)
        for u in (np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8),
                  *rng.integers(0, 2, (6, n)).astype(np.uint8)):
            got = syndrome(h, u)
            want = h.to_dense().astype(np.int64) @ u % 2
            assert got.dtype == np.uint8 and got.shape == (h.m,)
            assert np.array_equal(got, want)


# row weights 0, 1 and 3 interleaved down the matrix
INTERLEAVED = SparseParityMatrix.from_rows(
    9, [(0, 4, 8), (), (2,), (1, 3, 5), (), (7,), (0, 6, 7), (3,)]
)
# matrices that each draw rows of weights 0, 1 and 3 only
ZERO_ONE_THREE = mixed_weight_matrices(max_n=12, weights=(0, 1, 3))


class TestRowBlocks:
    """The rows grouped by weight, which ``syndrome`` and the decoder's
    convergence test reduce over, against the ``reduceat`` oracle."""

    @settings(max_examples=200, deadline=None)
    @given(h=st.one_of(mixed_weight_matrices(), ZERO_ONE_THREE), seed=st.integers(0, 2**32 - 1))
    @example(h=INTERLEAVED, seed=0)
    def test_syndrome_matches_the_reduceat_oracle(self, h, seed):
        rng = np.random.default_rng(seed)
        for u in (np.ones(h.n, dtype=np.uint8), *rng.integers(0, 2, (3, h.n), dtype=np.uint8)):
            got, want = syndrome(h, u), syndrome_reference(h, u)
            assert got.dtype == want.dtype == np.uint8 and got.shape == (h.m,)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(h=st.one_of(mixed_weight_matrices(), mixed_weight_matrices(max_n=4), ZERO_ONE_THREE))
    @example(h=INTERLEAVED)
    def test_blocks_partition_the_rows(self, h):
        weights = [len(row) for row in rows_of(h)]
        blocks = h._row_blocks
        assert h._row_blocks is blocks  # built once
        seen = []
        for block, rows in blocks:
            assert block.dtype == rows.dtype == np.int64
            assert block.flags.c_contiguous and not block.flags.writeable
            assert not rows.flags.writeable
            assert block.shape == (len(block), len(rows)) and len(rows) > 0
            assert (np.diff(rows) > 0).all()
            assert all(weights[r] == len(block) for r in rows.tolist())
            assert [rows_of(h)[r] for r in rows.tolist()] == [tuple(c) for c in block.T.tolist()]
            seen.extend(rows.tolist())
        assert sorted(seen) == list(range(h.m))
        # weights in the order in which they first appear down the rows
        assert [len(block) for block, _ in blocks] == list(dict.fromkeys(weights))

    @pytest.mark.parametrize(
        "h", [gallager_construct(1024, 3, 6, seed=7), identity_matrix(64)], ids=["regular", "identity"]
    )
    def test_one_block_in_row_order(self, h):
        (block, rows), = h._row_blocks
        assert np.array_equal(rows, np.arange(h.m))
        assert np.array_equal(block.T.ravel(), h.entries[0])

    def test_caches_do_not_travel_with_a_pickle(self):
        h = gallager_construct(24, 3, 6, seed=1)
        syndrome(h, np.ones(h.n, dtype=np.uint8))
        assert list(vars(h)) == ["n", "m", "entries", "_row_blocks"]  # the only cache
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and list(vars(copy)) == ["n", "m", "entries"]


class TestAsBitArray:
    def test_coerces_and_validates(self):
        out = as_bit_array([1, 0, 1])
        assert out.dtype == np.uint8
        assert np.array_equal(out, [1, 0, 1])
        assert as_bit_array([], length=0).size == 0
        with pytest.raises(ValueError):
            as_bit_array([0, 1], length=3)

    @pytest.mark.parametrize(
        "bits",
        [
            np.array([True, False, True]),
            np.array([1, 0, 1], dtype=np.int8),
            np.array([1, 0, 1], dtype=np.int64),
            np.array([1.0, 0.0, 1.0]),
            np.array([1, 0, 1], dtype=object),
            [1, 0, 1],
        ],
        ids=["bool", "int8", "int64", "float", "object", "list"],
    )
    def test_accepts_zeros_and_ones_of_any_numeric_type(self, bits):
        out = as_bit_array(bits, length=3)
        assert out.dtype == np.uint8 and out.tolist() == [1, 0, 1]

    @pytest.mark.parametrize(
        "empty", [np.array([]), np.array([], dtype=str), np.array([], dtype=object)]
    )
    def test_accepts_empty_arrays(self, empty):
        out = as_bit_array(empty, length=0)
        assert out.dtype == np.uint8 and out.size == 0

    @pytest.mark.parametrize(
        "bits",
        [
            [0, 0.5],
            [2, 1],
            [0, -1],
            [np.nan],
            np.array(["0", "1"]),
            np.array([b"0", b"1"]),
            np.array(["0", 1], dtype=object),
            np.array([None], dtype=object),
        ],
        ids=["half", "two", "minus-one", "nan", "str", "bytes", "object-str", "object-none"],
    )
    def test_rejects_anything_else(self, bits):
        with pytest.raises(ValueError, match="^bit sequence may only contain 0 and 1$"):
            as_bit_array(bits)

    def test_rejects_other_shapes_before_values(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_bit_array(np.array([[0, 1], [1, 2]]))
        with pytest.raises(ValueError, match="one-dimensional"):
            as_bit_array(np.array([[0, 1], [1, 2]], dtype=np.uint8))

    @pytest.mark.parametrize("bad", [2, 255])
    def test_uint8_rejects_other_values(self, bad):
        bits = np.array([0, 1, bad, 0], dtype=np.uint8)
        with pytest.raises(ValueError, match="^bit sequence may only contain 0 and 1$"):
            as_bit_array(bits)
        # values are checked before the length
        with pytest.raises(ValueError, match="^bit sequence may only contain 0 and 1$"):
            as_bit_array(bits, length=3)

    def test_uint8_wrong_length(self):
        with pytest.raises(ValueError, match="^bit sequence has length 3, expected 4$"):
            as_bit_array(np.array([0, 1, 1], dtype=np.uint8), length=4)

    def test_uint8_returns_a_new_array(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = as_bit_array(bits, length=4)
        assert out.dtype == np.uint8 and out.tolist() == [1, 0, 1, 1]
        assert not np.shares_memory(out, bits)
        out[0] = 0
        assert bits[0] == 1


class TestGallagerConstruct:
    def test_regular_degrees(self):
        h = gallager_construct(1024, 3, 6, seed=7)
        assert h.n == 1024 and h.m == 512
        assert all(len(row) == 6 for row in rows_of(h))
        assert all(len(col) == 3 for col in _columns(h))

    @pytest.mark.parametrize("n", [2**32, 2**32 + 6, 10**21])
    def test_block_length_beyond_the_index_range(self, n):
        # n*m sort keys past np.intp are refused before anything is drawn
        m = n // 2
        message = f"block length n={n} is too large: n*m={n * m} exceeds {np.iinfo(np.intp).max}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gallager_construct(n, 3, 6, seed=1)

    def test_deterministic_in_seed(self):
        assert gallager_construct(96, 3, 6, seed=4) == gallager_construct(96, 3, 6, seed=4)
        assert gallager_construct(96, 3, 6, seed=4) != gallager_construct(96, 3, 6, seed=5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gallager_construct(12, 1, 6, seed=0)  # dv < 2
        with pytest.raises(ValueError):
            gallager_construct(12, 6, 3, seed=0)  # dc <= dv
        with pytest.raises(ValueError):
            gallager_construct(13, 3, 6, seed=0)  # n*dv not divisible by dc
        with pytest.raises(ValueError):
            gallager_construct(4, 3, 6, seed=0)  # n < dc

    def test_reports_retry_exhaustion(self):
        # at n = dc every check must use every variable exactly once, which a
        # single random permutation draw essentially never achieves
        with pytest.raises(ConstructionError):
            gallager_construct(6, 5, 6, seed=0, max_retries=1)


class TestGf2Rank:
    def test_identity_has_full_rank(self):
        assert gf2_rank(identity_matrix(7)) == 7

    def test_dependent_rows(self):
        h = SparseParityMatrix.from_rows(3, ((0, 1), (1, 2), (0, 2)))
        assert gf2_rank(h) == 2
        assert gf2_rank(SparseParityMatrix.from_rows(2, ((0, 1), (0, 1)))) == 1
        assert gf2_rank(SparseParityMatrix.from_rows(2, ((),))) == 0

    def test_regular_code_rank(self):
        # frozen for this seed; regular constructions are usually full rank
        assert gf2_rank(gallager_construct(1024, 3, 6, seed=7)) == 512


class TestAlist:
    def test_save_worked_example(self):
        assert save_alist(H_CHAIN) == H_CHAIN_ALIST

    def test_load_worked_example(self):
        assert load_alist(H_CHAIN_ALIST) == H_CHAIN

    def test_round_trip_random_codes(self):
        for seed in range(8):
            h = gallager_construct(48, 3, 6, seed=seed)
            assert load_alist(save_alist(h)) == h

    def test_round_trip_identity(self):
        h = identity_matrix(5)
        assert load_alist(save_alist(h)) == h

    def test_zero_padded_entries_tolerated(self):
        padded = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n"
        assert load_alist(padded) == H_CHAIN

    def test_trailing_blank_lines_tolerated(self):
        assert load_alist(H_CHAIN_ALIST + "\n  \n") == H_CHAIN

    def test_canonical_output_has_no_padding(self):
        text = save_alist(H_CHAIN)
        assert " 0" not in text and text.endswith("\n")

    @pytest.mark.parametrize(
        "mutate, expect_line",
        [
            (lambda t: t.replace("3 2\n", "3\n", 1), 1),  # header arity
            (lambda t: t.replace("3 2\n", "2 3\n", 1), 1),  # m > n
            (lambda t: t.replace("2 2\n1 2 1", "9 2\n1 2 1", 1), 2),  # max col weight
            (lambda t: t.replace("1 2 1", "1 2", 1), 3),  # column weight count
            (lambda t: t.replace("1\n1 2\n2\n", "1\n1 2\n2 2\n", 1), 7),  # duplicate
            (lambda t: t.replace("1\n1 2\n2\n", "1\n1 2\n3\n", 1), 7),  # out of range
            (lambda t: t.replace("1\n1 2\n2\n", "1\n1\n2\n", 1), 6),  # weight mismatch
            (lambda t: t.replace("2 3\n", "1 3\n", 1), 9),  # rows disagree with cols
            (lambda t: t + "junk\n", 10),  # trailing content
        ],
    )
    def test_malformed_inputs_name_the_line(self, mutate, expect_line):
        with pytest.raises(AlistFormatError) as err:
            load_alist(mutate(H_CHAIN_ALIST))
        assert err.value.line == expect_line
        assert f"line {expect_line}:" in str(err.value)

    def test_truncated_file(self):
        with pytest.raises(AlistFormatError):
            load_alist("3 2\n2 2\n1 2 1\n2 2\n1\n")

    def test_non_integer_tokens(self):
        with pytest.raises(AlistFormatError) as err:
            load_alist(H_CHAIN_ALIST.replace("2 3", "2 x"))
        assert err.value.line == 9
