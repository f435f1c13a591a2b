"""``write_csvs`` against the ``csv.writer`` it replaced, byte for
byte."""

import csv
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavsim import _csvfile
from uavsim._csvfile import write_csvs


def reference_csv(path, header, rows) -> None:
    """The writer's former body: ``csv`` writes each row's values."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def assert_same_bytes(tmp_path, header, columns):
    """``write_csvs`` on one table of ``columns`` writes what the reference
    writes on their rows, ndarray columns read through ``tolist()``."""
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c)
              for c in columns]
    reference_csv(tmp_path / "reference.csv", header, zip(*values))
    write_csvs([(tmp_path / "written.csv", header, columns)])
    expected = (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "written.csv").read_bytes() == expected
    return expected.decode()


def assert_same_files(tmp_path, tables):
    """One ``write_csvs`` call on the ``(header, columns)`` of ``tables``
    writes, in each file, what the reference writes on its rows."""
    write_csvs((tmp_path / f"written{i}.csv", header, columns)
               for i, (header, columns) in enumerate(tables))
    for i, (header, columns) in enumerate(tables):
        values = [c.tolist() if isinstance(c, np.ndarray) else list(c)
                  for c in columns]
        reference_csv(tmp_path / f"reference{i}.csv", header, zip(*values))
        assert (tmp_path / f"written{i}.csv").read_bytes() \
            == (tmp_path / f"reference{i}.csv").read_bytes(), i


FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 1e16,
          0.1, 1 / 3, -2.5, 1.7976931348623157e308, 123456789012345.6]


class TestFloatColumns:
    def test_edge_values_with_repeats(self, tmp_path):
        column = np.array(FLOATS * 7)
        text = assert_same_bytes(tmp_path, ["a", "b"],
                                 [column, column[::-1].copy()])
        assert text.splitlines()[1:6] == [
            "-0.0,123456789012345.6", "0.0,1.7976931348623157e+308",
            "nan,-2.5", "inf,0.3333333333333333", "-inf,0.1"]

    def test_signed_zeros_in_one_column(self, tmp_path):
        text = assert_same_bytes(tmp_path, ["z"],
                                 [np.array([0.0, -0.0, 0.0, -0.0])])
        assert text == "z\n0.0\n-0.0\n0.0\n-0.0\n"

    def test_one_value_repeated(self, tmp_path):
        assert_same_bytes(tmp_path, ["t", "se"],
                          [np.arange(3000) * 0.01, np.full(3000, 1e-06)])

    def test_strided_and_float32_columns(self, tmp_path):
        grid = np.arange(12.0).reshape(4, 3) / 7
        assert_same_bytes(tmp_path, ["x", "y", "h", "be", "ld"], [
            grid[:, 1], grid[:, 2].astype(np.float32),
            grid[:, 0].astype(np.float16), grid[:, 2].astype(">f8"),
            grid[:, 1].astype(np.longdouble)])

    @pytest.mark.parametrize("rows", [1024, 1025, 2500])
    def test_more_rows_than_one_block(self, tmp_path, rows):
        rng = np.random.default_rng(3)
        assert_same_bytes(tmp_path, ["u", "v"],
                          [rng.random(rows), rng.integers(0, 9, rows)])


class TestMixedColumns:
    def test_none_ints_bools_and_strings(self, tmp_path):
        assert_same_bytes(tmp_path, ["id", "flag", "note", "y", "scalar"], [
            [1, 2, 3, 4, 2 ** 70],
            [int(True), int(False), True, False, None],
            ["plain", "a,b", 'say "hi"', "two\nlines", "cr\ronly"],
            [None, 0.5, -0.0, math.nan, 3],
            # numpy scalars print as their str, not their repr.
            [np.float64(0.1), np.float64(-0.0), np.int64(7),
             np.float32(1.1), np.bool_(True)]])

    def test_quoted_header(self, tmp_path):
        text = assert_same_bytes(tmp_path, ["x", "y,z", 'q"'],
                                 [[1.0], ["s"], [None]])
        assert text == 'x,"y,z","q"""\n1.0,s,\n'

    @pytest.mark.parametrize("column", [[""], [None], ["", None, "x"],
                                        np.array([0.0])])
    def test_lone_empty_field(self, tmp_path, column):
        assert_same_bytes(tmp_path, ["only"], [column])

    def test_empty_body(self, tmp_path):
        text = assert_same_bytes(tmp_path, ["a", "b"],
                                 [np.array([]), []])
        assert text == "a,b\n"

    def test_no_columns(self, tmp_path):
        assert assert_same_bytes(tmp_path, ["a", "b"], []) == "a,b\n"

    def test_no_header_names(self, tmp_path):
        # csv.writer would write a blank line; the module docstring says so.
        assert _csvfile._lines([]) == ""
        write_csvs([(tmp_path / "x.csv", [], [])])
        assert (tmp_path / "x.csv").read_text() == ""

    def test_unequal_columns_write_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csvs([(tmp_path / "x.csv", ["a", "b"], [[1, 2], [3]])])
        assert not (tmp_path / "x.csv").exists()

    def test_iterator_of_columns_is_let_go_before_the_body(
            self, tmp_path, monkeypatch):
        class Columns:  # an iterator of columns, as zip(*rows) is
            def __init__(self, columns):
                self.columns = iter(columns)
                Columns.alive = weakref.ref(self)

            def __iter__(self):
                return self

            def __next__(self):
                return next(self.columns)

        alive, lines = [], _csvfile._lines
        monkeypatch.setattr(_csvfile, "_lines", lambda fields: (
            alive.append(Columns.alive() is not None), lines(fields))[1])

        def tables():  # keeps no reference to the table it yields
            yield tmp_path / "x.csv", ["a", "b"], Columns(
                [(1, 2), np.array([0.5, -0.0])])
        write_csvs(tables())
        assert (tmp_path / "x.csv").read_text() == "a,b\n1,0.5\n2,-0.0\n"
        assert alive == [False, False]


def nan_with_payload(payload: int) -> float:
    return np.array([0x7FF8000000000000 | payload]).view(np.float64)[0]


class TestTables:
    """Tables of one ``write_csvs`` call share float texts; each file must
    still read as if written alone."""

    def test_tables_that_share_values(self, tmp_path):
        time = np.arange(50) * 0.1
        assert_same_files(tmp_path, [
            (["t", "a", "b"], [time, time / 3, time[::-1].copy()]),
            (["t", "c"], [time, np.sqrt(time)]),
            (["t", "a"], [time + 0.1, time / 3])])

    def test_signed_zeros_and_nan_payloads(self, tmp_path):
        nans = [math.nan, nan_with_payload(1), -nan_with_payload(2)]
        zeros = np.array([0.0, -0.0, *nans])
        assert_same_files(tmp_path, [
            (["z"], [zeros]),
            (["z", "w"], [-zeros, zeros[::-1].copy()]),
            (["w"], [np.array(nans[1:] + [-0.0])])])

    def test_float32_never_takes_a_float64_text(self, tmp_path):
        assert_same_files(tmp_path, [
            (["x"], [np.array([0.1, 1 / 3])]),
            (["x", "y"], [np.array([0.1, 1 / 3], dtype=np.float32),
                          np.array([0.1, 1 / 3])]),
            (["y"], [np.array([1 / 3, 0.1], dtype=np.float32)])])

    def test_empty_table_between_others(self, tmp_path):
        column = np.array(FLOATS)
        assert_same_files(tmp_path, [(["a"], [column]),
                                     (["a", "b"], [np.array([]), []]),
                                     (["a"], [column[::-1].copy()]),
                                     (["a"], [np.array([])])])

    def test_table_without_float64_between_others(self, tmp_path):
        column = np.array(FLOATS)
        assert_same_files(tmp_path, [
            (["a"], [column]),
            (["b", "c"], [list(FLOATS), np.arange(len(FLOATS))]),
            (["a"], [column[::-1].copy()])])

    def test_no_tables(self, tmp_path):
        write_csvs([])
        assert list(tmp_path.iterdir()) == []


# A small pool, so that values repeat within a column.
POOL = FLOATS + [2.0, 1e-07, -1e22, 4.9406564584124654e-320]


def draw_columns(data, kinds=("float", "mixed")):
    """1-4 columns of 0-40 rows, their floats drawn from ``POOL``."""
    rows = data.draw(st.integers(0, 40))
    columns = []
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1,
                                   max_size=4)):
        if kind == "float":
            columns.append(np.array(data.draw(st.lists(
                st.sampled_from(POOL), min_size=rows, max_size=rows)),
                dtype=float))
        elif kind == "float32":
            with np.errstate(over="ignore"):  # the largest floats become inf
                columns.append(np.array(data.draw(st.lists(
                    st.sampled_from(POOL), min_size=rows, max_size=rows)),
                    dtype=np.float32))
        else:
            columns.append(data.draw(st.lists(st.one_of(
                st.none(), st.integers(-5, 5), st.sampled_from(POOL),
                st.text(",\"\n\r ab", max_size=4)),
                min_size=rows, max_size=rows)))
    return columns


class TestRandomColumns:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference(self, tmp_path_factory, data):
        columns = draw_columns(data)
        assert_same_bytes(tmp_path_factory.mktemp("csv"),
                          [f"c{i}" for i in range(len(columns))], columns)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_tables_match_reference(self, tmp_path_factory, data):
        tables = []
        for _ in range(data.draw(st.integers(1, 4))):
            columns = draw_columns(data, ("float", "float", "float32",
                                          "mixed"))
            tables.append(([f"c{i}" for i in range(len(columns))], columns))
        assert_same_files(tmp_path_factory.mktemp("csv"), tables)
