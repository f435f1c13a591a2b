"""``write_csv`` against the ``csv.writer`` it replaced, byte for byte."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavsim._csvfile import write_csv


def reference_csv(path, header, rows) -> None:
    """The writer's former body: ``csv`` writes each row's values."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def assert_same_bytes(tmp_path, header, columns):
    """``write_csv`` on ``columns`` writes what the reference writes on
    their rows, ndarray columns read through ``tolist()``."""
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c)
              for c in columns]
    reference_csv(tmp_path / "reference.csv", header, zip(*values))
    write_csv(tmp_path / "written.csv", header, columns)
    expected = (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "written.csv").read_bytes() == expected
    return expected.decode()


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
        assert_same_bytes(tmp_path, ["x", "y"],
                          [grid[:, 1], grid[:, 2].astype(np.float32)])

    def test_more_rows_than_one_block(self, tmp_path):
        rng = np.random.default_rng(3)
        assert_same_bytes(tmp_path, ["u", "v"],
                          [rng.random(2500), rng.integers(0, 9, 2500)])


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

    def test_unequal_columns_write_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [3]])
        assert not (tmp_path / "x.csv").exists()


# A small pool, so that values repeat within a column.
POOL = FLOATS + [2.0, 1e-07, -1e22, 4.9406564584124654e-320]


class TestRandomColumns:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference(self, tmp_path_factory, data):
        rows = data.draw(st.integers(0, 40))
        kinds = data.draw(st.lists(st.sampled_from(["float", "mixed"]),
                                   min_size=1, max_size=4))
        columns = []
        for kind in kinds:
            if kind == "float":
                columns.append(np.array(data.draw(st.lists(
                    st.sampled_from(POOL), min_size=rows, max_size=rows)),
                    dtype=float))
            else:
                columns.append(data.draw(st.lists(st.one_of(
                    st.none(), st.integers(-5, 5), st.sampled_from(POOL),
                    st.text(",\"\n\r ab", max_size=4)),
                    min_size=rows, max_size=rows)))
        assert_same_bytes(tmp_path_factory.mktemp("csv"),
                          [f"c{i}" for i in range(len(columns))], columns)
