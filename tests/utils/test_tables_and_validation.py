"""Tests for the text-table renderer and the validation helpers."""

import numpy as np
import pytest

from repro.utils.tables import TextTable, format_float
from repro.utils.validation import (
    check_in_choices,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
    check_valid_lengths,
)


class TestFormatFloat:
    def test_zero(self):
        assert format_float(0.0) == "0"

    def test_plain(self):
        assert format_float(3.14159, 3) == "3.142"

    def test_scientific_for_large(self):
        assert "e" in format_float(1.23e7)

    def test_scientific_for_small(self):
        assert "e" in format_float(1.23e-7)

    def test_trailing_zeros_stripped(self):
        assert format_float(2.0) == "2"


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["name", "value"], title="demo")
        table.add_row(["alpha", 1])
        table.add_row(["b", 123.456])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert all(line.startswith("|") for line in lines[1:])
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all lines aligned

    def test_row_length_mismatch(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_add_rows_and_rows_property(self):
        table = TextTable(["a"])
        table.add_rows([[1], [2]])
        assert table.rows == [["1"], ["2"]]


class TestValidation:
    def test_positive_int_accepts(self):
        assert check_positive_int(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_positive_int_rejects_value(self, bad):
        with pytest.raises(ValueError):
            check_positive_int(bad, "x")

    @pytest.mark.parametrize("bad", [1.5, "a", True])
    def test_positive_int_rejects_type(self, bad):
        with pytest.raises(TypeError):
            check_positive_int(bad, "x")

    def test_non_negative_int(self):
        assert check_non_negative_int(0, "x") == 0
        with pytest.raises(ValueError):
            check_non_negative_int(-1, "x")

    def test_check_positive(self):
        assert check_positive(0.5, "x") == 0.5
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_check_in_choices(self):
        assert check_in_choices("a", ("a", "b"), "x") == "a"
        with pytest.raises(ValueError):
            check_in_choices("c", ("a", "b"), "x")

    def test_check_probability(self):
        assert check_probability(0.5, "x") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "x")

    def test_integer_lengths(self):
        """The one ``valid_lengths`` contract (check_valid_lengths)."""
        assert check_valid_lengths(None, 2, 4) is None
        lengths = check_valid_lengths([3, 1], 2, 4)
        assert lengths.dtype == np.int64 and lengths.tolist() == [3, 1]
        # Any shape holding `rows` entries is read in row order, flat.
        column = check_valid_lengths(np.array([[2], [4]], np.uint8), 2, 4)
        assert column.shape == (2,) and column.tolist() == [2, 4]
        assert check_valid_lengths([], 0, 4).dtype == np.int64
        for bad in ([2.7, 3.2], [2.0, 1.0], [True, True]):
            with pytest.raises(ValueError, match="must be integers"):
                check_valid_lengths(bad, 2, 4)
        for bad in ([3], [1, 2, 3], []):
            with pytest.raises(ValueError, match="one entry per row"):
                check_valid_lengths(bad, 2, 4)
        for bad in ([0, 4], [1, 5], [-1, 2]):
            with pytest.raises(ValueError, match="1..seq"):
                check_valid_lengths(bad, 2, 4)
