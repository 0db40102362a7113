"""Tests for literal encoding and value types."""

import pytest

from repro.solver.types import (
    FALSE,
    TRUE,
    UNASSIGNED,
    Status,
    decode,
    encode,
)


class TestEncoding:
    @pytest.mark.parametrize("dimacs", [1, -1, 5, -5, 123, -123])
    def test_round_trip(self, dimacs):
        assert decode(encode(dimacs)) == dimacs

    def test_positive_encoding_even(self):
        assert encode(3) == 6
        assert encode(-3) == 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            encode(0)


class TestStatus:
    def test_no_truth_value(self):
        with pytest.raises(TypeError):
            bool(Status.SATISFIABLE)

    def test_values_distinct(self):
        assert len({Status.SATISFIABLE, Status.UNSATISFIABLE, Status.UNKNOWN}) == 3

    def test_constants(self):
        assert TRUE == 1 and FALSE == 0 and UNASSIGNED == -1
