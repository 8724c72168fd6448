"""Tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    ValidationError,
    require,
    require_non_negative,
    require_positive,
    require_type,
)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_on_false(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")

    def test_is_value_error(self):
        with pytest.raises(ValueError):
            require(False, "compat")


class TestRequireType:
    def test_accepts_and_returns_value(self):
        assert require_type(5, int, "x") == 5

    def test_accepts_tuple_of_types(self):
        assert require_type(2.5, (int, float), "x") == 2.5

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError, match="x must be int"):
            require_type("5", int, "x")

    def test_error_names_all_accepted_types(self):
        with pytest.raises(ValidationError, match="int or float"):
            require_type("5", (int, float), "x")


class TestRequirePositive:
    @pytest.mark.parametrize("value", [1, 0.001, 10**9])
    def test_accepts_positive(self, value):
        assert require_positive(value, "n") == value

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValidationError):
            require_positive(value, "n")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            require_positive("3", "n")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0, "n") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="must be >= 0"):
            require_non_negative(-0.1, "n")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="must be >= 0"):
            require_non_negative(float("nan"), "n")

    def test_accepts_infinity(self):
        assert require_non_negative(float("inf"), "n") == float("inf")
