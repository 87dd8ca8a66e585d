from fractions import Fraction

import pytest

from addcomb import FiniteSet, SetFormatError, format_set, parse_set
from helpers import BASIS_SQRT2


def test_rational_round_trip():
    A = FiniteSet([Fraction(1, 2), -3, 7])
    assert parse_set(format_set(A)) == A


def test_symbolic_round_trip():
    A = FiniteSet([BASIS_SQRT2.element((0, 1)), BASIS_SQRT2.element((Fraction(3, 2), -1))])
    text = format_set(A)
    assert text.startswith("basis: 1=1.0, sqrt2=")
    assert parse_set(text) == A


def test_comments_and_blanks_ignored():
    A = parse_set("# heading\n\n2  # trailing\n1\n")
    assert A.elements == (1, 2)


def test_output_sorted():
    assert format_set(FiniteSet([3, 1, 2])) == "1\n2\n3\n"


def test_bad_rational_reports_line():
    with pytest.raises(SetFormatError, match="line 2"):
        parse_set("1\nx/y\n")


def test_coordinate_count_mismatch():
    with pytest.raises(SetFormatError, match="expected 2 coordinates"):
        parse_set("basis: 1=1.0, sqrt2=1.41421356\n1, 2, 3\n")


def test_vector_without_basis():
    with pytest.raises(SetFormatError, match="no basis header"):
        parse_set("1, 2\n")


def test_duplicate_basis_header():
    text = "basis: 1=1.0, sqrt2=1.4\nbasis: 1=1.0, sqrt3=1.7\n1, 2\n"
    with pytest.raises(SetFormatError, match="duplicate"):
        parse_set(text)


def test_basis_after_elements():
    with pytest.raises(SetFormatError, match="precede"):
        parse_set("3\nbasis: 1=1.0, sqrt2=1.4\n")


def test_basis_must_start_with_unit():
    with pytest.raises(SetFormatError, match="constant 1"):
        parse_set("basis: sqrt2=1.4, 1=1.0\n1, 0\n")


def test_non_finite_basis_approximation_rejected():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(SetFormatError, match="line 1.*finite"):
            parse_set(f"basis: 1=1.0, r={bad}\n0, 1\n")


def test_empty_file_rejected():
    with pytest.raises(SetFormatError, match="no elements"):
        parse_set("# nothing here\n")
