"""Exact computational toolkit for 3-transposition groups, their Fischer
graphs and Matsuo algebras, and the Virasoro unitary-series fusion calculus."""

from fractions import Fraction

__version__ = "0.1.0"


def format_rational(value):
    """A rational as the string "p/q" that every report uses."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"
