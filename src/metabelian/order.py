"""The well-order on integers and on monomials.

Integers are ordered 0 < 1 < 2 < ... < -1 < -2 < ..., so every negative
number exceeds every positive one and 0 is the least element.  Monomials
carry degree-lexicographic order (degree = sum of absolute exponents, ties
broken left-to-right with the first variable largest).  Module monomials
compare ring part first, then basis vector (e1 largest).  A term compares
by monomial, then by coefficient under the integer order.
"""

from __future__ import annotations


def int_key(a: int) -> tuple[int, int]:
    """Sort key realizing 0 < 1 < 2 < ... < -1 < -2 < ..."""
    return (0, a) if a >= 0 else (1, -a)


def monomial_key(monomial):
    """Ascending sort key for a term dict key ``(exponents, basis)``, ring
    (``basis=None``) or module.

    Degree first, then plain tuple comparison of the exponent vector
    (first differing variable decides, smaller exponent means smaller
    monomial), then basis index reversed so that e1 is the largest basis
    vector.
    """
    exponents, basis = monomial
    deg = sum(map(abs, exponents))
    if basis is None:
        return (deg, exponents)
    return (deg, exponents, -basis)
