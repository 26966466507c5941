"""The three-layer well-order on integers, monomials, terms and module elements.

Integers are ordered 0 < 1 < 2 < ... < -1 < -2 < ..., so every negative
number exceeds every positive one and 0 is the least element.  Monomials
carry degree-lexicographic order (degree = sum of absolute exponents, ties
broken left-to-right with the first variable largest).  Module monomials
compare ring part first, then basis vector (e1 largest).  Terms append the
integer order on coefficients; elements compare recursively on leading
terms.
"""

from __future__ import annotations


def int_key(a: int) -> tuple[int, int]:
    """Sort key realizing 0 < 1 < 2 < ... < -1 < -2 < ..."""
    return (0, a) if a >= 0 else (1, -a)


def monomial_key(exponents, basis=None):
    """Ascending sort key for a (ring or module) monomial.

    Degree first, then plain tuple comparison of the exponent vector
    (first differing variable decides, smaller exponent means smaller
    monomial), then basis index reversed so that e1 is the largest basis
    vector.
    """
    return _pair_key((exponents, basis))


def _pair_key(monomial):
    """``monomial_key`` of a term dict key ``(exponents, basis)``: the sort
    key of rendering, ``terms`` and the Groebner tables."""
    exponents, basis = monomial
    deg = sum(map(abs, exponents))
    if basis is None:
        return (deg, exponents)
    return (deg, exponents, -basis)


def term_key(term):
    """Ascending key for a term: monomial, then coefficient under int_key."""
    return (monomial_key(term.monomial.exponents, term.monomial.basis),
            int_key(term.coefficient))


def element_key(g):
    """Ascending key for a whole element: the descending term list, keyed.

    Python's tuple order applies the recursive rule: equal leading terms
    are skipped, a strict prefix (the element that ran out of terms first)
    is smaller, which matches 0 being the least element.
    """
    return tuple(term_key(t) for t in g.terms)
