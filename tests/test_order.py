"""The layered well-order: published fixtures and order axioms."""

import random

from hypothesis import given, strategies as st

from _helpers import element_key, term_key
from metabelian.elements import Ambient, ModuleElement
from metabelian.order import int_key, monomial_key

AMB = Ambient(("x1", "x2", "x3", "x4"), (0,) * 4, 3, ("e1", "e2", "e3"),
              laurent=False)


def mon(*exps, basis=None):
    return monomial_key((tuple(exps), basis))


class TestIntegerOrder:
    def test_zero_is_least(self):
        assert int_key(0) < int_key(5)
        for v in range(-50, 51):
            if v != 0:
                assert int_key(0) < int_key(v)

    def test_negatives_exceed_positives(self):
        assert int_key(2) < int_key(-1)
        assert int_key(10 ** 9) < int_key(-1)

    def test_negatives_reversed(self):
        assert int_key(-1) < int_key(-2)

    @given(st.integers(), st.integers())
    def test_total_and_antisymmetric(self, a, b):
        ka, kb = int_key(a), int_key(b)
        assert (ka < kb) + (ka == kb) + (kb < ka) == 1
        assert (ka == kb) == (a == b)

    def test_transitive_bulk(self):
        rng = random.Random(0)
        for _ in range(10_000):
            a, b, c = (int_key(rng.randint(-40, 40)) for _ in range(3))
            if a <= b and b <= c:
                assert a <= c


class TestMonomialOrder:
    def test_published_comparisons(self):
        # x1^2 x2 e2 < x1^3 e1 (with any coefficients)
        assert mon(2, 1, 0, 0, basis=2) < mon(3, 0, 0, 0, basis=1)
        assert mon(3, 5, 0, 0, basis=2) < mon(3, 0, 6, 0, basis=2)

    def test_reflexive(self):
        assert mon(0, 0, 0, 0, basis=1) == mon(0, 0, 0, 0, basis=1)

    def test_basis_order(self):
        # e1 > e2 > e3
        assert mon(0, 0, 0, 0, basis=2) < mon(0, 0, 0, 0, basis=1)

    def test_transitive_bulk(self):
        rng = random.Random(2)

        def rand_mon():
            return mon(*(rng.randint(0, 4) for _ in range(4)),
                       basis=rng.randint(1, 3))

        for _ in range(10_000):
            a, b, c = (rand_mon() for _ in range(3))
            if a <= b and b <= c:
                assert a <= c


class TestTermAndElementOrder:
    def test_published_term_comparison(self):
        assert term_key(((5, 0, 2, 0), 3), 2) < term_key(((5, 0, 2, 0), 3), 4)

    def test_element_reflexive(self):
        g = ModuleElement.from_dict(AMB, {((1, 0, 0, 0), 1): 2,
                                          ((0, 0, 0, 0), 2): -1})
        assert element_key(g) == element_key(g)

    def test_recursive_after_equal_leading(self):
        g = ModuleElement.from_dict(AMB, {((1, 0, 0, 0), 1): 1,
                                          ((0, 0, 0, 0), 1): 1})
        h = ModuleElement.from_dict(AMB, {((1, 0, 0, 0), 1): 1,
                                          ((0, 0, 0, 0), 1): 2})
        assert element_key(g) < element_key(h)

    def test_zero_is_least_element(self):
        g = ModuleElement.from_dict(AMB, {((0, 0, 0, 0), 1): 1})
        assert element_key(ModuleElement.zero(AMB)) < element_key(g)


def test_monomial_multiplicativity():
    """g < h implies u*g < u*h for polynomial monomials u."""
    rng = random.Random(3)
    amb = Ambient(("x1", "x2"), (0, 0), 2, ("e1", "e2"), laurent=False)
    for _ in range(2000):
        raw = lambda: {((rng.randint(0, 3), rng.randint(0, 3)),
                        rng.randint(1, 2)): rng.randint(-3, 3)
                       for _ in range(rng.randint(0, 3))}
        g = ModuleElement.from_dict(amb, raw())
        h = ModuleElement.from_dict(amb, raw())
        u = (rng.randint(0, 3), rng.randint(0, 3))
        gu, hu = g.scale_translate(1, u), h.scale_translate(1, u)
        if element_key(g) < element_key(h):
            assert element_key(gu) < element_key(hu)
        elif element_key(h) < element_key(g):
            assert element_key(hu) < element_key(gu)
