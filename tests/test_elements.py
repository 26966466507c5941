"""Arithmetic of reduced module elements and the canonical text format."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import element_key, int_max_str_digits, reference_render, terms
from metabelian import elements
from metabelian.elements import (Ambient, ModuleElement, parse_element,
                                 render_element)
from metabelian.errors import AmbientMismatch, ParseError

LAURENT = Ambient(("t",), (0,), 1, ("a",), laurent=True)
MOD2 = Ambient(("t",), (0,), 2, ("a1", "a2"), laurent=True)


def el(text, amb=LAURENT):
    return parse_element(text, amb)


class TestAdd:
    def test_plain(self):
        assert el("2*a") + el("3*a") == el("5*a")

    def test_cancellation(self):
        assert (el("t*a") + el("-t*a")).is_zero()

    def test_opposite_polynomials(self):
        assert (el("(t - 2)*a") + el("(2 - t)*a")).is_zero()

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            el("a") + parse_element("a1", MOD2)

    def test_length_subadditive(self):
        rng = random.Random(0)
        from _helpers import random_element
        for _ in range(500):
            g = random_element(rng, MOD2)
            h = random_element(rng, MOD2)
            assert (g + h).length <= g.length + h.length


class TestScaleTranslate:
    def test_translate(self):
        assert el("(t - 2)*a").scale_translate(1, (1,)) == \
            el("(t^2 - 2*t)*a")

    def test_negate_preserves_length(self):
        g = el("(3*t^2 - 2)*a")
        assert g.scale_translate(-1, (0,)).length == g.length

    def test_distributes_over_basis(self):
        g = parse_element("a1 + a2", MOD2)
        out = g.scale_translate(3, (1,))
        assert out == parse_element("3*t*a1 + 3*t*a2", MOD2)

    def test_zero_scalar(self):
        assert el("a").scale_translate(0, (1,)).is_zero()

    def test_additive(self):
        rng = random.Random(1)
        from _helpers import random_element
        for _ in range(500):
            g = random_element(rng, MOD2)
            h = random_element(rng, MOD2)
            c = rng.randint(-3, 3)
            u = (rng.randint(-2, 2),)
            assert (g + h).scale_translate(c, u) == \
                g.scale_translate(c, u) + h.scale_translate(c, u)


class TestLeadingData:
    def test_published_leading_monomials(self):
        amb = Ambient(("x1", "x2", "x3", "x4"), (0,) * 4, 3,
                      ("e1", "e2", "e3"), laurent=False)
        g = ModuleElement.from_dict(amb, {((7, 0, 0, 0), 1): 1,
                                          ((3, 4, 0, 0), 2): 3})
        assert terms(g)[0] == (((7, 0, 0, 0), 1), 1)
        h = ModuleElement.from_dict(amb, {
            ((0, 3, 0, 0), 1): 1, ((0, 5, 2, 0), 2): 1,
            ((0, 3, 0, 5), 2): 1, ((0, 5, 2, 0), 3): 1})
        assert terms(h)[0] == (((0, 3, 0, 5), 2), 1)

    def test_constant(self):
        assert terms(el("5*a")) == [(((0,), 1), 5)]


class TestMeasures:
    def test_polynomial(self):
        g = el("(t^2 - 2*t)*a")
        assert (g.length, g.degree, len(g.as_dict())) == (3, 2, 2)

    def test_zero_convention(self):
        zero = ModuleElement.zero(LAURENT)
        assert (zero.length, zero.degree, len(zero.as_dict())) == (0, 0, 0)

    def test_square_length(self):
        ring = LAURENT.ring()
        f = parse_element("1 + t + t^2", ring)
        assert f.mul_ring(f).length == 9

    def test_mul_ring_needs_the_coefficient_ring(self):
        """A multiplier from another ring, or with a basis part, is refused:
        ``x^2`` of Z[x] would leave exponent tuples of length 1 in Z[x, y]."""
        amb = Ambient(("x", "y"), (0, 0), 1, ("e",), laurent=False)
        g = parse_element("(x*y + 1)*e", amb)
        other = parse_element("x^2", Ambient(("x",), (0,), 1, laurent=False))
        for lam in (other, g):
            with pytest.raises(AmbientMismatch):
                g.mul_ring(lam)
        x2 = parse_element("x^2", amb.ring())
        assert g.mul_ring(x2) == parse_element("(x^3*y + x^2)*e", amb)

    def test_degree_monotone_under_order(self):
        rng = random.Random(2)
        from _helpers import random_element
        amb = Ambient(("x1", "x2"), (0, 0), 2, ("e1", "e2"), laurent=False)
        for _ in range(2000):
            g = random_element(rng, amb)
            h = random_element(rng, amb)
            if element_key(g) < element_key(h):
                assert g.degree <= h.degree


def _ambient(draw) -> Ambient:
    """A ring or module ambient, Laurent or not, with free and torsion
    variables."""
    torsion = tuple(draw(st.lists(st.sampled_from((0, 2, 3)), min_size=1,
                                  max_size=3)))
    rank = draw(st.integers(0, 3))
    return Ambient(tuple(f"x{i}" for i in range(len(torsion))), torsion,
                   max(rank, 1), tuple(f"e{i}" for i in range(rank)) or None,
                   laurent=draw(st.booleans()))


def _raw(draw, amb: Ambient) -> dict:
    """A term dict over ``amb`` whose torsion exponents wrap onto each other,
    so that terms merge or cancel, with zero coefficients among them.  A
    polynomial ambient gets non-negative exponents, as ``from_dict`` rejects
    the others there."""
    exponents = st.tuples(*[st.integers(-4 if amb.laurent else 0, 4)] * amb.nvars)
    monomials = st.tuples(exponents, st.none() if amb.is_ring()
                          else st.integers(1, amb.rank))
    return draw(st.dictionaries(monomials, st.integers(-2, 2), max_size=12))


@st.composite
def raw_terms(draw):
    """``(ambient, raw)`` as drawn by ``_ambient`` and ``_raw``."""
    amb = _ambient(draw)
    return amb, _raw(draw, amb)


def _reference(amb: Ambient, triples) -> dict:
    """The term dict of ``(coefficient, exponents, basis)`` terms, wrapped
    and merged by plain loops, without its zero coefficients."""
    merged = {}
    for coeff, exps, basis in triples:
        key = (amb.wrap(exps), basis)
        merged[key] = merged.get(key, 0) + coeff
    return {key: c for key, c in merged.items() if c}


@settings(max_examples=300)
@given(raw_terms())
def test_from_dict_merges_wrapped_terms(case):
    """The stored terms are the wrapped, merged, non-zero terms."""
    amb, raw = case
    triples = [(c, exps, basis) for (exps, basis), c in raw.items()]
    assert ModuleElement.from_dict(amb, raw).as_dict() == _reference(amb, triples)


def _scaled(g: ModuleElement, c: int, u) -> list:
    """The terms of ``c * u * g`` as unreduced triples."""
    return [(c * coeff, tuple(a + b for a, b in zip(exps, u)), basis)
            for (exps, basis), coeff in g.as_dict().items()]


@settings(max_examples=300)
@given(st.data())
def test_arithmetic_matches_plain_loops(data):
    """``+``, ``-``, ``scale_translate`` and ``mul_ring`` against term-by-term
    products, over ambients whose torsion wraps merge or cancel terms."""
    amb = _ambient(data.draw)
    g, h = (ModuleElement.from_dict(amb, _raw(data.draw, amb)) for _ in range(2))
    lam = ModuleElement.from_dict(amb.ring(), _raw(data.draw, amb.ring()))
    c = data.draw(st.integers(-3, 3))
    u = data.draw(st.tuples(*[st.integers(-4 if amb.laurent else 0, 4)]
                            * amb.nvars))
    one = (0,) * amb.nvars
    assert (g + h).as_dict() == _reference(
        amb, _scaled(g, 1, one) + _scaled(h, 1, one))
    assert (g - h).as_dict() == _reference(
        amb, _scaled(g, 1, one) + _scaled(h, -1, one))
    assert g.scale_translate(c, u).as_dict() == _reference(amb, _scaled(g, c, u))
    assert g.mul_ring(lam).as_dict() == _reference(amb, [
        term for (exps, _), coeff in lam.as_dict().items()
        for term in _scaled(g, coeff, exps)])


class TestReducedness:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2),
                              st.integers(1, 2)), max_size=6))
    def test_always_reduced(self, entries):
        raw = {}
        for c, e, b in entries:
            raw[((e,), b)] = raw.get(((e,), b), 0) + c
        g = ModuleElement.from_dict(MOD2, raw)
        assert g.as_dict() == {key: c for key, c in raw.items() if c}
        assert all(g.as_dict().values())

    def test_add_associative_commutative(self):
        rng = random.Random(3)
        from _helpers import random_element
        zero = ModuleElement.zero(MOD2)
        for _ in range(1000):
            g, h, k = (random_element(rng, MOD2) for _ in range(3))
            assert (g + h) + k == g + (h + k)
            assert g + h == h + g
            assert g + zero == g


class TestTextFormat:
    def test_render_example(self):
        g = parse_element("(t^2 - 2*t)*a1 + 3*a2", MOD2)
        assert render_element(g) == "(t^2 - 2*t)*a1 + 3*a2"

    def test_zero(self):
        assert render_element(ModuleElement.zero(MOD2)) == "0"
        assert parse_element("0", MOD2).is_zero()

    def test_roundtrip_random(self):
        rng = random.Random(4)
        from _helpers import random_element
        for _ in range(1000):
            g = random_element(rng, MOD2)
            assert parse_element(render_element(g), MOD2) == g

    def test_roundtrip_ring(self):
        ring = LAURENT.ring()
        rng = random.Random(5)
        from _helpers import random_element
        for _ in range(300):
            g = random_element(rng, ring)
            assert parse_element(render_element(g), ring) == g

    def test_negative_exponents(self):
        g = el("2*t^-1*a")
        assert g.as_dict() == {((-1,), 1): 2}

    def test_factor_that_wraps_to_zero(self):
        """A product sees a factor as the element it wraps to: with t of
        order 3 the left factors below are 0, not module elements."""
        amb = Ambient(("t",), (3,), 1, ("a",))
        assert parse_element("(t^3*a - a)*a", amb).is_zero()
        assert parse_element("(t^2*t^2*a - t*a)*a", amb).is_zero()
        with pytest.raises(ParseError, match="two module elements"):
            parse_element("(t^2*a - a)*a", amb)


def _term_render(g: ModuleElement) -> str:
    """A renderer that walks the descending term list, filtering it per
    basis vector: the reference for the one that groups the sorted keys."""
    if g.is_zero():
        return "0"
    amb = g.ambient

    def ring_text(terms) -> str:
        parts = []
        for i, ((exps, _), c) in enumerate(terms):
            monos = []
            for j, e in enumerate(exps):
                if e:
                    monos.append(amb.variables[j] + (f"^{e}" if e != 1 else ""))
            body = "*".join(monos)
            mag = abs(c)
            if body and mag == 1:
                piece = body
            elif body:
                piece = f"{mag}*{body}"
            else:
                piece = str(mag)
            if i == 0:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append((" + " if c > 0 else " - ") + piece)
        return "".join(parts)

    if amb.is_ring():
        return ring_text(terms(g))

    chunks = []
    for b in range(1, amb.rank + 1):
        on_b = [t for t in terms(g) if t[0][1] == b]
        if not on_b:
            continue
        name = amb.basis_names[b - 1]
        if len(on_b) == 1:
            ring_part = ring_text(on_b)
            if ring_part == "1":
                text = name
            elif ring_part == "-1":
                text = f"-{name}"
            else:
                text = f"{ring_part}*{name}"
        else:
            text = f"({ring_text(on_b)})*{name}"
        chunks.append(text)
    out = chunks[0]
    for c in chunks[1:]:
        out += f" - {c[1:]}" if c.startswith("-") else f" + {c}"
    return out


@settings(max_examples=500)
@given(raw_terms(), st.sampled_from((1, 1, -1, 3, -10 ** 20)))
def test_render_matches_term_renderer(case, scale):
    """Ring and module elements of ranks 1 to 3, with torsion, negative
    exponents, unit and large coefficients, render as the term walk does."""
    amb, raw = case
    g = ModuleElement.from_dict(amb, {m: scale * c for m, c in raw.items()})
    assert render_element(g) == _term_render(g)


# Python's least int-to-str digit limit, and an integer past it.
_LOW_LIMIT = 640
_PAST_LIMIT = 10 ** 700 + 7


@settings(max_examples=300)
@given(raw_terms(), st.sampled_from((1, -1, _PAST_LIMIT)),
       st.sampled_from((0, _PAST_LIMIT)))
def test_render_matches_the_uncached_renderer(case, scale, shift):
    """``render()`` writes what the renderer without a monomial cache
    writes, on a cold cache and again from the cached texts, over ring and
    module ambients with and without torsion; coefficients and exponents
    past the int-to-str digit limit go through ``_decimal``."""
    amb, raw = case
    free = [i for i, d in enumerate(amb.torsion) if not d]
    if free:  # one free variable's exponents moved past the limit
        i = free[0]
        raw = {(e[:i] + (e[i] + shift,) + e[i + 1:], b): c
               for (e, b), c in raw.items()}
    raw = {m: scale * c for m, c in raw.items()}
    # the same terms over variables named otherwise: a text is keyed by the
    # names as well as the exponents
    renamed = replace(amb, variables=tuple(f"y{i}" for i in range(amb.nvars)))
    gs = [ModuleElement.from_dict(a, raw) for a in (amb, renamed)]
    with int_max_str_digits(_LOW_LIMIT):
        expected = [reference_render(g) for g in gs]
        elements._monomial_text.cache_clear()
        assert [g.render() for g in gs] == expected
        assert [g.render() for g in gs] == expected


class TestPolynomialAmbient:
    """A polynomial ambient holds no negative exponent: every way in
    refuses one."""

    POLY = Ambient(("x",), (0,), 1, ("e",), laurent=False)

    def test_from_dict(self):
        with pytest.raises(AmbientMismatch):
            ModuleElement.from_dict(self.POLY, {((-1,), 1): 2})
        assert ModuleElement.from_dict(self.POLY, {((-1,), 1): 0}).is_zero()

    def test_parse_element(self):
        with pytest.raises(AmbientMismatch):
            parse_element("x^-1*e", self.POLY)
        assert parse_element("x^-1*x*e", self.POLY) == parse_element("e", self.POLY)

    def test_scale_translate(self):
        g = parse_element("x*e", self.POLY)
        with pytest.raises(AmbientMismatch):
            g.scale_translate(1, (-2,))
        assert g.scale_translate(1, (-1,)) == parse_element("e", self.POLY)


@pytest.mark.parametrize("ambient, raw", [
    (LAURENT, {((1, 2, 3), 1): 1}),
    (MOD2, {((), 1): 1}),
    (LAURENT, {((0,), 5): 1}),
    (LAURENT, {((0,), 0): 1}),
    (LAURENT, {((0,), "1"): 1}),
    (LAURENT, {((0,), None): 1}),
    (LAURENT.ring(), {((0,), 1): 1}),
    (LAURENT, {((0,), 5): 0}),
], ids=["long-exponents", "short-exponents", "basis-past-rank", "basis-zero",
        "basis-not-int", "no-basis-in-module", "basis-in-ring",
        "zero-coefficient"])
def test_from_dict_refuses_keys_off_the_ambient(ambient, raw):
    """A term key needs one exponent per variable, and no basis vector in a
    ring or a basis index in 1..rank in a module."""
    with pytest.raises(AmbientMismatch):
        ModuleElement.from_dict(ambient, raw)


class TestAmbientValidation:
    def test_torsion_orders(self):
        with pytest.raises(ValueError):
            Ambient(("t",), (1,), 1, ("a",))
        with pytest.raises(ValueError):
            Ambient(("t",), (-2,), 1, ("a",))
        Ambient(("t",), (2,), 1, ("a",))  # order 2 is fine

    def test_basis_alignment(self):
        with pytest.raises(ValueError):
            Ambient(("t",), (0,), 2, ("a",))

    @pytest.mark.parametrize("rank", [0, 2, 3])
    def test_ring_has_rank_one(self, rank):
        """Without basis names an ambient is a ring: of another rank, terms
        on distinct basis vectors would render alike (``t`` for ``t*e1``
        and ``t*e2``)."""
        with pytest.raises(ValueError, match="rank 1"):
            Ambient(("t",), (0,), rank)

    def test_torsion_wrap(self):
        amb = Ambient(("t", "s"), (0, 3), 1, ("a",))
        assert amb.wrap((-2, 7)) == (-2, 1)


class TestDictBacked:
    """An element is its term dict, whatever order the terms came in."""

    RAW = {((2,), 1): 3, ((-1,), 2): -1, ((0,), 1): 2, ((2,), 2): 5}

    def elements(self):
        first = ModuleElement.from_dict(MOD2, self.RAW)
        shuffled = ModuleElement.from_dict(MOD2, dict(reversed(self.RAW.items())))
        return first, shuffled, ModuleElement.from_dict(MOD2, dict(sorted(self.RAW.items())))

    def test_same_element_from_any_order(self):
        first, shuffled, in_key_order = self.elements()
        for g in (shuffled, in_key_order):
            assert g == first and hash(g) == hash(first)
            assert (g.render(), repr(g), g.length, g.degree) == \
                (first.render(), repr(first), first.length, first.degree)

    def test_measures_before_terms_are_read(self):
        g = ModuleElement.from_dict(MOD2, self.RAW)
        assert (g.length, g.degree, g.is_zero()) == (11, 2, False)
        assert g == ModuleElement.from_dict(MOD2, self.RAW)

    def test_as_dict_is_a_copy(self):
        g = ModuleElement.from_dict(MOD2, self.RAW)
        before = (g.render(), hash(g))
        d = g.as_dict()
        d[((9,), 1)] = 1
        del d[((2,), 1)]
        assert g.as_dict() == self.RAW
        assert (g.render(), hash(g)) == before

    def test_from_dict_copies_its_argument(self):
        raw = dict(self.RAW)
        g = ModuleElement.from_dict(MOD2, raw)
        raw.clear()
        assert g.as_dict() == self.RAW

    def test_immutable(self):
        g = ModuleElement.from_dict(MOD2, self.RAW)
        for name in ("ambient", "_raw"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
        assert g.as_dict() == self.RAW

    def test_repr_reads_back(self):
        """``repr`` lists the terms largest monomial first, as a
        ``from_dict`` call that rebuilds the element."""
        g = ModuleElement.from_dict(MOD2, self.RAW)
        assert repr(g) == (f"ModuleElement.from_dict({MOD2!r}, {{((2,), 1): 3, "
                           "((2,), 2): 5, ((-1,), 2): -1, ((0,), 1): 2})")
        assert eval(repr(g), {"Ambient": Ambient, "ModuleElement": ModuleElement}) == g
        with pytest.raises(TypeError):
            ModuleElement(MOD2, self.RAW)
