"""Closed-form bounds agree exactly with their expanded integers."""

import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from _helpers import (BS2, int_max_str_digits, random_element, reference_bound_json,
                      reference_bound_str)
from metabelian import bounds
from metabelian.bounds import VALUE_MAX_BITS, Bound
from metabelian.elements import Ambient
from metabelian.groebner import buchberger_strong, certificate_bound
from metabelian.presets import PresetSpec, build
from metabelian.wordproblem import _assembly_bound, _relative_bound, constant_k, module_context

BS3 = build(PresetSpec("bs", n=3))
LENGTHS = list(range(1, 201)) + [256, 512]


def assembly(p, n):
    return _assembly_bound(n, constant_k(p), module_context(p).basis,
                           len(p.module_gens), p.free_rank)


def expanded(b: Bound) -> int:
    return bounds._expand(b.terms) // b.divisor


def assert_exact(b: Bound):
    v = expanded(b)
    assert b.bit_length() == v.bit_length()
    for x in (v - 1, v, v + 1):
        assert (b < x) == (v < x)
        assert (b <= x) == (v <= x)
        assert (b == x) == (v == x)
        assert (b >= x) == (v >= x)
        assert (b > x) == (v > x)
    assert hash(b) == hash(v)
    assert int(b) == v


@pytest.mark.parametrize("p", [BS2, BS3], ids=["bs2", "bs3"])
def test_assembly_bound_exact(p):
    for n in LENGTHS:
        assert_exact(assembly(p, n))


def test_relative_bound_exact():
    rng = random.Random(11)
    for _ in range(300):
        size = rng.choice([0, 1, rng.randrange(10 ** 6), rng.getrandbits(500)])
        assert_exact(_relative_bound(rng.randrange(0, 600), size))


def test_certificate_bound_exact():
    rng = random.Random(12)
    amb = Ambient(("x", "y"), (0, 0), 2, ("e1", "e2"), laurent=False)
    checked = 0
    while checked < 300:
        gens = [g for g in (random_element(rng, amb) for _ in range(2))
                if not g.is_zero()]
        gb = buchberger_strong(gens)
        for _ in range(10):
            g = random_element(rng, amb, max_degree=rng.randrange(0, 12),
                               max_coeff=50, max_terms=4)
            assert_exact(certificate_bound(g, gb))
            checked += 1


def test_cancelling_powers_of_two():
    rng = random.Random(13)
    for _ in range(200):
        t = rng.randrange(0, 3000)
        assert_exact(Bound(((1, 4, t), (rng.randrange(0, 5), 3, rng.randrange(0, t + 1)))))
        assert_exact(Bound(((3, 8, t), (-1, 2, 3 * t), (1, 1, 1))))
        assert_exact(Bound(((1, 2, t), (-1, 1, 1)), 1))


def test_compares_with_bounds():
    a, b = assembly(BS2, 40), assembly(BS2, 41)
    assert a < b and b > a and a != b and a == assembly(BS2, 40)
    assert Bound(((1, 4, 50),)) == Bound(((1, 2, 100),))
    assert Bound(((1, 4, 50),)) < Bound(((1, 2, 100), (1, 1, 1)))


def test_value_present_iff_short():
    for n in LENGTHS:
        for b in (assembly(BS2, n), assembly(BS3, n), _relative_bound(n, 2 ** n)):
            doc = b.to_json()
            short = int(b).bit_length() <= VALUE_MAX_BITS
            assert ("value" in doc) == short
            assert doc["expression"] == b.expression
            assert doc["log2"] == pytest.approx(math.log2(int(b)), rel=1e-9, abs=1e-6)
            if short:
                assert doc["value"] == str(int(b)) == str(b)
            else:
                assert str(b) == b.expression


def test_huge_bound_renders_without_expansion(monkeypatch):
    def refuse(terms):
        raise AssertionError("a closed-form bound was expanded")

    monkeypatch.setattr(bounds, "_expand", refuse)
    b = assembly(BS2, 4121)  # about 155M bits
    doc = b.to_json()
    assert "value" not in doc
    assert doc["expression"].startswith("576^16982641 + ")
    assert b.bit_length() == math.floor(16982641 * math.log2(576)) + 1
    assert b > 10 ** 4000 and 5 <= b and b != 0
    assert str(b) == doc["expression"]


def test_wide_interval_renders_without_expansion(monkeypatch):
    """log2 near 1.5e12: the padded interval is several units wide, so the
    bit length is undecided, but the bound is far above the cut."""
    def refuse(terms):
        raise AssertionError("a closed-form bound was expanded")

    monkeypatch.setattr(bounds, "_expand", refuse)
    b = Bound(((1, 4, 759817695078), (-1, 1, 0)), 3)
    doc = b.to_json()
    assert "value" not in doc
    assert doc["log2"] == pytest.approx(2 * 759817695078 - math.log2(3))
    assert doc["expression"] == "(4^759817695078 - 1)/3"
    assert str(b) == doc["expression"]


def test_huge_bound_compares_with_ints_without_expansion(monkeypatch):
    def refuse(terms):
        raise AssertionError("a closed-form bound was expanded")

    monkeypatch.setattr(bounds, "_expand", refuse)
    b = assembly(BS2, 4121)  # about 155M bits
    below, above = 1 << 150_000_000, 1 << 160_000_000
    for x in (0, -1, -(10 ** 30), -above, below + 1):
        assert (b < x, b <= x, b == x, b >= x, b > x) == \
            (False, False, False, True, True)
    assert (b < above, b <= above, b == above, b >= above, b > above) == \
        (True, True, False, False, False)
    assert below < b < above and b != below


def _digits(text: str) -> int:
    """The int of a decimal text of any length, read in pieces below
    Python's int-to-str digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        piece = text[start:start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_decimal_past_the_digit_limit():
    """``_decimal`` is ``str`` for ints Python converts, and writes longer
    ones digit for digit without touching the process-wide limit."""
    limit = sys.get_int_max_str_digits()
    rng = random.Random(11)
    for n in (0, 7, -7, 10 ** 300, -(2 ** 5000) + 1):
        assert bounds._decimal(n) == str(n)
    texts = ["9" * 5000, "1" + "0" * 9000 + "7",
             "".join(rng.choice("0123456789") for _ in range(20000)).lstrip("0")]
    for text in texts:
        n = _digits(text)
        assert bounds._decimal(n) == text
        assert bounds._decimal(-n) == "-" + text
    assert sys.get_int_max_str_digits() == limit


def test_json_int_at_the_digit_limit():
    """``_json_int`` keeps an int that ``str`` converts, ``2^(3*limit)``
    included, and writes a longer one as its decimal string."""
    limit = sys.get_int_max_str_digits()
    for n in (0, -7, 2 ** (3 * limit), 10 ** limit - 1, 1 - 10 ** limit):
        assert type(bounds._json_int(n)) is int and bounds._json_int(n) == n
    for n in (10 ** limit, -(10 ** limit), 10 ** (2 * limit)):
        assert bounds._json_int(n) == bounds._decimal(n)


def test_huge_terms_render_past_the_digit_limit(monkeypatch):
    """Coefficient, base and exponent of 5,000 digits render; a bound whose
    log2 is past the float range writes it as an integer, here with more
    digits than ``str`` converts, unexpanded."""
    def refuse(terms):
        raise AssertionError("a closed-form bound was expanded")

    monkeypatch.setattr(bounds, "_expand", refuse)
    big = 10 ** 5000 - 1
    b = Bound(((big, big + 2, big), (2, 2, 5)), 7)  # 7 divides the sum
    nines = "9" * 5000
    assert b.expression == f"({nines}*1{'0' * 4999}1^{nines} + 2*2^5)/7"
    doc = b.to_json()
    assert "value" not in doc and b.log2() == math.inf
    log2 = _digits(doc["log2"])
    # log2 = big * log2(big + 2) + log2(big / 7), the second part about 16,600
    assert abs(log2 - big * Fraction(math.log2(big + 2))) < big * Fraction(1, 10 ** 12)
    assert str(b) == b.expression


def test_division_size_renders_past_the_digit_limit():
    from metabelian.groebner import DivisionCertificate
    from metabelian.elements import ModuleElement

    ring = Ambient(("t",), (0,), 1, None, laurent=True)
    size = 10 ** 6000 + 1
    cert = DivisionCertificate((), ModuleElement.zero(ring), 0, size,
                               Bound.of(size))
    assert cert.to_json()["size"] == "1" + "0" * 5999 + "1"


def test_int_comparisons_expand_once(monkeypatch):
    """An int next to the value leaves the float interval undecided: the
    powers are then expanded once, and each operator compares once."""
    calls = Counter()
    real_expand, real_compare = bounds._expand, Bound._compare

    def expand(terms):
        calls["expand"] += 1
        return real_expand(terms)

    def compare(self, other):
        calls["compare"] += 1
        return real_compare(self, other)

    b = Bound(((1, 3, 400), (-1, 1, 1)), 2)   # (3^400 - 1)/2, 634 bits
    v = expanded(b)
    monkeypatch.setattr(bounds, "_expand", expand)
    monkeypatch.setattr(Bound, "_compare", compare)
    for x in (v - 1, v, v + 1):
        assert (b < x, b <= x, b == x, b >= x, b > x) == \
            (v < x, v <= x, v == x, v >= x, v > x)
    assert calls == {"expand": 1, "compare": 15}


def test_compares_with_zero_and_negative_ints():
    for b in (Bound(((1, 2, 10), (-5000, 1, 1))),           # -3976
              Bound(((1, 2, 3000), (-1, 3, 2000))),         # about -2^3170
              Bound(((1, 1, 1), (-1, 1, 0))),               # 0
              Bound(((7, 3, 1),), 7)):                      # 3
        assert_exact(b)
        v = expanded(b)
        for x in (0, -1, -3976, -(1 << 4000)):
            assert (b < x, b <= x, b == x, b >= x, b > x) == \
                (v < x, v <= x, v == x, v >= x, v > x)


@pytest.mark.parametrize("other", [1.0, 0.0, float("inf"), "1", "x"])
def test_other_types_do_not_compare(other):
    b = Bound(((1, 2, 10),))
    assert (b == other) is False and (b != other) is True
    for op in (lambda: b < other, lambda: b <= other,
               lambda: b > other, lambda: b >= other):
        with pytest.raises(TypeError):
            op()


def test_hash_of_negative_bounds_and_modulus_divisors():
    m = sys.hash_info.modulus
    for b in (Bound(((1, 2, 10), (-5000, 1, 1))),
              Bound(((1, 2, 3000), (-1, 3, 2000))),
              Bound(((1, 1, 1), (-2, 1, 1))),               # -1 hashes to -2
              Bound(((m, 2, 5), (m, 1, 0)), m),             # 33
              Bound(((m, 2, 200), (-m, 3, 300)), m),
              Bound(((-m, 1, 1),), m)):
        assert hash(b) == hash(int(b))


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        Bound(((1, 2, 3),), 0)
    with pytest.raises(ValueError):
        Bound(((1, -2, 3),))


@pytest.mark.parametrize("terms, divisor", [
    (((1, 1, 1),), 3),                          # 1/3 read 0 and compared > 0
    (((1, 2, 10 ** 400), (1, 3, 10 ** 400)), 5),  # 2 mod 5, never expanded
    (((-1, 1, 1),), 2),
])
def test_rejects_a_divisor_that_does_not_divide(terms, divisor, monkeypatch):
    """The sum is checked on residues modulo the divisor: no power is
    expanded, and a sum the divisor does not divide raises ValueError."""
    def refuse(terms):
        raise AssertionError("a closed-form bound was expanded")

    monkeypatch.setattr(bounds, "_expand", refuse)
    with pytest.raises(ValueError, match="must divide"):
        Bound(terms, divisor)
    Bound(terms + ((divisor - sum(c * pow(b, e, divisor) for c, b, e in terms)
                    % divisor, 1, 1),), divisor)  # the sum made divisible


def test_certificate_bounds_construct():
    """``p((1+C)^R - 1)/C`` divides for every C and R, past the float range
    too."""
    for c in (1, 2, 3, 7, 10 ** 30):
        for r in (0, 1, 5, 10 ** 400):
            assert Bound(((3, 1 + c, r), (-3, 1, 1)), c) >= 0


def test_zero_renders_as_strict_json():
    """A zero bound writes ``"log2": null``; ``log2()`` stays ``-inf``."""
    for b in (Bound.of(0), Bound(((1, 1, 1), (-1, 1, 0))),
              Bound(((3, 2, 4), (-48, 1, 1)), 3)):
        doc = b.to_json()
        assert doc == {"expression": b.expression, "log2": None, "value": "0"}
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc
        assert b.log2() == -math.inf and str(b) == "0"


@pytest.mark.parametrize("terms, divisor", [
    (((1.5, 2, 3),), 1),
    ((("7", 2, "3"),), 1),
    (((2.9, 1, 1),), 1),
    (((1, 2, 3),), 1.0),
])
def test_rejects_non_integer_parts(terms, divisor):
    """A float or a string is refused, not truncated or converted."""
    with pytest.raises(TypeError):
        Bound(terms, divisor)


def test_past_the_float_range(monkeypatch):
    """Exponents whose log2 overflows a float: a part past the float range
    dominates one that is not, two such parts compare on their exponents,
    and what stays undecided raises ValueError, never OverflowError."""
    def refuse(terms):
        raise AssertionError("a closed-form bound was expanded")

    monkeypatch.setattr(bounds, "_expand", refuse)
    e = 10 ** 400
    two, three = Bound(((1, 2, e),)), Bound(((1, 3, e),))
    for b, log2 in ((two, e), (three, e * Fraction(math.log2(3))),
                    (Bound(((1, 2, e + 2), (1, 3, e)), 5), e * Fraction(math.log2(3)))):
        assert b > 5 and b >= 5 and not b < 5 and b != 5 and 5 < b
        assert b > -(10 ** 30) and b > Bound(((1, 7, 10 ** 300),))
        assert b.log2() == math.inf and not b.is_short()
        # the JSON log2 is an integer within the exact span, never inf
        doc = b.to_json()
        assert type(doc["log2"]) is int and "value" not in doc
        assert abs(doc["log2"] - log2) < e * Fraction(1, 10 ** 12)
        json.dumps(doc, allow_nan=False)
    assert two.to_json()["log2"] == e
    assert two.bit_length() == e + 1
    assert Bound(((3, 2, e),)).bit_length() == e + 2
    assert Bound(((1, 2, e), (-1, 1, 0))).bit_length() == e
    with pytest.raises(ValueError, match="out of reach"):
        three.bit_length()
    assert two < three and three > two and two != three
    assert three == Bound(((1, 3, e),)) and two == Bound(((1, 4, e // 2),))
    assert Bound(((1, 2, e), (1, 1, 1))) > two
    assert Bound(((1, 3, e), (-1, 2, e))) > 0
    difference = Bound(((1, 2, e), (-1, 3, e)))
    assert difference < 0 and difference < -(10 ** 30)
    assert hash(difference) == -hash(Bound(((1, 3, e), (-1, 2, e))))
    with pytest.raises(ValueError, match="out of reach"):
        difference.log2()
    with pytest.raises(ValueError, match="out of reach"):
        Bound(((1, 3, e + 1),)) > Bound(((2, 3, e), (1, 5, 3)))


def test_equal_bounds_keep_their_own_texts():
    """Rendering goes by the closed form, not by the value: ``4`` and
    ``2^2`` are equal bounds with texts of their own, whichever renders
    first."""
    for first, second, texts in (
            (Bound(((4, 1, 1),)), Bound(((1, 2, 2),)), ("4", "2^2")),
            (Bound(((1, 4, 600),)), Bound(((1, 2, 1200),)), ("4^600", "2^1200"))):
        assert first == second and hash(first) == hash(second)
        for b, text in ((first, texts[0]), (second, texts[1]), (first, texts[0])):
            assert b.to_json()["expression"] == text
            assert str(b) == (text if not b.is_short() else "4")


def test_documents_are_copies():
    b = Bound(((1, 3, 50), (2, 1, 1)))
    doc = b.to_json()
    expected = dict(doc)
    doc["expression"] = "changed"
    doc["extra"] = 1
    del doc["log2"]
    assert b.to_json() == expected and str(b) == expected["value"]


def test_document_cache_is_bounded():
    """More distinct bounds than the cache holds: it stays at its size, and
    a bound evicted and rendered again renders as the first time."""
    size = bounds._document.cache_parameters()["maxsize"]
    bounds._document.cache_clear()
    first = Bound(((1, 2, 10 ** 6), (7, 1, 1)))
    rendered = (first.to_json(), str(first))
    for n in range(size + 50):
        Bound(((1, 3, n), (n, 5, 2))).to_json()
    info = bounds._document.cache_info()
    assert info.currsize <= size and info.misses == size + 51
    assert (first.to_json(), str(first)) == rendered
    assert bounds._document.cache_info().misses == size + 52


def test_a_render_that_raises_leaves_no_entry():
    """A bound whose log2 is out of reach raises on every render, and the
    cache holds nothing for it."""
    e = 10 ** 400
    b = Bound(((1, 2, e), (-1, 3, e)))
    bounds._document.cache_clear()
    for render in (b.to_json, b.to_json, lambda: str(b)):
        with pytest.raises(ValueError, match="out of reach"):
            render()
    assert bounds._document.cache_info().currsize == 0


# Exponents of a term just above VALUE_MAX_BITS (3^647 has 1026 bits), past
# the float range, and past it with a log2 of more digits than Python's least
# int-to-str limit (640), next to short ones.
_EXPONENTS = st.one_of(st.integers(0, 40), st.just(647), st.just(10 ** 400),
                       st.just(10 ** 700))


@settings(max_examples=300, deadline=None)
@example([(0, 2, 10 ** 400), (2, 1, 1), (-1, 1, 1)], 1)  # a zero term is never expanded
@given(st.lists(st.tuples(st.integers(-3, 10 ** 6), st.integers(0, 9), _EXPONENTS),
                min_size=1, max_size=4),
       st.sampled_from((1, 3, 7)))
def test_render_matches_the_uncached_render(terms, divisor):
    """``to_json()`` and ``str()`` equal a render without the cache, also
    from the cache after the int-to-str digit limit is lowered; where that
    render raises (log2 out of reach, or a bound below zero), both raise the
    same."""
    terms = [(c * divisor, b, e) for c, b, e in terms]  # d divides the sum
    b = Bound(terms, divisor)
    try:
        expected = reference_bound_json(Bound(terms, divisor))
    except ValueError as exc:
        for render in (b.to_json, lambda: str(b)):
            with pytest.raises(type(exc)):
                render()
        return
    for _ in range(2):  # cold, then from the cache
        assert b.to_json() == expected
        assert str(b) == reference_bound_str(Bound(terms, divisor))
    with int_max_str_digits(640):  # an int log2 past the limit is a string
        lowered = reference_bound_json(Bound(terms, divisor))
        assert b.to_json() == lowered
        json.dumps(b.to_json(), allow_nan=False)
    json.dumps(expected, allow_nan=False)
