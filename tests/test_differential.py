"""Differential tests: ``is_identity`` against faithful models of the groups.

BS(1,n) acts faithfully on Q by affine maps (``t -> n*x``, ``a -> x + 1``);
Z_m wr Z and Z wr Z act faithfully on lamp configurations (``t`` moves the
cursor, ``a`` adds one to the lamp under it).  A word is trivial exactly when
its image is the identity, so these models decide the word problem without
collection or Groebner bases.  A basis that generated too much would accept a
non-trivial word here, one that generated too little would reject a relator
product.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from metabelian.presentation import GroupWord
from metabelian.presets import PresetSpec, build
from metabelian.wordproblem import is_identity

IDENTITY = (Fraction(1), Fraction(0))


def _compose(f, g):
    """f o g for affine maps (lam, mu): x -> lam*x + mu."""
    return (f[0] * g[0], f[0] * g[1] + f[1])


def _power(f, e):
    if e < 0:
        f, e = (1 / f[0], -f[1] / f[0]), -e
    out = IDENTITY
    for _ in range(e):
        out = _compose(out, f)
    return out


def affine_model(n):
    """BS(1,n) on Q; the rightmost letter applies first."""
    images = {"t": (Fraction(n), Fraction(0)), "a": (Fraction(1), Fraction(1))}

    def trivial(letters):
        out = IDENTITY
        for name, exp in letters:
            out = _compose(out, _power(images[name], exp))
        return out == IDENTITY
    return trivial


def lamp_model(modulus):
    """Lamps in Z_modulus (Z for modulus 0) along Z, one cursor."""
    def trivial(letters):
        pos, lamps = 0, {}
        for name, exp in letters:
            if name == "t":
                pos += exp
            else:
                lamps[pos] = lamps.get(pos, 0) + exp
                if modulus:
                    lamps[pos] %= modulus
        return pos == 0 and not any(lamps.values())
    return trivial


GROUPS = [
    (PresetSpec("bs", n=2), affine_model(2)),
    (PresetSpec("bs", n=3), affine_model(3)),
    (PresetSpec("bs", n=5), affine_model(5)),
    (PresetSpec("lamplighter", m=2), lamp_model(2)),
    (PresetSpec("lamplighter", m=3), lamp_model(3)),
    (PresetSpec("zwrz"), lamp_model(0)),
]
IDS = ["bs-2", "bs-3", "bs-5", "lamplighter-2", "lamplighter-3", "zwrz"]

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _words(max_size):
    letter = st.tuples(st.sampled_from(["a", "t"]),
                       st.integers(-2, 2).filter(bool))
    return st.lists(letter, max_size=max_size).map(GroupWord.from_letters)


@st.composite
def kernel_words(draw, max_size=10):
    """A random word followed by the t-power that zeroes its t-exponent sum."""
    w = draw(_words(max_size))
    s = sum(e for name, e in w.letters if name == "t")
    return w * GroupWord.from_letters([("t", -s)])


@st.composite
def relator_products(draw, p):
    """R1 * noise * R2, each R a product of conjugates of relators^(+-1).

    The R are trivial, so the verdict is that of the noise, a short random
    kernel word: trivial when it is empty, mostly non-trivial otherwise.
    """
    def product():
        out = GroupWord(())
        for _ in range(draw(st.integers(1, 2))):
            r = draw(st.sampled_from(p.relators))
            if draw(st.booleans()):
                r = r.inverse()
            out = out * r.conjugate_by(draw(_words(3)))
        return out
    return product() * draw(kernel_words(max_size=4)) * product()


@pytest.mark.parametrize("spec,trivial", GROUPS, ids=IDS)
def test_model_kills_relators(spec, trivial):
    p = build(spec)
    assert all(trivial(r.letters) for r in p.relators)
    assert not trivial([("a", 1)]) and not trivial([("t", 1)])


@pytest.mark.parametrize("spec,trivial", GROUPS, ids=IDS)
def test_random_words_agree(spec, trivial):
    p = build(spec)

    @SETTINGS
    @given(kernel_words())
    def check(w):
        assert is_identity(w, p)[0] == trivial(w.letters), w.render()
    check()


@pytest.mark.parametrize("spec,trivial", GROUPS, ids=IDS)
def test_relator_products_agree(spec, trivial):
    p = build(spec)

    @SETTINGS
    @given(relator_products(p))
    def check(w):
        assert is_identity(w, p)[0] == trivial(w.letters), w.render()
    check()
