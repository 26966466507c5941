"""Preset constructors and norm growth."""

import math
import random

import pytest

from _helpers import BS2, FREE_ABELIAN, GAMMA, LAMPLIGHTER2, WF11
from metabelian.elements import Ambient, parse_element
from metabelian.presentation import parse_presentation, parse_word
from metabelian.presets import PresetSpec, build, norm_growth, witness_family
from metabelian.wordproblem import is_identity

RING = Ambient(("t",), (0,), 1, None, laurent=True)


class TestBuild:
    def test_bs(self):
        assert BS2.relators[0].render() == "t*a*t^-1*a^-2"
        assert BS2.tameness is not None

    def test_bs_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            build(PresetSpec("bs", n=1))

    @pytest.mark.parametrize("options, message", [
        ({"name": "bs", "n": 1}, "bs needs n >= 2"),
        ({"name": "lamplighter", "m": 1},
         "lamplighter needs module torsion m >= 2"),
        ({"name": "wf", "r": 0}, "wf needs module rank r >= 1 and k >= 1"),
        ({"name": "wf", "k": 0}, "wf needs module rank r >= 1 and k >= 1"),
    ], ids=["bs-n", "lamplighter-m", "wf-r", "wf-k"])
    def test_spec_refuses_degenerate_parameters(self, options, message):
        """A degenerate parameter is refused where the spec is made, so
        neither ``build`` nor ``witness_family`` is handed one."""
        with pytest.raises(ValueError, match=message):
            PresetSpec(**options)

    def test_lamplighter_module(self):
        from metabelian.collection import relator_module
        assert [v.render() for v in relator_module(LAMPLIGHTER2)] == ["2*a", "0"]

    def test_wf_action_vector(self):
        from metabelian.collection import relator_module
        assert "(u1 - t1 - 1)*a1" in [v.render() for v in relator_module(WF11)]

    def test_wf_rejects_bad_polynomial(self):
        with pytest.raises(ValueError):
            build(PresetSpec("wf", r=1, k=1, fs=((2, 1),)))

    @pytest.mark.parametrize("order", [1, 0, -2])
    def test_wf_rejects_torsion_order_below_2(self, order):
        with pytest.raises(ValueError, match="torsion orders must be >= 2"):
            build(PresetSpec("wf", torsion_orders=(3, order)))

    def test_all_presets_valid_files(self):
        for p in (BS2, GAMMA, LAMPLIGHTER2, FREE_ABELIAN, WF11,
                  build(PresetSpec("zwrz")),
                  build(PresetSpec("wf", r=2, k=2)),
                  build(PresetSpec("wf", r=1, k=1, torsion_orders=(2,)))):
            assert parse_presentation(p.render()) == p

    def test_defining_relators_are_identities(self):
        for p in (BS2, GAMMA, LAMPLIGHTER2, FREE_ABELIAN, WF11):
            for r in p.relators:
                ok, _ = is_identity(r, p)
                assert ok, f"relator {r.render()} not recognized"

    def test_bs_nontrivial_generator(self):
        ok, _ = is_identity(parse_word("a", BS2), BS2)
        assert not ok

    def test_gamma_has_zero_commutator_generator(self):
        # b = [s, t] is itself a relator, so b = 1 holds
        ok, _ = is_identity(parse_word("b", GAMMA), GAMMA)
        assert ok


class TestWitnesses:
    def test_bs_family_identities(self):
        fam = witness_family(PresetSpec("bs", n=3))
        p = build(PresetSpec("bs", n=3))
        for n in (1, 2, 4):
            for w in fam(n):
                assert is_identity(w, p)[0]

    def test_wf_family_identities(self):
        fam = witness_family(PresetSpec("wf", r=1, k=1))
        for n in (1, 3):
            for w in fam(n):
                assert is_identity(w, WF11)[0]


class TestNormGrowth:
    def test_binomial_row(self):
        norms, alpha = norm_growth(parse_element("1 + t", RING), 10)
        assert norms == [2 ** n for n in range(1, 11)]
        assert alpha == pytest.approx(2.0, abs=1e-9)

    def test_square(self):
        norms, _ = norm_growth(parse_element("1 + t + t^2", RING), 3)
        assert norms[1] == 9

    def test_disjoint_supports(self):
        norms, alpha = norm_growth(parse_element("1 + t^3", RING), 8)
        assert norms == [2 ** n for n in range(1, 9)]
        assert alpha > 1.9

    def test_monotone_for_nonnegative_coefficients(self):
        rng = random.Random(0)
        for _ in range(20):
            d = rng.randint(1, 3)
            coeffs = [1] + [rng.randint(0, 3) for _ in range(d - 1)] + [1]
            text = " + ".join(f"{c}*t^{e}" if e else str(c)
                              for e, c in enumerate(coeffs) if c)
            norms, _ = norm_growth(parse_element(text, RING), 6)
            assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            norm_growth(parse_element("2 + t", RING), 3)
        with pytest.raises(ValueError):
            norm_growth(parse_element("1", RING), 3)
        with pytest.raises(ValueError):
            norm_growth(parse_element("1 + t^-1", RING), 3)

    @pytest.mark.parametrize("n", [1, 0])
    def test_one_norm_fits_no_base(self, n):
        with pytest.raises(ValueError, match=f"got N = {n}"):
            norm_growth(parse_element("1 + t", RING), n)
