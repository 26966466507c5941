"""Checks of the benchmark's reference models and decks.

    python3 -m pytest perfbench/test_models.py

A model is a valid reference only if it is a homomorphism: every relator of
the presentation the program builds, every torsion power and every
commutator-table entry must map to the identity, and conjugates of module
letters must commute.
"""

from __future__ import annotations

import pytest

from models import model_for, nontrivial_letter
from prepare import FIXED, Fixture, import_program, prepare, spec_args
from words import commutator, conjugate, inverse, length, product
from workloads import (MAX_BS_LENGTH, MAX_MANY_LENGTH, Group, action_word,
                       make_deck)

mb = import_program()

PRESETS = {repr(p): p for ps in FIXED.values() for p in ps}


def build(params):
    p = mb.presets.build(mb.presets.PresetSpec(params["name"], **spec_args(params)))
    return Fixture(params, p.render(), p)


@pytest.mark.parametrize("key", sorted(PRESETS))
def test_model_is_a_homomorphism(key):
    params = PRESETS[key]
    p = build(params).presentation
    model = model_for(params)
    for relator in p.relators:
        assert model.is_trivial(list(relator.letters)), relator.render()
    for name, order in p.torsion_gens:
        assert model.is_trivial([(name, order)])
    for (s, t), gen in p.commutator_table:
        assert model.evaluate(commutator([(s, 1)], [(t, 1)])) == model.evaluate([(gen, 1)])
    acting = list(p.free_gens) + [n for n, _ in p.torsion_gens]
    conjugators = [[]] + [[(t, e)] for t in acting for e in (1, -2)]
    for a in p.module_gens:
        for b in p.module_gens:
            for v in conjugators:
                for w in conjugators:
                    assert model.is_trivial(
                        commutator(conjugate([(a, 1)], v), conjugate([(b, 1)], w)))
    assert not model.is_trivial([(nontrivial_letter(params), 1)])


@pytest.mark.parametrize("text, trivial", [
    ("t^3*a*t^-3*a^-8", True),
    ("t*a*t^-1*a^-2", True),
    ("t^8*a*t^-8*a^-256", True),
    ("t*a*t^-1*a^-1", False),
    ("a", False),
])
def test_bs2_readme_examples(text, trivial):
    model = model_for({"name": "bs", "n": 2})
    assert model.is_trivial(mb.presentation.parse_word(text).letters) is trivial


def test_bs_witnesses_and_faithfulness():
    for n in (2, 3):
        model = model_for({"name": "bs", "n": n})
        for k in range(1, 9):
            witness = [("t", k), ("a", 1), ("t", -k), ("a", -n ** k)]
            assert model.is_trivial(witness)
            assert not model.is_trivial(product(witness, [("a", 1)]))
        # t^-1 a t is an n-th root of a, not a itself
        assert not model.is_trivial(product([("t", -1), ("a", 1), ("t", 1)], [("a", -1)]))


def test_lamp_models():
    lamplighter = model_for({"name": "lamplighter", "m": 2})
    zwrz = model_for({"name": "zwrz"})
    assert lamplighter.is_trivial([("a", 2)])
    assert not zwrz.is_trivial([("a", 2)])
    for model in (lamplighter, zwrz):
        assert model.is_trivial(commutator([("a", 1)], conjugate([("a", 1)], [("t", 3)])))
        assert not model.is_trivial([("t", 1), ("a", 1), ("t", -1), ("a", -1)])
        assert not model.is_trivial([("t", 1)])


def test_free_abelian_model():
    model = model_for({"name": "free_abelian"})
    assert model.is_trivial(commutator([("t1", 3)], [("t2", 5)]))
    assert model.is_trivial([("c", 7)])
    assert not model.is_trivial([("t1", 1), ("t2", -1)])


def test_wf_action_words_are_trivial():
    for params in (FIXED["multigen-identities"][0], FIXED["multigen-identities"][3]):
        group = Group(build(params))
        for n in range(1, 7):
            letters = action_word(group, n)
            assert group.model.is_trivial(letters)
            assert not group.model.is_trivial(product(letters, [("a1", 1)]))


@pytest.mark.parametrize("workload", sorted(FIXED))
def test_decks_are_seeded_and_within_caps(workload):
    _, fixtures = prepare(workload)
    deck = make_deck(workload, fixtures, 7)
    assert deck == make_deck(workload, fixtures, 7)
    assert deck != make_deck(workload, fixtures, 8)
    cap = {"bs-certify": MAX_BS_LENGTH, "many-groups": MAX_MANY_LENGTH}.get(workload)
    for request in deck:
        words = mb.presentation.parse_word(request.word)
        assert words.length == request.length
        assert cap is None or request.length <= cap
    share = sum(r.expected for r in deck) / len(deck)
    assert share == 1.0 if workload == "multigen-identities" else 0.4 < share < 0.6
    if workload == "many-groups":
        assert {r.fixture for r in deck} == set(range(len(fixtures)))


def test_word_helpers():
    w = [("a", 2), ("t", -1)]
    assert product(w, inverse(w)) == []
    assert length(commutator([("t1", 2)], [("t2", 3)])) == 10
