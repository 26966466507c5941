"""Collection pipeline: splitting, gathering, normalization, pricing."""

import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from _helpers import (BS2, FREE_ABELIAN, GAMMA, LAMPLIGHTER2, WF11,
                      random_kernel_word, render_ordered_word)
from metabelian import collection
from metabelian.collection import (_BLOCK, _SWAP_CASES, CostLedger,
                                   _block_charge, _cancel, _charge_merge,
                                   _collect_units,
                                   _inversion_charge, _merge_price,
                                   _price_conjugator, _price_crossing,
                                   _run_price,
                                   commutator_collect,
                                   ordered_form, relator_module,
                                   split_conjugates)
from metabelian.elements import Ambient, ModuleElement, monomial_word_degree
from metabelian.order import monomial_key
from metabelian.errors import ExponentSumError
from metabelian.presentation import (GroupWord, _condense, commutator,
                                     exponent_sums, parse_word)
from metabelian.presets import PresetSpec, build
from metabelian.wordproblem import constant_k


class TestSplitConjugates:
    def test_single_conjugate(self):
        items, tail = split_conjugates(parse_word("t*a*t^-1", BS2), BS2)
        assert items == [(1, 1, GroupWord((("t", -1),)))]
        assert not tail.letters

    def test_two_letters(self):
        items, tail = split_conjugates(parse_word("a*b", GAMMA), GAMMA)
        assert [(c, b, v.render()) for c, b, v in items] == \
            [(1, 1, "1"), (1, 2, "1")]
        assert not tail.letters

    def test_pure_tail(self):
        items, tail = split_conjugates(parse_word("t^2", BS2), BS2)
        assert items == [] and tail.letters == (("t", 2),)

    def test_free_identity(self):
        rng = random.Random(0)
        for _ in range(200):
            w = random_kernel_word(GAMMA, rng, rng.randrange(0, 8))
            items, tail = split_conjugates(w, GAMMA)
            recon = GroupWord(())
            for c, b, v in items:
                name = GAMMA.module_gens[b - 1]
                recon = recon * GroupWord(((name, c),)).conjugate_by(v)
            recon = recon * tail
            assert recon == w

    def test_conjugator_length_bounded(self):
        rng = random.Random(1)
        for _ in range(200):
            w = random_kernel_word(GAMMA, rng, rng.randrange(0, 8))
            items, _ = split_conjugates(w, GAMMA)
            assert all(v.length <= w.length for _, _, v in items)


class TestCollectTail:
    def test_single_commutator(self):
        items, _ = commutator_collect(parse_word("s^-1*t^-1*s*t", GAMMA), GAMMA)
        assert [(c, b, v.render()) for c, b, v in items] == [(1, 2, "1")]

    def test_empty(self):
        items, ledger = commutator_collect(GroupWord(()), GAMMA)
        assert items == [] and ledger.r1_commutators == 0

    def test_inverse_case(self):
        items, _ = commutator_collect(parse_word("t*s*t^-1*s^-1", GAMMA), GAMMA)
        assert len(items) == 1
        sign, basis, conj = items[0]
        assert sign == -1 and basis == 2 and conj.length <= 4

    def test_nonzero_sums_rejected(self):
        with pytest.raises(ExponentSumError):
            commutator_collect(parse_word("t", GAMMA), GAMMA)

    def test_quadratic_emission_bound(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randrange(0, 11)
            letters = [(rng.choice(["s", "t"]), rng.choice([-1, 1]))
                       for _ in range(n)]
            w = GroupWord.from_letters(letters)
            sums = exponent_sums(w, GAMMA)
            tail = w * GroupWord.from_letters(
                [("s", -sums[0]), ("t", -sums[1])])
            emissions, _ = _expanded_units(tail, GAMMA)
            assert len(emissions) <= max(1, tail.length) ** 2

    def test_free_group_factorization(self):
        rng = random.Random(3)
        for _ in range(400):
            n = rng.randrange(0, 10)
            letters = [(rng.choice(["s", "t"]), rng.choice([-1, 1]))
                       for _ in range(n)]
            w = GroupWord.from_letters(letters)
            sums = exponent_sums(w, GAMMA)
            tail = w * GroupWord.from_letters(
                [("s", -sums[0]), ("t", -sums[1])])
            # Gamma has no torsion, so a zero-sum tail leaves no front power
            emissions, wraps = _expanded_units(tail, GAMMA)
            assert wraps == 0
            recon = GroupWord(())
            for sign, i, j, conj in emissions:
                c = commutator(GroupWord(((GAMMA.t_names[i], 1),)),
                               GroupWord(((GAMMA.t_names[j], 1),)))
                if sign < 0:
                    c = c.inverse()
                recon = recon * c.conjugate_by(GroupWord.from_letters(conj))
            assert recon == tail


def _expanded_units(tail: GroupWord, p):
    """``_collect_units`` over the condensed tail, its crossing blocks
    expanded into one emission ``(sign, s, j, conjugator)`` each, in word
    order, and the module relations it charges for the front powers."""
    ledger = CostLedger()
    crossings = _collect_units(_condense(tail.letters), p, ledger)
    return ([e for c in crossings for e in c.emissions(p._t_positions)],
            ledger.module_relations)


def _reference_word_units(w: GroupWord):
    """Explode a condensed word into unit letters (name, +-1)."""
    units = []
    for name, exp in w.letters:
        step = 1 if exp > 0 else -1
        units.extend((name, step) for _ in range(abs(exp)))
    return units


def _reference_cancel_units(units):
    out = []
    for u in units:
        if out and out[-1][0] == u[0] and out[-1][1] == -u[1]:
            out.pop()
        else:
            out.append(u)
    return out


def _reference_collect_units(tail: GroupWord, p):
    """The tail step on unit letters: the working word is exploded into
    units and freely reduced again after each unit is moved to the front;
    conjugators are freely reduced tuples of units."""
    names, index = p.t_names, p._t_positions
    letters = _reference_word_units(tail)
    emissions = []
    blocks = []
    while True:
        letters = _reference_cancel_units(letters)
        if not letters:
            break
        i = min(index[n] for n, _ in letters)
        name = names[i]
        front = 0
        while front < len(letters) and letters[front][0] == name:
            front += 1
        pos = next((q for q in range(front, len(letters))
                    if letters[q][0] == name), None)
        if pos is None:
            blocks.append((i, sum(e for _, e in letters[:front])))
            letters = letters[front:]
            continue
        eps = letters[pos][1]
        rest = letters[pos + 1:]
        cut = 0
        while (cut < pos - front and cut < len(rest)
               and letters[pos - 1 - cut] == (rest[cut][0], -rest[cut][1])):
            cut += 1
        for q in range(pos, front, -1):
            other, delta = letters[q - 1]
            sign, template = _SWAP_CASES[(eps, delta)]
            head = [(name if slot == "s" else other, e) for slot, e in template]
            k = min(cut, pos - q)
            body = letters[q:pos - k] + rest[k:]
            while head and body and head[-1] == (body[0][0], -body[0][1]):
                head.pop()
                body = body[1:]
            emissions.append((sign, i, index[other], tuple(head + body)))
        letters = letters[:front] + [letters[pos]] + letters[front:pos] + rest
    emissions.reverse()
    return emissions, blocks


# Gamma, wf(1,2) without and with torsion (3,), wf(1,1) with torsion (5, 2)
# and the free abelian group of rank 2
_TAIL_PRESETS = (GAMMA, build(PresetSpec("wf", r=1, k=2)),
                 build(PresetSpec("wf", r=1, k=2, torsion_orders=(3,))),
                 build(PresetSpec("wf", r=1, k=1, torsion_orders=(5, 2))),
                 FREE_ABELIAN)


@st.composite
def raw_tails(draw):
    """``(p, tail)``: t-letters with exponents in -3..3, zeros included,
    not condensed, balanced by fix letters appended in random order; a
    torsion coordinate may be left at a multiple of its order."""
    p = draw(st.sampled_from(_TAIL_PRESETS))
    letters = draw(st.lists(st.tuples(st.sampled_from(p.t_names),
                                      st.integers(-3, 3)), max_size=12))
    sums = exponent_sums(GroupWord(tuple(letters)), p)
    fix = [(name, -s + d * draw(st.integers(-1, 1)))
           for name, s, d in zip(p.t_names, sums, p.torsion_orders)]
    return p, GroupWord(tuple(letters + draw(st.permutations(fix))))


# not condensed: a cancelling pair, zero exponents, split syllables
@example((GAMMA, GroupWord((("t", 1), ("s", 1), ("s", -1), ("t", -1)))))
@example((GAMMA, GroupWord((("s", 0), ("t", 3), ("t", -3)))))
@example((GAMMA, GroupWord((("s", 0), ("t", 2), ("s", 1), ("t", -2),
                            ("s", -1)))))
@settings(max_examples=300, deadline=None)
@given(raw_tails())
def test_syllable_tail_step_matches_unit_reference(case):
    """Gathering condensed syllables emits what gathering unit letters
    emits, in the same order, with the same conjugators, once the crossing
    blocks are expanded, and charges one module relation per torsion power
    of the front powers."""
    p, tail = case
    emissions, blocks = _reference_collect_units(tail, p)
    assert _expanded_units(tail, p) == (
        [(sign, s, j, _condense(conj)) for sign, s, j, conj in emissions],
        sum(abs(net) // p.torsion_orders[var] for var, net in blocks if net))


@settings(max_examples=200, deadline=None)
@given(raw_tails())
def test_crossing_pricing_returns_the_first_row(case):
    """``_price_crossing`` returns, head by head, the exponent sums of row
    ``|power|``, the first in word order: they wrap to the vectors of
    ``conjugator(head, |power|)``.  It charges what pricing every row's
    conjugators one by one charges."""
    p, tail = case
    wrap = p.module_ambient().wrap
    for crossing in _collect_units(_condense(tail.letters), p, CostLedger()):
        template = crossing.template(p._t_positions)
        ledger, by_conjugator = CostLedger(), CostLedger()
        sums = _price_crossing(crossing, template, p, ledger)
        rows = abs(crossing.power)
        assert [wrap(s) for s in sums] == [
            exponent_sums(GroupWord.from_letters(crossing.conjugator(head, rows)), p)
            for _, _, head in template]
        for _, _, head in template:
            for k in range(1, rows + 1):
                _price_conjugator(crossing.conjugator(head, k), p, by_conjugator)
        assert ledger == by_conjugator


def _unit_reference_form(w: GroupWord, p):
    """Vector and ledger of ``w`` with the tail gathered unit by unit
    (``_reference_collect_units``): every conjugator priced on its own and
    the expanded sequence sorted item by item, with no crossing block."""
    ledger = CostLedger()
    items, tail = split_conjugates(w, p)
    ledger.free_steps = len(items) + 1
    emissions, powers = _reference_collect_units(tail, p)
    ledger.r1_commutators += len(emissions)
    for var, net in powers:
        if net:
            ledger.module_relations += abs(net) // p.torsion_orders[var]
    basis_of = p._basis_indexes
    conjugates = [(c, b, v.letters) for c, b, v in items]
    conjugates += [(sign, basis_of[p.commutator_gen(s, j)], conj)
                   for sign, s, j, conj in emissions]
    sequence, raw = [], {}
    for coeff, basis, letters in conjugates:
        _price_conjugator(letters, p, ledger)
        exps = exponent_sums(GroupWord(tuple(letters)), p)
        sequence.append((coeff, basis, exps))
        raw[exps, basis] = raw.get((exps, basis), 0) + coeff
    _charge_merge(sequence, p.module_ambient(), ledger, None)
    return ModuleElement.from_dict(p.module_ambient(), raw), ledger


@st.composite
def crossing_words(draw):
    """``(p, w)``: a commutator of a t-power (up to 12) with a product of
    1-3 later t-syllables, or of two products of 1-3 t-syllables, or a
    random zero-sum t-word, exponents in -5..5, over a free or torsion preset,
    so tails gather syllables of either sign past middles of several
    syllables whose exponents cross 0.  Module letters opposite to
    a few of the tail's conjugates, some with a larger multiplicity, are
    put before or after it, so that some crossing blocks are partly
    cancelled and others are sorted beside ordinary conjugates."""
    p = draw(st.sampled_from(_TAIL_PRESETS))
    syllables = st.lists(st.tuples(st.sampled_from(p.t_names),
                                   st.integers(-5, 5)), min_size=1, max_size=3)
    shape = draw(st.sampled_from(("power", "commutator", "word")))
    if shape == "power":
        # t_i^a past a middle of later t-names only: one block of |a| rows
        i = draw(st.integers(0, len(p.t_names) - 2))
        later = st.lists(st.tuples(st.sampled_from(p.t_names[i + 1:]),
                                   st.integers(-3, 3)), min_size=1, max_size=3)
        tail = commutator(GroupWord(((p.t_names[i], draw(st.integers(1, 12))),)),
                          GroupWord.from_letters(draw(later)))
        if draw(st.booleans()):
            tail = tail.inverse()
    elif shape == "commutator":
        tail = commutator(GroupWord.from_letters(draw(syllables)),
                          GroupWord.from_letters(draw(syllables)))
    else:
        letters = draw(syllables) + draw(syllables)
        sums = exponent_sums(GroupWord(tuple(letters)), p)
        tail = GroupWord.from_letters(letters + draw(st.permutations(
            [(name, -s) for name, s in zip(p.t_names, sums)])))
    sequence = collection._conjugates(tail, p, CostLedger())[0]
    cancel = GroupWord(())
    if sequence and draw(st.booleans()):
        for q in draw(st.lists(st.integers(0, len(sequence) - 1), min_size=1,
                               max_size=3)):
            coeff, basis, exps = sequence[q]
            letter = (p.module_gens[basis - 1], -coeff * draw(st.integers(1, 2)))
            v = GroupWord.from_letters(tuple(zip(p.t_names, exps)))
            cancel = cancel * GroupWord((letter,)).conjugate_by(v)
    return p, (cancel * tail if draw(st.booleans()) else tail * cancel)


_WF12, _WF11_TORSION = _TAIL_PRESETS[1], _TAIL_PRESETS[3]


# lone crossings past middles of several syllables, sorted by merging; a
# block of [s^4, t^5] in Gamma partly cancelled, and one sorted beside
# ordinary conjugates; blocks over a torsion preset, one gathering t2 of
# order 5; blocks cancelling one another
@example((_WF12, parse_word("[u1^6, t1^-2*t2^-1*t1^-3]", _WF12)))
@example((_WF12, parse_word("[u1^-6, u2^-1*t1^2*t2]", _WF12)))
@example((GAMMA, parse_word("[s^4, t^5]*(b^-1)^(s^3*t^4)*(b^-2)^(t^2)", GAMMA)))
@example((GAMMA, parse_word("[s^4, t^5]*b*(b^-2)^(s^-2*t^2)", GAMMA)))
@example((_WF11_TORSION, parse_word("[u1^6, t1^4]*[t1^5, t2]", _WF11_TORSION)))
@example((_WF11_TORSION, parse_word("[t2^4, t3]*[u1^5, t2^2]*[u1^4, t1^3]",
                                    _WF11_TORSION)))
@example((_WF12, parse_word("[t1^4, t2^3]*[u1^3, u2^-4]*[u1^-5, t2^2]",
                            _WF12)))
# a grid block followed by more conjugates: the whole sequence is merged
@example((_WF12, parse_word("[t1^6, t2^6]*[a1, u1]", _WF12)))
@settings(max_examples=300, deadline=None)
@given(crossing_words())
def test_crossing_blocks_match_unit_reference(case):
    """Crossing blocks priced by row and charged by difference counting
    give the vector and every ledger field of gathering unit by unit and
    charging the sort item by item."""
    p, w = case
    assert ordered_form(w, p) == _unit_reference_form(w, p)


def _merged_by_hand(w, p):
    """The ledger of ``w`` with its sequence cancelled by ``_cancel`` and
    sorted by ``_inversion_charge``, as if it were no block."""
    ledger = CostLedger()
    sequence, _ = collection._conjugates(w, p, ledger)
    _charge_merge(sequence, p.module_ambient(), ledger, None)
    return ledger


def test_grid_sort_is_charged_as_one_block():
    """``[t1^30, t2^30]`` is one crossing block of 900 conjugates and
    nothing else: ``_block_charge`` counts its sort before any cancellation
    table, so neither ``_cancel`` nor ``_inversion_charge`` is called, and
    the ledger is what cancelling and sorting it by hand charges."""
    w = parse_word("[t1^30, t2^30]", _WF12)
    with mock.patch.object(collection, "_block_charge",
                           wraps=_block_charge) as block, \
            mock.patch.object(collection, "_cancel",
                              side_effect=AssertionError("cancelled")), \
            mock.patch.object(collection, "_inversion_charge",
                              side_effect=AssertionError("merged")):
        got = ordered_form(w, _WF12)
    assert block.call_count == 1
    assert got[1] == _merged_by_hand(w, _WF12)
    assert got == _unit_reference_form(w, _WF12)


# a row coordinate that crosses 0, and a torsion one of order 5
@pytest.mark.parametrize("p, text", [
    (_WF12, "[u1^-5, u1^-2*u2^4*u1^2]"),
    (_WF11_TORSION, "[t2^6, t3^3]")], ids=["crosses-0", "torsion"])
def test_refused_block_is_cancelled_and_merged(p, text):
    """A lone block of more than ``_BLOCK`` conjugates that
    ``_block_charge`` refuses goes through ``_cancel`` and
    ``_inversion_charge`` once each, with the ledger of gathering unit by
    unit and sorting item by item."""
    w = parse_word(text, p)
    sequence, block = collection._conjugates(w, p, CostLedger())
    assert block is not None and len(sequence) > _BLOCK
    assert _block_charge(sequence, *block, p.module_ambient().torsion) is None
    with mock.patch.object(collection, "_cancel", wraps=_cancel) as cancel, \
            mock.patch.object(collection, "_inversion_charge",
                              wraps=_inversion_charge) as merge:
        got = ordered_form(w, p)
    assert cancel.call_count == 1 and merge.call_count == 1
    assert got[1] == _merged_by_hand(w, p)
    assert got == _unit_reference_form(w, p)


_WF13 = build(PresetSpec("wf", k=3))


def test_lone_crossing_is_the_only_block():
    """``_conjugates`` gives a block only for a word with no module letter
    whose tail makes one crossing of two or more rows past one middle
    syllable: ``[t1^30, t2^30]`` gathers t1^30 past t2^30, 30 rows of one
    progression of 30 conjugates in t2, each row one lower at t1, while
    ``[t1^9, t2*t3]`` gathers t1^9 past two syllables."""
    w = parse_word("[t1^30, t2^30]", _WF12)
    sequence, block = collection._conjugates(w, _WF12, CostLedger())
    assert len(sequence) == 900
    assert block == (30, 2, 1, 30, 3, 1)
    two = parse_word("[t1^5, t2^5]*[t1^4, t2^4]", _WF12)
    assert len(_collect_units(split_conjugates(two, _WF12)[1].letters, _WF12,
                              CostLedger())) == 2
    for text in ("[t1^30, t2^30]*[a1, u1]", "a1*[t1^30, t2^30]*a1^-1",
                 "[t1^5, t2^5]*[t1^4, t2^4]", "[t1, t2]"):
        assert collection._conjugates(parse_word(text, _WF12), _WF12,
                                      CostLedger())[1] is None
    sequence, block = collection._conjugates(
        parse_word("[t1^9, t2*t3]", _WF13), _WF13, CostLedger())
    assert len(sequence) == 18 and block is None


def test_two_syllable_middle_is_merged():
    """A lone crossing past a middle of two syllables is sorted by
    ``_inversion_charge``, never by ``_block_charge``, with the ledger of
    gathering unit by unit and sorting item by item."""
    w = parse_word("[t1^9, t2*t3]", _WF13)
    with mock.patch.object(collection, "_block_charge",
                           wraps=_block_charge) as block:
        got = ordered_form(w, _WF13)
    assert block.call_count == 0
    assert got == _unit_reference_form(w, _WF13)


@st.composite
def priced_conjugators(draw):
    """``(p, letters)``: a condensed conjugator over the t-names of a free
    or torsion preset, exponents large enough to wrap a torsion one."""
    p = draw(st.sampled_from(_TAIL_PRESETS))
    letters = draw(st.lists(st.tuples(st.sampled_from(p.t_names),
                                      st.integers(-7, 7)), max_size=10))
    return p, GroupWord.from_letters(letters)


@settings(max_examples=300, deadline=None)
@given(priced_conjugators())
def test_units_and_syllables_price_the_same(case):
    """A syllable t_s^exp is charged what its |exp| units are charged one
    by one: each unit's crossings read only later t-names.  Both return the
    conjugator's exponent sums, which wrap to its vector."""
    p, v = case
    by_units, by_syllables = CostLedger(), CostLedger()
    sums = _price_conjugator(_reference_word_units(v), p, by_units)
    assert _price_conjugator(v.letters, p, by_syllables) == sums
    assert by_units == by_syllables
    assert p.module_ambient().wrap(sums) == exponent_sums(v, p)


def conjugate_form(sign, gen, v, p):
    """Ordered form and ledger of the single conjugate ``(gen^sign)^v``."""
    return ordered_form(GroupWord(((gen, sign),)).conjugate_by(v), p)


class TestConjugateNormalize:
    def test_already_ordered(self):
        elem, delta = conjugate_form(1, "a", GroupWord((("t", -1),)), BS2)
        assert elem.render() == "t^-1*a"
        assert delta.absolute_total == 0

    def test_one_transposition(self):
        elem, delta = conjugate_form(1, "a", parse_word("t*s", GAMMA), GAMMA)
        assert elem.render() == "s*t*a"
        assert delta.r1_commutators == 2 and delta.r2_commutations == 1

    def test_inverse_letter(self):
        elem, delta = conjugate_form(-1, "a", GroupWord(()), BS2)
        assert elem.render() == "-a"

    def test_relative_closed_form(self):
        """Measured relative cost stays within 4|v|^2 + 2|v|."""
        rng = random.Random(5)
        for p in (GAMMA, WF11):
            for _ in range(200):
                n = rng.randrange(0, 9)
                letters = [(rng.choice(p.t_names), rng.choice([-1, 1]))
                           for _ in range(n)]
                v = GroupWord.from_letters(letters)
                _, delta = conjugate_form(1, p.module_gens[0], v, p)
                measured = (delta.r1_commutators + delta.module_relations
                            + delta.rel_r2_normalize)
                assert measured <= 4 * v.length ** 2 + 2 * v.length

    def test_absolute_within_organizer_bound(self):
        K = constant_k(BS2)
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randrange(0, 8)
            v = GroupWord.from_letters(
                [("t", rng.choice([-1, 1])) for _ in range(n)])
            _, delta = conjugate_form(1, "a", v, BS2)
            assert delta.absolute_total <= (2 * K) ** max(1, v.length)


class TestOrderedForm:
    def test_bs_relator(self):
        form, _ = ordered_form(parse_word("a^t * a^-2", BS2), BS2)
        assert form.render() == "(t - 2)*a"

    def test_commutator_collapses(self):
        form, _ = ordered_form(parse_word("[a, a^t]", BS2), BS2)
        assert form.is_zero()

    def test_gamma_action(self):
        form, _ = ordered_form(
            parse_word("a^s * a^-1 * (a^-1)^t", GAMMA), GAMMA)
        assert form.render() == "(s - t - 1)*a"

    def test_rejects_unbalanced(self):
        with pytest.raises(ExponentSumError):
            ordered_form(parse_word("a*t", BS2), BS2)

    def test_homomorphism_and_conjugation(self):
        rng = random.Random(7)
        for p in (BS2, GAMMA, LAMPLIGHTER2):
            t0 = p.t_names[0]
            shift = tuple(1 if i == 0 else 0 for i in range(len(p.t_names)))
            for _ in range(200):
                w1 = random_kernel_word(p, rng, rng.randrange(0, 7))
                w2 = random_kernel_word(p, rng, rng.randrange(0, 7))
                v1, _ = ordered_form(w1, p)
                v2, _ = ordered_form(w2, p)
                v12, _ = ordered_form(w1 * w2, p)
                assert v12 == v1 + v2
                vc, _ = ordered_form(w1.conjugate_by(GroupWord(((t0, 1),))), p)
                assert vc == v1.scale_translate(1, shift)

    def test_idempotent_rendering(self):
        rng = random.Random(8)
        for p in (BS2, GAMMA):
            for _ in range(150):
                w = random_kernel_word(p, rng, rng.randrange(0, 8))
                form, _ = ordered_form(w, p)
                rendered = render_ordered_word(form, p)
                form2, ledger2 = ordered_form(rendered, p)
                assert form2 == form
                assert ledger2.absolute_total == 0

    def test_pipeline_chain_bound(self):
        K = constant_k(BS2)
        rng = random.Random(9)
        for _ in range(200):
            w = random_kernel_word(BS2, rng, rng.randrange(0, 9))
            if w.length > 8:
                continue
            _, ledger = ordered_form(w, BS2)
            n = max(1, w.length)
            chain = (n ** 2 + (n ** 2 + n) * (2 * K) ** n
                     + (n ** 2 + n) ** 2 * K ** (2 * n))
            assert ledger.absolute_total <= chain


def _unit_run_price(base, b, d):
    """One crossing at a time, as a run of b units of t_j is crossed."""
    amb = Ambient(("t",), (d,), 1)
    return sum(max(1, 4 * (base + monomial_word_degree(amb, (e,))) - 3)
               for e in (range(b) if b > 0 else range(-1, b - 1, -1)))


@given(st.sampled_from((2, 3, 5)), st.integers(-60, 60), st.integers(0, 6))
def test_run_price_matches_unit_loop(d, b, base):
    assert _run_price(base, 0 if b > 0 else 1, abs(b), d) == \
        _unit_run_price(base, b, d)


@given(st.integers(-60, 60), st.integers(-60, 60), st.sampled_from((1, -1)))
def test_free_run_price_matches_unit_loop(c, b, eps):
    """A run on a free coordinate is priced inline by ``_price_conjugator``:
    in ``u2^b*t1^c*u1^eps`` (names in the order u1, u2, t1), only u1
    crosses anything: the run of t1 from the template's length, then the
    run of u2 from that plus ``|c|``."""
    ledger = CostLedger()
    letters = _condense((("u2", b), ("t1", c), ("u1", eps)))
    _price_conjugator(letters, _TAIL_PRESETS[1], ledger)
    base = 1 if eps < 0 else 0
    assert ledger.rel_r2_normalize == (_unit_run_price(base, c, 0)
                                       + _unit_run_price(base + abs(c), b, 0))
    assert ledger.r2_commutations == abs(b) + abs(c)


def _pairwise_sort_charge(sequence, amb):
    """``(r2_commutations, rel_r2_merge)`` of sorting conjugates none of
    which cancel: every strictly inverted pair, one at a time."""
    keys = [(basis, monomial_key((exps, None))) for _, basis, exps in sequence]
    units = rel = 0
    for a in range(len(sequence)):
        for b in range(a + 1, len(sequence)):
            (ba, ka), (bb, kb) = keys[a], keys[b]
            if ba > bb or (ba == bb and ka < kb):
                w = abs(sequence[a][0]) * abs(sequence[b][0])
                diff = tuple(x - y for x, y in
                             zip(sequence[a][2], sequence[b][2]))
                units += w
                rel += w * max(1, 4 * monomial_word_degree(amb, diff) - 3)
    return units, rel


@st.composite
def sort_inputs(draw):
    """An ambient with free and torsion coordinates and up to 300
    conjugates drawn from a small pool, so equal monomials, equal exponents
    on different bases and long runs of one rank all occur.  Each
    (basis, exponents) keeps one sign, so nothing cancels."""
    torsion = tuple(draw(st.lists(st.sampled_from((0, 0, 2, 3, 5)),
                                  min_size=1, max_size=3)))
    rank = draw(st.integers(1, 3))
    amb = Ambient(tuple(f"t{i}" for i in range(len(torsion))), torsion, rank,
                  tuple(f"e{i}" for i in range(rank)))
    coordinate = [st.integers(0, d - 1) if d else st.integers(-4, 4)
                  for d in torsion]
    pool = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=40))
    signs: dict = {}
    sequence = []
    for _ in range(draw(st.integers(0, 300))):
        basis = draw(st.integers(1, rank))
        exps = draw(st.sampled_from(pool))
        sign = signs.setdefault((basis, exps), draw(st.sampled_from((1, -1))))
        sequence.append((sign * draw(st.integers(1, 4)), basis, exps))
    return amb, sequence


@settings(max_examples=40, deadline=None)
@given(sort_inputs())
def test_sort_charge_matches_pairwise(case):
    amb, sequence = case
    ledger = CostLedger()
    _charge_merge(sequence, amb, ledger, None)
    assert (ledger.r2_commutations, ledger.rel_r2_merge) == \
        _pairwise_sort_charge(sequence, amb)


def _reference_cancel(items, group, mono, price):
    """The greedy cancellation with every opposite pair in one table: each
    round takes ``min((units*m, rel*m, a, b))`` over all of it, then lowers
    the pairs of other groups that span the cancelled items."""
    total_units = total_rel = 0
    last = {(group[b], c > 0): b for b, (c, _, _) in enumerate(items)}
    pairs = {}
    for a, (ca, _, _) in enumerate(items):
        units = rel = 0
        for b in range(a + 1, last.get((group[a], ca < 0), a) + 1):
            c = items[b][0]
            if group[b] != group[a]:
                units += abs(c)
                rel += abs(c) * price(mono[a], mono[b])
            elif (c > 0) != (ca > 0):
                pairs[a, b] = [units, rel]
    while pairs:
        units, rel, i, j = min(
            (u * (m := min(abs(items[a][0]), abs(items[b][0]))), r * m, a, b)
            for (a, b), (u, r) in pairs.items())
        total_units += units
        total_rel += rel
        m = min(abs(items[i][0]), abs(items[j][0]))
        for q in (i, j):
            items[q][0] -= m if items[q][0] > 0 else -m
        for (a, b), cost in list(pairs.items()):
            if not (items[a][0] and items[b][0]):
                del pairs[a, b]
                continue
            for q in (i, j):
                if a < q < b and group[a] != group[q]:
                    cost[0] -= m
                    cost[1] -= m * price(mono[b], mono[q])
    return total_units, total_rel


@st.composite
def cancel_inputs(draw):
    """``(items, prices)``: up to 40 conjugates ``[coeff, basis, (monomial,)]``
    over 1-4 monomials and 1-2 bases, magnitudes 1-6 with units common, and
    prices 1-3 per pair of monomials, so that ties, zero-cost pairs, several
    bases on one monomial and unit partners that die all occur."""
    monos = draw(st.integers(1, 4))
    bases = draw(st.integers(1, 2))
    magnitude = st.one_of(st.just(1), st.integers(1, 6))
    items = [[draw(st.sampled_from((1, -1))) * draw(magnitude),
              draw(st.integers(1, bases)), (draw(st.integers(0, monos - 1)),)]
             for _ in range(draw(st.integers(0, 40)))]
    prices = {(m, n): draw(st.integers(1, 3))
              for m in range(monos) for n in range(m, monos)}
    return items, prices


def _cancel_case(coeffs, groups, prices=None):
    """Items of one basis whose monomials are ``groups``; every price 1."""
    items = [[c, 1, (g,)] for c, g in zip(coeffs, groups)]
    n = max(groups) + 1
    return items, prices or {(m, k): 1 for m in range(n) for k in range(m, n)}


# a unit partner dies and the listing goes on past it
@example(_cancel_case([2, 1, -1, -1], [0, 0, 0, 0]))
# a zero-cost tie, broken on a
@example(_cancel_case([1, -1, 1], [0, 0, 0]))
# a pair spanning a cancellation of its own group is not lowered
@example(_cancel_case([3, 1, 2, -2, -3], [0, 1, 0, 0, 0]))
@example(_cancel_case([1, 2, -1, 1, -2, -1], [0, 1, 0, 1, 1, 0], {
    (0, 0): 1, (0, 1): 3, (1, 1): 1}))
@settings(max_examples=500, deadline=None)
@given(cancel_inputs())
def test_cancel_matches_full_table(case):
    items, prices = case
    mono = [exps[0] for _, _, exps in items]
    ids: dict = {}
    group = [ids.setdefault((basis, exps), len(ids)) for _, basis, exps in items]

    def price(m, n):
        return prices[min(m, n), max(m, n)]

    def fill(m, n):
        raise AssertionError(f"price {m}, {n} missing from a full row")
    monos = range(max(n for _, n in prices) + 1)
    rows = [{n: price(m, n) for n in monos} for m in monos]
    got = [list(item) for item in items]
    want = [list(item) for item in items]
    assert _cancel(got, group, mono, rows, fill) == \
        _reference_cancel(want, group, mono, price)
    assert got == want


@st.composite
def crossing_blocks(draw):
    """``(amb, block, rows, var, shift, n, coordinate, stride)``: a block
    laid out as ``_conjugates`` lays one out, rows of one progression of
    1-6 unit conjugates of one sign and one basis in a coordinate other
    than ``var``, from random first exponents, over free and torsion
    coordinates, wrapped; the exponents may cross 0."""
    torsion = tuple(draw(st.lists(st.sampled_from((0, 0, 0, 3)),
                                  min_size=2, max_size=3)))
    rank = draw(st.integers(1, 2))
    amb = Ambient(tuple(f"t{i}" for i in range(len(torsion))), torsion, rank,
                  tuple(f"e{i}" for i in range(rank)))
    var, coordinate = draw(st.permutations(range(len(torsion))))[:2]
    rows, shift = draw(st.integers(1, 8)), draw(st.sampled_from((1, -1)))
    n, stride = draw(st.integers(1, 6)), draw(st.sampled_from((1, -1)))
    first = list(draw(st.tuples(*[st.integers(0, d - 1) if d
                                  else st.integers(-3, 6) for d in torsion])))
    basis, sign = draw(st.integers(1, rank)), draw(st.sampled_from((1, -1)))
    block = []
    for r in range(rows):
        for u in range(n):
            exps = list(first)
            exps[var] += r * shift
            exps[coordinate] += u * stride
            block.append([sign, basis, tuple(amb.wrap(exps))])
    return amb, block, rows, var, shift, n, coordinate, stride


@settings(max_examples=300, deadline=None)
@given(crossing_blocks())
def test_block_charge_matches_pairs(case):
    """Difference counting charges a block's inverted pairs one by one;
    it refuses a block whose varying coordinates are torsion or cross 0."""
    amb, block, *shape = case
    charge = _block_charge(block, *shape, amb.torsion)
    varying = [c for c in range(len(amb.torsion))
               if len({exps[c] for _, _, exps in block}) > 1]
    if any(amb.torsion[c] or min(exps[c] for _, _, exps in block) < 0
           < max(exps[c] for _, _, exps in block) for c in varying):
        assert charge is None
    else:
        assert charge == _pairwise_sort_charge(block, amb)


_BIG = 2 ** 70


@st.composite
def charge_inputs(draw):
    """``(amb, items)`` for ``_inversion_charge``: conjugates
    ``(basis, exps)`` of a pool over free and torsion coordinates and 1-3
    bases, laid out in segments that rise, fall, repeat one conjugate or
    scatter, so that equal keys sit side by side and far apart and
    sequences run well past ``_BLOCK``; free exponents sit near 0 or near
    +-2^70."""
    torsion = tuple(draw(st.lists(st.sampled_from((0, 0, 2, 3, 5)),
                                  min_size=1, max_size=3)))
    rank = draw(st.integers(1, 3))
    amb = Ambient(tuple(f"t{i}" for i in range(len(torsion))), torsion, rank,
                  tuple(f"e{i}" for i in range(rank)))
    near = st.sampled_from((0, _BIG, -_BIG))
    coordinate = [st.integers(0, d - 1) if d else
                  st.builds(int.__add__, near, st.integers(-3, 3))
                  for d in torsion]
    exps_pool = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=12))
    pool = draw(st.lists(st.tuples(st.integers(1, rank),
                                   st.sampled_from(exps_pool)),
                         min_size=1, max_size=24))
    conjugates = []
    for _ in range(draw(st.integers(1, 10))):
        shape = draw(st.sampled_from(("rise", "fall", "repeat", "scatter")))
        picks = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=_BLOCK + 8))
        if shape == "repeat":
            picks = picks[:1] * len(picks)
        elif shape != "scatter":
            picks.sort(key=_sort_key, reverse=shape == "fall")
        conjugates += picks
    weights = draw(st.lists(st.integers(1, 4) | st.integers(1, _BIG),
                            min_size=len(conjugates), max_size=len(conjugates)))
    return amb, _charge_items(conjugates, weights)


def _charge_items(conjugates, weights):
    """``_inversion_charge``'s items for conjugates ``(basis, exps)``."""
    monos: dict = {}
    return [(w, _sort_key(c), c[1], monos.setdefault(c[1], len(monos)))
            for w, c in zip(weights, conjugates)]


def _sort_key(conjugate):
    """The key ``_charge_merge`` sorts by: e1 first, then larger monomials."""
    basis, exps = conjugate
    return (-basis, monomial_key((exps, None)))


# shapes past _BLOCK that the bottom-up merge meets from single conjugates,
# over a torsion coordinate of order 3 and a free one near 2^70: a strictly
# rising run, its first monomial also on the other basis; a rising run
# followed by a falling one; a falling run; and a run of copies of one
# conjugate between others
_TORSION_FREE = Ambient(("t0", "t1"), (3, 0), 2, ("e1", "e2"))
_RUN = sorted([(2, (r, x)) for r in range(3) for x in range(_BIG - 3, _BIG + 4)]
              + [(1, (0, _BIG - 3))], key=_sort_key)
_HILL = sorted(_RUN[::2], key=_sort_key) + sorted(_RUN[1::2], key=_sort_key,
                                                  reverse=True)
_FALL = _RUN[::-1]
_COPIES = _RUN[::3] + [_RUN[11]] * (_BLOCK + 2) + _RUN[1::3]


@example((_TORSION_FREE, _charge_items(_RUN, [1 + q % 3 for q in range(22)])))
@example((_TORSION_FREE, _charge_items(_HILL, [_BIG - q for q in range(22)])))
@example((_TORSION_FREE, _charge_items(_FALL, [1 + q % 4 for q in range(22)])))
@example((_TORSION_FREE, _charge_items(_COPIES, [1 + q % 5 for q in range(33)])))
@settings(max_examples=150, deadline=None)
@given(charge_inputs())
def test_inversion_charge_matches_pairs(case):
    """Over the pairs a < b with key_a < key_b, ``w_a*w_b`` units and
    ``w_a*w_b*max(1, 4d - 3)`` relative, d the word length of
    exps_a - exps_b."""
    amb, items = case
    units = rel = 0
    for a, (wa, ka, xa, _) in enumerate(items):
        for wb, kb, xb, _ in items[a + 1:]:
            if ka < kb:
                d = monomial_word_degree(amb, tuple(x - y for x, y in zip(xa, xb)))
                units += wa * wb
                rel += wa * wb * max(1, 4 * d - 3)
    exps_of = {m: exps for _, _, exps, m in items}
    rows: dict = {m: {} for m in exps_of}

    def fill(m, n):
        price = rows[m][n] = rows[n][m] = _merge_price(amb, exps_of[m],
                                                       exps_of[n])
        return price
    assert _inversion_charge(items, amb.torsion, rows, fill) == (units, rel)


# wf without torsion, with torsion (3,), and wf(1,1) with torsion (5, 2)
_VECTOR_PRESETS = (build(PresetSpec("wf", r=1, k=2)),
                   build(PresetSpec("wf", r=1, k=2, torsion_orders=(3,))),
                   build(PresetSpec("wf", r=1, k=1, torsion_orders=(5, 2))))


@st.composite
def tailed_kernel_words(draw):
    """``(p, w)``: a commutator of powers ``[x^m, y^n]`` or a law word
    ``[[x,y],[z,w]]`` of random factors, whose t-tail is not empty."""
    p = draw(st.sampled_from(_VECTOR_PRESETS))
    names = p.module_gens + p.t_names

    def factor():
        return GroupWord.from_letters(draw(st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from((-2, -1, 1, 2))),
            min_size=1, max_size=4)))

    def power(x):
        e = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        return GroupWord.from_letters((x if e > 0 else x.inverse()).letters * abs(e))

    if draw(st.booleans()):
        w = commutator(power(factor()), power(factor()))
    else:
        w = commutator(commutator(factor(), factor()),
                       commutator(factor(), factor()))
    if not split_conjugates(w, p)[1].letters:
        w = w * commutator(GroupWord(((p.t_names[0], 1),)),
                           GroupWord(((p.t_names[-1], 1),)))
    return p, w


def _conjugate_sum(w, p):
    """The vector from the split's conjugators and the collected tail's,
    each at its own exponent sums."""
    items, tail = split_conjugates(w, p)
    items += commutator_collect(tail, p)[0]
    raw = {}
    for coeff, basis, v in items:
        key = (exponent_sums(v, p), basis)
        raw[key] = raw.get(key, 0) + coeff
    return ModuleElement.from_dict(p.module_ambient(), raw)


@settings(max_examples=150, deadline=None)
@given(tailed_kernel_words())
def test_relator_vector_path_matches_ordered_form(case):
    """Vectors read off running exponent sums equal the priced pipeline's
    and the built conjugators', and an unbalanced word is refused by both
    paths."""
    p, w = case
    assert split_conjugates(w, p)[1].letters
    vector = ordered_form(w, p)[0]
    assert relator_module(replace(p, relators=(w,))) == [vector]
    assert vector == _conjugate_sum(w, p)
    unbalanced = w * GroupWord(((p.t_names[0], 1),))
    with pytest.raises(ExponentSumError):
        relator_module(replace(p, relators=(unbalanced,)))
    with pytest.raises(ExponentSumError):
        ordered_form(unbalanced, p)


def _two_pass_ledger(w, p):
    """The ledger of pricing every conjugator that ``split_conjugates``
    and ``commutator_collect`` build, then the sort of their conjugates."""
    ledger = CostLedger()
    items, tail = split_conjugates(w, p)
    ledger.free_steps = len(items) + 1
    items += commutator_collect(tail, p, ledger)[0]
    for _, _, v in items:
        _price_conjugator(v.letters, p, ledger)
    _charge_merge([(c, b, exponent_sums(v, p)) for c, b, v in items],
                  p.module_ambient(), ledger, None)
    return ledger


@st.composite
def kernel_words(draw):
    """``(p, w)``: a word of ``tailed_kernel_words`` or a random kernel
    word over BS(1,2), Gamma or the lamplighter of order 2."""
    if draw(st.booleans()):
        return draw(tailed_kernel_words())
    p = draw(st.sampled_from((BS2, GAMMA, LAMPLIGHTER2)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return p, random_kernel_word(p, rng, draw(st.integers(0, 24)))


# the t-prefix cancels back to empty before the last module letter
@example((BS2, parse_word("t*a*t^-1*a^-1", BS2)))
@example((GAMMA, parse_word("s*t*a*t^-1*s^-1*b*s^2*a^-1*s^-2", GAMMA)))
@example((LAMPLIGHTER2, parse_word("t^2*a*t^-1*a*t^-1*a", LAMPLIGHTER2)))
@settings(max_examples=200, deadline=None)
@given(kernel_words())
def test_one_scan_ledger_matches_two_pass_reference(case):
    """Conjugators priced from the condensed t-prefix of one scan charge
    what pricing the built conjugators charges, field by field."""
    p, w = case
    assert ordered_form(w, p)[1] == _two_pass_ledger(w, p)


def test_only_tailed_relators_are_scanned():
    """``relator_module`` sums a tail-free relator without pricing anything
    and sends only the relators with a tail through ``_conjugates``, which
    prices into a scratch ledger: torsion powers leave tails of blocks, and
    an added ``[t^2, t']`` a tail of emissions.  Every conjugator priced is
    priced inside one of those calls."""
    conjugates, price = collection._conjugates, collection._price_conjugator
    for p in _VECTOR_PRESETS:
        emitting = commutator(GroupWord(((p.t_names[0], 2),)),
                              GroupWord(((p.t_names[-1], 1),)))
        p = replace(p, relators=p.relators + (emitting,))
        tailed = [r for r in p.relators
                  if split_conjugates(r, p)[1].letters]
        assert len(tailed) == len(p.torsion_gens) + 1
        inside, priced = [], []

        def scan(*args):
            inside.append(args[0])
            try:
                return conjugates(*args)
            finally:
                inside.pop()

        def priced_inside(*args):
            priced.append(tuple(inside))
            return price(*args)
        with mock.patch.object(collection, "_conjugates",
                               side_effect=scan) as scanned, \
                mock.patch.object(collection, "_price_conjugator",
                                  side_effect=priced_inside):
            vectors = relator_module(p)
        assert [call.args[0] for call in scanned.call_args_list] == tailed
        assert all(isinstance(call.args[2], CostLedger)
                   for call in scanned.call_args_list)
        assert priced and all(len(stack) == 1 and stack[0] in tailed
                              for stack in priced)
        assert vectors == [ordered_form(r, p)[0] for r in p.relators]


@st.composite
def scanned_words(draw):
    """``(p, w)``: a random kernel word, or a word of up to 8 random
    letters, over a preset with or without torsion."""
    p = draw(st.sampled_from((BS2, GAMMA, LAMPLIGHTER2, WF11)
                             + _VECTOR_PRESETS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return p, random_kernel_word(p, rng, draw(st.integers(0, 24)))
    names = p.module_gens + p.t_names
    return p, GroupWord.from_letters(
        [(rng.choice(names), rng.choice((-1, 1)))
         for _ in range(draw(st.integers(0, 8)))])


@example((GAMMA, parse_word("s*t*a*t^-1*s^-1*b*s^2*a^-1*s^-2", GAMMA)))
@example((LAMPLIGHTER2, parse_word("t*a*t", LAMPLIGHTER2)))
@example((BS2, parse_word("t*a*t^-1*a^-1*t", BS2)))
@settings(max_examples=200, deadline=None)
@given(scanned_words())
def test_scan_prefixes_are_the_split_conjugators(case):
    """Each prefix ``_scan`` records for a module letter, unwound, is the
    conjugator ``split_conjugates`` builds for it, and the unwound top is
    the inverse of the tail.  A stack that ends empty has zero exponent
    sums, which is why the scan checks the sums of a word with a tail
    only."""
    p, w = case
    try:
        sequence, prefixes, top = collection._scan(w, p)
    except ExponentSumError:
        assert any(exponent_sums(w, p))
        return
    items, tail = split_conjugates(w, p)
    assert [(c, b) for c, b, _ in sequence] == [(c, b) for c, b, _ in items]
    assert [tuple(collection._unwind(prefix)) for prefix in prefixes] == [
        v.letters for _, _, v in items]
    assert GroupWord(tuple(collection._unwind(top))) == tail.inverse()
    if top is None:
        assert not any(exponent_sums(w, p))


@pytest.mark.parametrize("p", [BS2, GAMMA, WF11], ids=["bs", "gamma", "wf"])
def test_unknown_generators_after_exponent_sums(p):
    """A name that is neither a module letter nor a t-letter is reported
    only once the t-exponent sums vanish: an unbalanced word is refused
    for its sums first."""
    from metabelian.wordproblem import is_identity

    t = p.t_names[0]
    balanced = GroupWord(((t, 1), ("q", 2), (p.module_gens[0], 1), (t, -1)))
    for call in (lambda: ordered_form(balanced, p),
                lambda: relator_module(replace(p, relators=(balanced,))),
                lambda: is_identity(balanced, p)):
        with pytest.raises(KeyError, match="'q'"):
            call()
    unbalanced = GroupWord(((t, 1), ("q", 2), (p.module_gens[0], 1)))
    with pytest.raises(ExponentSumError):
        ordered_form(unbalanced, p)
    ok, cert = is_identity(unbalanced, p)
    assert ok is False and cert.to_json()["identity"] is False
    assert cert.ordered is None and cert.membership is None


def _relator_presets():
    """Every preset, wf with torsion of orders 2 and 3, and each with extra
    relators: a module letter conjugated by the last t-letter, whose
    torsion exponent wraps from -1, and three whose t-letters leave a tail:
    a commutator of t-letters times a module letter, a module letter
    between two unbalanced t-syllables, and a torsion power around a module
    letter."""
    specs = [PresetSpec("bs", n=3), PresetSpec("lamplighter", m=3),
             PresetSpec("zwrz"), PresetSpec("baumslag_gamma"),
             PresetSpec("free_abelian"), PresetSpec("wf", r=2, k=2),
             PresetSpec("wf", r=2, k=1, fs=((1, 2, 1),), torsion_orders=(2,)),
             PresetSpec("wf", r=1, k=2, fs=((1, 1, 1), (1, 1)),
                        torsion_orders=(3,)),
             PresetSpec("wf", r=2, k=1, torsion_orders=(2, 3))]
    presets = []
    for spec in specs:
        p = build(spec)
        a, t = p.module_gens[0], p.t_names[0]
        s = p.t_names[-1]
        extra = [GroupWord(((s, 1), (a, 2), (s, -1))),
                 commutator(GroupWord(((t, 2),)), GroupWord(((s, -1),)))
                 * GroupWord(((a, 3),)),
                 GroupWord(((t, 2), (a, -1), (s, 1), (t, -2), (s, -1)))]
        extra += [GroupWord(((name, d - 1), (a, 1), (name, 1)))
                  for name, d in p.torsion_gens]
        presets.append((spec, replace(p, relators=p.relators + tuple(extra))))
    return presets


_RELATOR_PRESETS = _relator_presets()


@pytest.mark.parametrize("spec, p", _RELATOR_PRESETS,
                         ids=[f"{spec.name}-{i}" for i, (spec, _) in
                              enumerate(_RELATOR_PRESETS)])
def test_relator_module_matches_conjugates(spec, p):
    """The lean pass over tail-free relators gives, relator by relator, the
    vector of ``_conjugates``' sequence.  A zero-sum word over one free
    t-letter has no tail, so only the other presets have tails to check."""
    vectors = relator_module(p)
    assert len(vectors) == len(p.relators)
    for r, vector in zip(p.relators, vectors):
        sequence = collection._conjugates(r, p, CostLedger())[0]
        assert vector == collection._vector(sequence, p), r
    if len(p.t_names) > 1:
        assert any(split_conjugates(r, p)[1].letters for r in p.relators)


@pytest.mark.parametrize("p", [BS2, WF11, build(PresetSpec("wf", torsion_orders=(3,)))],
                         ids=["bs", "wf", "wf-torsion"])
def test_relator_module_refuses_nonzero_sums_as_conjugates_does(p):
    a, t = p.module_gens[0], p.t_names[-1]
    w = GroupWord(((t, 1), (a, 1), (t, 3)))
    with pytest.raises(ExponentSumError) as expected:
        collection._conjugates(w, p, CostLedger())
    with pytest.raises(ExponentSumError) as got:
        relator_module(replace(p, relators=(w,)))
    assert str(got.value) == str(expected.value)
