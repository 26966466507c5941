"""Presentation files, the word DSL, exponent sums, relator vectors."""

import json
import pickle
import random
import re
from collections import Counter
from dataclasses import fields, replace
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import BS2, GAMMA, LAMPLIGHTER2, WF11, random_kernel_word
from metabelian.elements import Ambient, ModuleElement, parse_element
from metabelian.errors import ParseError
from metabelian.collection import relator_module
from metabelian.presentation import (GroupWord, Presentation, _WordParser,
                                     exponent_sums, parse_presentation,
                                     parse_word)
from metabelian.presets import PresetSpec, build

BS_FILE = """
{
  "module_generators": ["a"],
  "free_generators": ["t"],
  "torsion_generators": [],
  "commutator_table": [],
  "relators": ["a^t * a^-2"]
}
"""


class TestParsePresentation:
    def test_bs_file(self):
        p = parse_presentation(BS_FILE)
        assert p.module_gens == ("a",) and p.free_gens == ("t",)
        assert p.relators[0].render() == "t^-1*a*t*a^-2"

    def test_nonzero_exponent_sum_rejected(self):
        bad = BS_FILE.replace('"a^t * a^-2"', '"t"')
        with pytest.raises(ParseError, match="exponent sum"):
            parse_presentation(bad)

    def test_gamma_roundtrip(self):
        doc = GAMMA.render()
        again = parse_presentation(doc)
        assert again == GAMMA

    def test_missing_commutator_pair(self):
        bad = """
        {"module_generators": ["a"], "free_generators": ["s", "t"],
         "commutator_table": [], "relators": []}
        """
        with pytest.raises(ParseError, match="commutator table"):
            parse_presentation(bad)

    def test_roundtrip_all_presets(self):
        wf = build(PresetSpec("wf", r=2, k=2, fs=((1, 2, 1), (1, 1)),
                              torsion_orders=(3,)))
        assert len(wf.relators) == 636
        for p in (BS2, GAMMA, LAMPLIGHTER2, WF11, wf):
            assert parse_presentation(p.render()) == p

    def test_bad_torsion_order(self):
        bad = """
        {"module_generators": ["a"], "free_generators": [],
         "torsion_generators": [{"name": "s", "order": 1}], "relators": []}
        """
        with pytest.raises(ParseError, match="order"):
            parse_presentation(bad)


class TestWordDsl:
    def test_commutator(self):
        w = parse_word("[a, a^t]", BS2)
        assert w.letters == (("a", -1), ("t", -1), ("a", -1), ("t", 1),
                             ("a", 1), ("t", -1), ("a", 1), ("t", 1))

    def test_power(self):
        assert parse_word("a^-2", BS2).letters == (("a", -2),)

    def test_concatenation(self):
        w = parse_word("t^3 * a * t^-3", BS2)
        assert w.letters == (("t", 3), ("a", 1), ("t", -3))

    def test_conjugation_by_word(self):
        w = parse_word("a^(t*a)", BS2)
        assert w.letters == (("a", -1), ("t", -1), ("a", 1), ("t", 1), ("a", 1))

    def test_nested_conjugation_needs_parens(self):
        with pytest.raises(ParseError, match="parentheses"):
            parse_word("a^t^t", BS2)

    def test_unknown_generator(self):
        with pytest.raises(ParseError, match="unknown generator"):
            parse_word("q", BS2)

    @pytest.mark.parametrize("text", [
        "1^99999999999999999999", "(1*1)^99999999999999999999",
        "(a*a^-1)^99999999999999999999", "(a^t*(a^-1)^t)^-99999999999999999999"])
    def test_huge_power_of_an_empty_base(self, text):
        assert parse_word(text, BS2) == GroupWord(())

    @pytest.mark.parametrize("text", [
        "(a*t)^99999999999999999999", "[a, t]^-99999999999999999999",
        "(a*t)^600000"])
    def test_huge_power_of_a_long_base(self, text):
        with pytest.raises(ParseError, match="too often"):
            parse_word(text, BS2)

    def test_nested_commutators_past_the_cap(self):
        # depth d spells 6*2^(d-1) - 2 syllables before condensing: depth 19
        # is the shallowest past 10^6, refused before its list is built
        def nested(d):
            return "[" * d + "a,t" + "],t" * (d - 1) + "]"
        assert parse_word(nested(18), BS2).length
        with pytest.raises(ParseError, match="1572862 syllables"):
            parse_word(nested(19), BS2)

    def test_roundtrip_random_words(self):
        rng = random.Random(0)
        names = ["a", "b", "s", "t"]
        for _ in range(1000):
            letters = [(rng.choice(names), rng.randint(-3, 3))
                       for _ in range(rng.randrange(0, 6))]
            w = GroupWord.from_letters(letters)
            assert parse_word(w.render(), GAMMA) == w


# Flat and near-flat texts over GAMMA: two of the names are unknown, the
# spacing, signs and digits are the ones a one-scan reader could get wrong,
# and a quarter of the texts carry one inserted character.
_SPACE = st.sampled_from(["", "", " ", "\t", "\n "])
_DIGITS = st.one_of(st.integers(0, 99).map(str),
                    st.sampled_from(["007", "00", "\u0663", "1\u0663"]),
                    st.integers(10 ** 29, 10 ** 30).map(str))
_INSERT = st.sampled_from(list("%\u00b2\u0663[]()^*-,1 "))


@st.composite
def _flat_texts(draw):
    text = draw(_SPACE)
    for i in range(draw(st.integers(1, 5))):
        if i:
            text += draw(_SPACE) + "*" + draw(_SPACE)
        text += draw(st.sampled_from(["a", "b", "s", "t", "q", "ab"]))
        if draw(st.booleans()):
            sign = draw(st.sampled_from(["", "-", "-" + draw(_SPACE)]))
            text += draw(_SPACE) + "^" + draw(_SPACE) + sign + draw(_DIGITS)
    text += draw(_SPACE)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_INSERT) + text[at:]
    return text


def _outcome(parse):
    try:
        return "letters", parse().letters
    except ParseError as exc:
        return "ParseError", str(exc)


def test_flat_words_match_the_grammar():
    """``parse_word`` reads flat texts in one scan; the recursive-descent
    grammar is the reference for every text, letters and errors alike."""
    names = set(GAMMA.module_gens) | set(GAMMA.t_names)
    seen = set()

    @settings(max_examples=400, deadline=None)
    @given(_flat_texts())
    def check(text):
        got = _outcome(lambda: parse_word(text, GAMMA))
        assert got == _outcome(lambda: _WordParser(text, names).parse())
        seen.add(got[0])

    check()
    assert seen == {"letters", "ParseError"}


# Presentation files over module generators a, b and t-generators s, t (and
# r of order 3 in torsion files).  Each file draws a few part texts, spaced,
# signed and written as ``_flat_texts`` writes them, and its relators repeat
# them; half the relators are balanced by closing t-syllables (off by one
# whole order on r), and a few carry an unknown name, a part only the
# grammar reads or one inserted character.
_TORSION_ORDER = 3


@st.composite
def _parts(draw):
    name = draw(st.sampled_from(["a", "b", "s", "t", "r", "q", "ab"]))
    text, exp = draw(_SPACE) + name, 1
    if draw(st.booleans()):
        sign = draw(st.sampled_from(["", "-", "-" + draw(_SPACE)]))
        digits = draw(_DIGITS)
        text += draw(_SPACE) + "^" + draw(_SPACE) + sign + digits
        exp = -int(digits) if sign else int(digits)
    return text + draw(_SPACE), name, exp


_GRAMMAR_PARTS = st.sampled_from([(" a^t", None, 0), ("[a, s]", None, 0),
                                  ("(s*a^-1)^t ", None, 0)])


@st.composite
def _presentation_files(draw):
    torsion = draw(st.booleans())
    t_names = ("s", "t", "r") if torsion else ("s", "t")
    pool = draw(st.lists(st.one_of(_parts(), _parts(), _parts(), _GRAMMAR_PARTS),
                         min_size=1, max_size=6))
    relators = []
    for _ in range(draw(st.integers(0, 5))):
        parts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        text = "*".join(part for part, _, _ in parts)
        if draw(st.booleans()):
            for n in t_names:
                s = sum(e for _, name, e in parts if name == n)
                if n == "r":
                    s += _TORSION_ORDER * draw(st.integers(-1, 1))
                if s:
                    text += f"*{n}^{-s}"
        if draw(st.integers(0, 7)) == 0:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(_INSERT) + text[at:]
        relators.append(text)
    table = [{"pair": [x, y], "equals": "b"}
             for i, x in enumerate(t_names) for y in t_names[i + 1:]]
    return {"module_generators": ["a", "b"], "free_generators": ["s", "t"],
            "torsion_generators": ([{"name": "r", "order": _TORSION_ORDER}]
                                   if torsion else []),
            "commutator_table": table, "relators": relators}


def _relators_by_grammar(doc):
    """Each relator through ``_WordParser`` and ``exponent_sums``: the
    reference for the file's shared split scan."""
    p = parse_presentation(json.dumps(dict(doc, relators=[])))
    relators = []
    for rtext in doc["relators"]:
        w = _WordParser(rtext, p._names).parse()
        sums = exponent_sums(w, p)
        if any(sums):
            raise ParseError(f"relator {rtext!r} has nonzero t-exponent sum {sums}")
        relators.append(w)
    return tuple(relators)


def _file_outcome(parse):
    try:
        return "relators", parse()
    except ParseError as exc:
        return "ParseError", str(exc)


def test_shared_syllable_table_matches_the_grammar():
    """A file's relators share one syllable table; relator by relator, the
    grammar and ``exponent_sums`` give the same words and the same first
    error, unbalanced-sum messages with their torsion-reduced sums included."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(_presentation_files())
    def check(doc):
        got = _file_outcome(lambda: parse_presentation(json.dumps(doc)).relators)
        assert got == _file_outcome(lambda: _relators_by_grammar(doc))
        unbalanced = "nonzero t-exponent sum" in str(got[1])
        seen.add((got[0], unbalanced, bool(doc["torsion_generators"])))

    check()
    assert {("relators", False, False), ("relators", False, True),
            ("ParseError", False, False), ("ParseError", True, True)} <= seen


def test_unbalanced_relator_reports_torsion_reduced_sums():
    doc = {"module_generators": ["a"], "free_generators": ["t"],
           "torsion_generators": [{"name": "r", "order": 3}],
           "commutator_table": [{"pair": ["t", "r"], "equals": "a"}],
           "relators": ["t^-1*r^4*a*t*r^-1", "r^-2*t^2 * a"]}
    with pytest.raises(ParseError) as exc:
        parse_presentation(json.dumps(doc))
    assert str(exc.value) == \
        "relator 'r^-2*t^2 * a' has nonzero t-exponent sum (2, 1)"


def test_syllable_table_lives_for_one_file():
    """A part read in one file is read again in the next: a name known in the
    first is unknown in the second, and the grammar reports it."""
    known = {"module_generators": ["a", "c"], "free_generators": ["t"],
             "relators": ["t^-1*c*t*a", "c^2*a"]}
    unknown = dict(known, module_generators=["a"])
    assert len(parse_presentation(json.dumps(known)).relators) == 2
    with pytest.raises(ParseError) as exc:
        parse_presentation(json.dumps(unknown))
    assert str(exc.value) == "unknown generator 'c' (at position 5)"
    with pytest.raises(ParseError) as ref:
        _WordParser("t^-1*c*t*a", {"a", "t"}).parse()
    assert str(exc.value) == str(ref.value)


# wf(1,2) with a torsion generator of order 3: u1, u2, t1, t2, t3
_DATUM_RING = build(PresetSpec("wf", r=1, k=2, torsion_orders=(3,))).ring_ambient()
_DIGITS = st.text("0123456789", min_size=1, max_size=3)


@st.composite
def _datum_texts(draw):
    """Ring-monomial texts such as ``-3*t1^-2``: signed, spaced, over known
    and unknown names, some with one character dropped or inserted."""
    space = st.sampled_from(("", "", " ", "\t"))
    parts = [draw(space), draw(st.sampled_from(("", "", "-", "+", "--")))]
    if draw(st.booleans()):
        parts += [draw(space), draw(_DIGITS), draw(space), "*"]
    parts += [draw(space), draw(st.sampled_from(
        _DATUM_RING.variables + ("x", "t", "t10", "_")))]
    if draw(st.booleans()):
        parts += [draw(space), "^", draw(space),
                  draw(st.sampled_from(("", "", "-", "+"))), draw(_DIGITS)]
    text = "".join(parts) + draw(space)
    edit = draw(st.sampled_from(("keep", "keep", "drop", "insert")))
    if edit == "drop":
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + text[at + 1:]
    elif edit == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("*^-+ ()0t1a,\u0663")) + text[at:]
    return text


def _element_outcome(parse):
    try:
        return "element", parse()
    except ParseError as exc:
        return "ParseError", str(exc)


# A signed ring monomial ``-3*t1^-2``, unspaced: almost every datum entry.
_RING_MONOMIAL = re.compile(
    r"(-?)(?:([0-9]+)\*)?([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?")


@settings(max_examples=400, deadline=None)
@given(_datum_texts())
def test_datum_entries_match_the_grammar(text):
    """A signed ring monomial of a known variable parses to that monomial;
    any other datum text parses to an element that reads back from its
    rendering, or raises ParseError."""
    outcome = _element_outcome(lambda: parse_element(text, _DATUM_RING))
    m = _RING_MONOMIAL.fullmatch(text)
    if m is not None and m[3] in _DATUM_RING.variables:
        sign, coeff, name, exp = m.groups()
        exps = [0] * _DATUM_RING.nvars
        exps[_DATUM_RING.var_index(name)] = int(exp or 1)
        c = -int(coeff or 1) if sign else int(coeff or 1)
        assert outcome == ("element",
                           ModuleElement.from_dict(_DATUM_RING,
                                                   {(tuple(exps), None): c}))
    elif outcome[0] == "element":
        assert parse_element(outcome[1].render(), _DATUM_RING) == outcome[1]


class TestDerivedTables:
    @pytest.mark.parametrize("p", [BS2, WF11, build(PresetSpec(
        "wf", r=1, k=2, torsion_orders=(3,)))], ids=["bs2", "wf11", "wf-torsion"])
    def test_each_table_derived_once(self, p, monkeypatch):
        """``parse_presentation`` builds one instance, so each derived table
        is computed once, whether the parse or a later caller reads it first."""
        calls = Counter()
        tables = [name for name, attr in vars(Presentation).items()
                  if isinstance(attr, cached_property)]
        for name in tables:
            attr = vars(Presentation)[name]

            def counted(self, func=attr.func, name=name):
                calls[name] += 1
                return func(self)

            monkeypatch.setattr(attr, "func", counted)
        parse_presentation.cache_clear()  # a cached instance is already derived
        q = parse_presentation(p.render())
        for name in tables:
            getattr(q, name)
            getattr(q, name)
        assert q == p
        assert calls == {name: 1 for name in tables}

    def test_ambient_built_once(self):
        p = parse_presentation(GAMMA.render())
        assert p.module_ambient() is p.module_ambient()
        assert p.module_ambient() == Ambient(
            p.t_names, p.torsion_orders, len(p.module_gens), p.module_gens,
            laurent=True)

    def test_replace_derives_again(self):
        p = WF11
        p.module_ambient(), p.t_names, p.torsion_orders
        q = replace(p, torsion_gens=(("r", 4),))
        assert q.t_names == p.t_names + ("r",)
        assert q.torsion_orders == p.torsion_orders + (4,)
        assert q.module_ambient().variables == q.t_names
        assert q.module_ambient().torsion == q.torsion_orders
        assert exponent_sums(GroupWord((("r", 6),)), q)[-1] == 2

    @pytest.mark.parametrize("read", [
        lambda p: None, lambda p: p.module_ambient(), lambda p: p.t_names,
        lambda p: parse_word("[u1, t1]", p), lambda p: relator_module(p)])
    def test_parses_stay_equal_whatever_was_read(self, read):
        text = WF11.render()
        parse_presentation.cache_clear()
        first = parse_presentation(text)
        parse_presentation.cache_clear()  # two parses, not one cached instance
        second = parse_presentation(text)
        assert first is not second
        read(first)
        assert first == second and hash(first) == hash(second)

    def test_hash_taken_once(self, monkeypatch):
        """A second ``hash(p)`` reads the kept value: no relator is hashed
        again, as a context cache hit would otherwise do."""
        calls = Counter()
        word_hash = GroupWord.__hash__

        def counted(self):
            calls["word"] += 1
            return word_hash(self)

        monkeypatch.setattr(GroupWord, "__hash__", counted)
        p = replace(WF11)
        h = hash(p)
        assert calls["word"] == len(p.relators) > 0
        assert hash(p) == h and calls["word"] == len(p.relators)

    def test_replace_and_pickle_hash_their_own_fields(self):
        p = WF11
        hash(p)
        q = replace(p, relators=p.relators[:1])
        assert "_hash" not in vars(q) and q != p
        assert hash(q) == hash(tuple(getattr(q, f.name) for f in fields(q)))
        # a str hashes differently in another process: no hash is pickled
        r = pickle.loads(pickle.dumps(p))
        assert "_hash" not in vars(r)
        assert r == p and hash(r) == hash(p)

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            GAMMA.t_index("a")
        with pytest.raises(KeyError, match="misses the pair"):
            replace(GAMMA, commutator_table=()).commutator_gen(0, 1)
        assert GAMMA.t_index("t") == 1


class TestParseCache:
    """``parse_presentation`` keeps the last 64 ``str`` texts."""

    def test_same_text_same_instance(self):
        text = WF11.render()
        assert parse_presentation(text) is parse_presentation(text)

    def test_respaced_text_is_equal_and_hits_the_context(self):
        from metabelian.wordproblem import module_context

        text = WF11.render()
        spaced = text.replace("*", " * ").replace("^", " ^ ")
        assert " ^ " in spaced
        p, q = parse_presentation(text), parse_presentation(spaced)
        assert q == p and q is not p and hash(q) == hash(p)
        module_context(p)
        hits = module_context.cache_info().hits
        module_context(q)
        assert module_context.cache_info().hits == hits + 1

    def test_errors_are_not_cached(self):
        bad = BS_FILE.replace('"a^t * a^-2"', '"t"')
        parse_presentation.cache_clear()
        for _ in range(3):
            with pytest.raises(ParseError, match="exponent sum"):
                parse_presentation(bad)
        assert parse_presentation.cache_info().currsize == 0

    def test_keeps_the_last_64_texts(self):
        texts = [BS_FILE + " " * i for i in range(65)]
        parse_presentation.cache_clear()
        first = parse_presentation(texts[0])
        for text in texts[1:]:
            parse_presentation(text)
        assert parse_presentation.cache_info().currsize == 64
        again = parse_presentation(texts[0])
        assert again == first and again is not first

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_bytes_are_read_each_time(self, kind):
        data = kind(GAMMA.render().encode())
        p = parse_presentation(data)
        assert p == GAMMA and parse_presentation(data) is not p

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_undecodable_bytes(self, kind):
        """Bytes that do not decode in the encoding json detects are
        reported as such, not as an over-long integer."""
        with pytest.raises(ParseError, match="bytes do not decode") as exc:
            parse_presentation(kind(b"\xff\xfe\x00"))
        assert "too long" not in str(exc.value)


class TestExponentSums:
    def test_relator_is_balanced(self):
        assert exponent_sums(BS2.relators[0], BS2) == (0,)

    def test_simple(self):
        p = build(PresetSpec("free_abelian"))
        assert exponent_sums(parse_word("t1*t2*t1^-1", p), p) == (0, 1)

    def test_torsion_reduction(self):
        p = build(PresetSpec("wf", r=1, k=1, torsion_orders=(2,)))
        sums = exponent_sums(parse_word("t2^3", p), p)
        assert sums[p.t_index("t2")] == 1

    def test_homomorphism(self):
        rng = random.Random(1)
        for _ in range(300):
            w1 = random_kernel_word(GAMMA, rng, rng.randrange(0, 6))
            w2 = random_kernel_word(GAMMA, rng, rng.randrange(0, 6))
            s1 = exponent_sums(w1, GAMMA)
            s2 = exponent_sums(w2, GAMMA)
            s12 = exponent_sums(w1 * w2, GAMMA)
            assert s12 == tuple(a + b for a, b in zip(s1, s2))


class TestDegenerate:
    def test_no_t_generators(self):
        from metabelian.wordproblem import is_identity
        p = parse_presentation(
            '{"module_generators": ["a", "b"], "free_generators": [],'
            ' "relators": ["a^2 * b^-1", "b^3"]}')
        assert is_identity(parse_word("a^6", p), p)[0]
        assert not is_identity(parse_word("a", p), p)[0]

    def test_no_module_generators(self):
        from metabelian.wordproblem import is_identity
        p = parse_presentation(
            '{"module_generators": [], "free_generators": ["t"],'
            ' "relators": []}')
        assert is_identity(parse_word("t*t^-1", p), p)[0]
        assert not is_identity(parse_word("t", p), p)[0]


class TestRelatorModule:
    def test_bs(self):
        vecs = relator_module(BS2)
        assert [v.render() for v in vecs] == ["(t^-1 - 2)*a"]

    def test_lamplighter(self):
        vecs = relator_module(LAMPLIGHTER2)
        assert [v.render() for v in vecs] == ["2*a", "0"]

    def test_wf_action(self):
        vecs = relator_module(WF11)
        assert "(u1 - t1 - 1)*a1" in [v.render() for v in vecs]

    def test_parse_collect_matches_dsl_example(self):
        p = parse_presentation(BS_FILE)
        vecs = relator_module(p)
        assert [v.render() for v in vecs] == ["(t - 2)*a"]


LONG = "9" * 5000  # more digits than int() converts


class TestLongLiterals:
    """An integer longer than ``int()`` converts is a ParseError at its
    token from every reader, never Python's ValueError."""

    @pytest.mark.parametrize("read, text, position", [
        (lambda text: parse_element(text, BS2.ring_ambient()), LONG + "*t", 0),
        (lambda text: parse_word(text, BS2), "a^" + LONG, 2),   # split scan
        (lambda text: parse_word(text, BS2), "(a)^" + LONG, 4),  # grammar
        (lambda text: parse_presentation(TestFileShape._doc(**{"lambda": {
            "centralizer": [text], "co_centralizer": []}})), LONG + "*t", 0),
    ], ids=["element", "flat-word", "grammar-word", "datum"])
    def test_reader(self, read, text, position):
        with pytest.raises(ParseError, match="integer of 5000 digits is too long") as exc:
            read(text)
        assert exc.value.position == position

    def test_json_number(self):
        text = BS_FILE.replace('"torsion_generators": []', '"torsion_generators": '
                               '[{"name": "s", "order": 1' + "0" * 5000 + '}]')
        with pytest.raises(ParseError, match="integer literal is too long"):
            parse_presentation(text)


_DEEP = "(" * 5000 + "a" + ")" * 5000


class TestDeepNesting:
    """Brackets nested past the interpreter's recursion limit are a
    ParseError from every reader, never a RecursionError."""

    @pytest.mark.parametrize("read, text", [
        (parse_presentation, "[" * 100000),
        (lambda text: parse_presentation(TestFileShape._doc(relators=[text])), _DEEP),
        (lambda text: parse_presentation(TestFileShape._doc(**{"lambda": {
            "centralizer": [text], "co_centralizer": []}})), _DEEP.replace("a", "t")),
        (lambda text: parse_word(text, BS2), _DEEP),
        (lambda text: parse_element(text, BS2.module_ambient()), _DEEP),
    ], ids=["json", "relator", "datum", "word", "element"])
    def test_reader(self, read, text):
        with pytest.raises(ParseError, match="^nesting is too deep$"):
            read(text)


class TestFileShape:
    """Malformed presentation files raise ParseError, never a bare
    AttributeError or TypeError, and are never half-read."""

    @staticmethod
    def _doc(**changes):
        doc = json.loads(BS_FILE)
        doc.update(changes)
        return json.dumps(doc)

    def test_lambda_must_be_an_object(self):
        # only an absent key, null and {} mean "no datum"; falsy lists,
        # numbers and strings are malformed like any other non-object
        for lam in (["2*t"], [], 0, False, "", "x"):
            with pytest.raises(ParseError, match="'lambda' must be an object"):
                parse_presentation(self._doc(**{"lambda": lam}))
        for lam in (None, {}):
            assert parse_presentation(self._doc(**{"lambda": lam})).tameness is None

    def test_lambda_entries_must_be_strings(self):
        with pytest.raises(ParseError, match="'centralizer' must be a list"):
            parse_presentation(self._doc(**{"lambda": {"centralizer": [2]}}))

    def test_relators_must_be_strings(self):
        with pytest.raises(ParseError, match="'relators' must be a list of strings"):
            parse_presentation(self._doc(relators=[5]))

    def test_generators_must_be_a_list(self):
        with pytest.raises(ParseError, match="'module_generators' must be a list"):
            parse_presentation(self._doc(module_generators="ab"))

    def test_generator_names_must_be_strings(self):
        with pytest.raises(ParseError, match="'free_generators' must be a list of strings"):
            parse_presentation(self._doc(free_generators=[5]))
        with pytest.raises(ParseError, match="invalid generator name 5"):
            parse_presentation(self._doc(
                torsion_generators=[{"name": 5, "order": 2}]))

    def test_pair_with_two_targets(self):
        bad = """
        {"module_generators": ["a", "b"], "free_generators": ["s", "t"],
         "commutator_table": [{"pair": ["s", "t"], "equals": "a"},
                              {"pair": ["s", "t"], "equals": "b"}],
         "relators": []}
        """
        with pytest.raises(ParseError, match="two targets"):
            parse_presentation(bad)

    def test_pair_of_three(self):
        bad = """
        {"module_generators": ["a"], "free_generators": ["s", "t", "u"],
         "commutator_table": [{"pair": ["s", "t", "u"], "equals": "a"}],
         "relators": []}
        """
        with pytest.raises(ParseError, match="must list two names"):
            parse_presentation(bad)

    @pytest.mark.parametrize("entry", [
        {"name": "s"},
        {"name": "s", "order": "x"},
        {"name": "s", "order": "3"},
        {"name": "s", "order": 2.5},
        {"name": "s", "order": True},
        {"name": "s", "order": None},
    ])
    def test_torsion_order_must_be_an_integer(self, entry):
        with pytest.raises(ParseError, match="needs an integer 'order'"):
            parse_presentation(self._doc(torsion_generators=[entry]))

    def test_torsion_entry_needs_a_name(self):
        with pytest.raises(ParseError, match="invalid generator name None"):
            parse_presentation(self._doc(torsion_generators=[{"order": 2}]))

    def test_table_rows_must_be_objects(self):
        with pytest.raises(ParseError, match="'commutator_table' must be a list of objects"):
            parse_presentation(self._doc(commutator_table=[["s", "t"]]))
