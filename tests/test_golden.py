"""Golden certificates and Groebner bases.

``golden/solve.jsonl`` holds one line per word: the preset spec, the word
text and ``json.dumps(cert.to_json(), sort_keys=True)``.  A change that moves
any certificate field fails here; after declaring such a change, rewrite the
certificates of the same words with ``PYTHONPATH=src python tests/test_golden.py``.

``golden/groebner.jsonl`` holds one line per Groebner input (a preset spec,
whose basis is the cached relator basis, or a list of generator texts over
``RANDOM_AMBIENT``) and ``json.dumps(basis.to_json(), sort_keys=True)``.  The
same command regenerates it from ``_groebner_inputs``.

``golden/ledger.jsonl`` holds one line per random kernel word of
``_ledger_inputs``: the preset spec, the word, the rendered ordered vector
and all six ``CostLedger`` fields.  Certificates carry only the sum of
``rel_r2_merge`` and ``rel_r2_normalize``, so this file pins each charge of
collection on its own.  The same command regenerates it.

``golden/grids.jsonl`` holds the same lines for the commutators of powers
of ``_grid_inputs``, whose tails gather into grids of conjugates: every
``[t1^a, t2^b]`` and ``[t1^-a, t2^b]`` with ``1 <= a, b <= 12`` over
``free_abelian``, and a dozen commutators of powers in a wf group with a
torsion generator and in Baumslag's Gamma.  The same command regenerates it.

``golden/parse.jsonl`` holds one line per text of ``_parse_inputs``: seeded
word texts parsed against ``GAMMA`` and element texts over ``PARSE_RING`` and
``PARSE_MODULE``, about a tenth of them with one corrupting character, then
300 flat word texts (``name^int*name*...`` with awkward spacing, exponents
and unknown names) over ``GAMMA``.  Each
line carries either the parsed ``letters`` (words) or ``render()`` (elements),
or the error type and message.  The same command regenerates it.

``golden/laws.jsonl`` holds ledger lines for the ``[[x,y],[z,w]]`` law words
of ``_law_inputs``, the words the benchmark's ``Group.metabelian_law`` draws
from ``random.Random(5)`` with four factors of 3 to 10 letters, in
``wf(r=1,k=2)``, Baumslag's Gamma and ``free_abelian``.  Their unit
conjugates make long greedy cancellations.  The same command regenerates it.
"""

import dataclasses
import json
import os
import random

import pytest

from _helpers import GAMMA, random_element, random_kernel_word
from metabelian.bounds import Bound
from metabelian.collection import ordered_form, relator_module
from metabelian.elements import Ambient, ModuleElement, parse_element
from metabelian.groebner import buchberger_strong, verify_certificate
from metabelian.presentation import GroupWord, commutator, parse_word
from metabelian.presets import PresetSpec, build
from metabelian.wordproblem import is_identity, module_context

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "solve.jsonl")
GROEBNER = os.path.join(os.path.dirname(__file__), "golden", "groebner.jsonl")
LEDGER = os.path.join(os.path.dirname(__file__), "golden", "ledger.jsonl")
PARSE = os.path.join(os.path.dirname(__file__), "golden", "parse.jsonl")
GRIDS = os.path.join(os.path.dirname(__file__), "golden", "grids.jsonl")
LAWS = os.path.join(os.path.dirname(__file__), "golden", "laws.jsonl")
RANDOM_AMBIENT = Ambient(("x",), (0,), 2, ("e1", "e2"), laurent=False)
PARSE_MODULE = Ambient(("t", "s"), (0, 3), 2, ("e1", "e2"), laurent=True)
PARSE_RING = PARSE_MODULE.ring()


def _load(path=GOLDEN):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _preset(spec: dict):
    fields = dict(spec)
    if "fs" in fields:
        fields["fs"] = tuple(tuple(c) for c in fields["fs"])
    if "torsion_orders" in fields:
        fields["torsion_orders"] = tuple(fields["torsion_orders"])
    return build(PresetSpec(**fields))


def _solve(entry):
    p = _preset(entry["preset"])
    _, cert = is_identity(parse_word(entry["word"], p), p)
    return p, cert


ENTRIES = _load()
IDS = [f"{e['preset']['name']}:{e['word'][:40]}" for e in ENTRIES]


def test_deck_covers_every_preset():
    names = {e["preset"]["name"] for e in ENTRIES}
    assert names == {"bs", "lamplighter", "zwrz", "baumslag_gamma", "wf",
                     "free_abelian"}
    long_bs = [e for e in ENTRIES if e["preset"]["name"] == "bs"
               and parse_word(e["word"]).length >= 41]
    assert len(long_bs) >= 4


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_certificate_byte_identical(entry):
    _, cert = _solve(entry)
    assert json.dumps(cert.to_json(), sort_keys=True) == entry["certificate"]


MEMBERSHIP = [e for e in ENTRIES
              if json.loads(e["certificate"])["membership"] is not None]


@pytest.mark.parametrize("entry", MEMBERSHIP,
                         ids=[IDS[ENTRIES.index(e)] for e in MEMBERSHIP])
def test_independent_checker_accepts(entry):
    """The division checks without the divider, and an identity's witnessed
    costs stay within the paper's two bounds."""
    p, cert = _solve(entry)
    ctx = module_context(p)
    g = ctx.embed(cert.ordered)
    assert verify_certificate(g, cert.membership, ctx.basis)
    if cert.identity:
        assert cert.witnessed_relative <= cert.relative_bound
        if cert.assembly_bound is not None:
            assert cert.witnessed_cost <= cert.assembly_bound


def _bs_witness_certificate():
    entry = next(e for e in ENTRIES if e["preset"] == {"name": "bs", "n": 2}
                 and e["word"] == "t^5*a*t^-5*a^-32")
    p, cert = _solve(entry)
    ctx = module_context(p)
    return ctx.embed(cert.ordered), cert.membership, ctx.basis


def test_independent_checker_rejects_tampered_alpha():
    g, cert, basis = _bs_witness_certificate()
    idx = next(i for i, a in enumerate(cert.coefficients) if not a.is_zero())
    ring = cert.coefficients[idx].ambient
    bump = ModuleElement.from_dict(ring, {((0,) * ring.nvars, None): 1})
    alphas = list(cert.coefficients)
    alphas[idx] = alphas[idx] + bump
    tampered = cert.__class__(tuple(alphas), cert.residue, cert.steps,
                              cert.size + 1, cert.bound)
    assert not verify_certificate(g, tampered, basis)


def test_independent_checker_rejects_wrong_size_and_bound():
    g, cert, basis = _bs_witness_certificate()
    wrong_size = cert.__class__(cert.coefficients, cert.residue, cert.steps,
                                cert.size + 1, cert.bound)
    assert not verify_certificate(g, wrong_size, basis)
    wrong_bound = cert.__class__(cert.coefficients, cert.residue, cert.steps,
                                 cert.size, Bound.of(cert.size - 1))
    assert not verify_certificate(g, wrong_bound, basis)


def _preset_specs():
    """Every preset of the certificate deck and two wf groups with torsion."""
    specs = []
    for entry in _load():
        if entry["preset"] not in specs:
            specs.append(entry["preset"])
    return specs + [{"name": "wf", "r": 2, "k": 2, "fs": [[1, 2, 1], [1, 1]],
                     "torsion_orders": [3]},
                    {"name": "wf", "r": 1, "k": 1, "fs": [[1, 1, 1]],
                     "torsion_orders": [2]}]


@pytest.mark.parametrize("spec", _preset_specs(), ids=json.dumps)
def test_relator_vectors_match_ordered_form(spec):
    """``relator_module`` builds and prices no conjugator, and loses none
    of the vector."""
    p = _preset(spec)
    assert relator_module(p) == [ordered_form(r, p)[0] for r in p.relators]


def _pool_wf_specs():
    """The 25 ``wf`` presentations of the benchmark's many-groups pool: r and
    k in {1, 2}, f1 in {1+t, 1+t+t^2, 1+2t+t^2}, no torsion or one
    generator of order 2, then r = k = 2, f1 = 1+2t+t^2 with order 3."""
    def wf(r, k, f, torsion):
        return {"name": "wf", "r": r, "k": k, "fs": [list(f)] + [[1, 1]] * (k - 1),
                "torsion_orders": list(torsion)}
    return [wf(r, k, f, tor) for tor in ((), (2,)) for r in (1, 2) for k in (1, 2)
            for f in ((1, 1), (1, 1, 1), (1, 2, 1))] + [wf(2, 2, (1, 2, 1), (3,))]


def _groebner_inputs():
    """The presets of ``_preset_specs``, 30 random generator sets of rank 2
    over Z[x] (``random.Random(3)``) and the presets of ``_pool_wf_specs``."""
    inputs = [{"preset": spec} for spec in _preset_specs()]
    rng = random.Random(3)
    for _ in range(30):
        gens = [g for g in (random_element(rng, RANDOM_AMBIENT) for _ in range(3))
                if not g.is_zero()]
        inputs.append({"generators": [g.render() for g in gens]})
    return inputs + [{"preset": spec} for spec in _pool_wf_specs()]


def _basis(entry):
    if "preset" in entry:
        return module_context(_preset(entry["preset"])).basis
    return buchberger_strong([parse_element(text, RANDOM_AMBIENT)
                              for text in entry["generators"]])


GROEBNER_ENTRIES = _load(GROEBNER) if os.path.exists(GROEBNER) else []


def test_groebner_inputs_unchanged():
    assert [{k: v for k, v in e.items() if k != "basis"}
            for e in GROEBNER_ENTRIES] == _groebner_inputs()


@pytest.mark.parametrize("entry", GROEBNER_ENTRIES,
                         ids=[f"{i}:{json.dumps(e.get('preset', 'random'))}"
                              for i, e in enumerate(GROEBNER_ENTRIES)])
def test_groebner_basis_byte_identical(entry):
    assert json.dumps(_basis(entry).to_json(), sort_keys=True) == entry["basis"]


# Presets of the long ledger words: two acting pairs, Gamma's commutator
# table, and torsion generators of orders 5 and 2.
_LONG_SPECS = ({"name": "wf", "r": 1, "k": 2}, {"name": "baumslag_gamma"},
               {"name": "wf", "r": 1, "k": 1, "torsion_orders": [5, 2]})


def _random_word(p, rng, n) -> GroupWord:
    names = list(p.module_gens) + list(p.t_names)
    return GroupWord.from_letters([(rng.choice(names), rng.choice((-1, 1)))
                                   for _ in range(n)])


def _law_word(p, rng) -> GroupWord:
    """``[[x,y],[z,w]]`` of 40-60 letters for random factors of 2-5 letters."""
    while True:
        x, y, z, w = (_random_word(p, rng, rng.randint(2, 5)) for _ in range(4))
        law = commutator(commutator(x, y), commutator(z, w))
        if 40 <= law.length <= 60:
            return law


def _relator_product(p, rng) -> GroupWord:
    """A product of 40-60 letters of relators (or inverses) of at most 20
    letters, each conjugated by a random word of 1-6 letters."""
    short = [r for r in p.relators if r.length <= 20]
    while True:
        w = GroupWord.from_letters(())
        while w.length < 40:
            r = rng.choice(short)
            if rng.random() < 0.5:
                r = r.inverse()
            w = w * r.conjugate_by(_random_word(p, rng, rng.randint(1, 6)))
        if w.length <= 60:
            return w


# Presets of the sort-heavy ledger words, free and with torsion.
_SORT_SPECS = ({"name": "wf", "r": 1, "k": 2},
               {"name": "wf", "r": 2, "k": 2, "torsion_orders": [3]},
               {"name": "wf", "r": 1, "k": 1, "torsion_orders": [5, 2]})


def _commutator_product(p, rng) -> GroupWord:
    """A product of two or three commutators of random words of 8-20
    letters, 100-140 letters in all: not an identity, so about 50-140
    conjugates are left to sort after cancellation."""
    while True:
        w = GroupWord.from_letters(())
        for _ in range(rng.randint(2, 3)):
            w = w * commutator(_random_word(p, rng, rng.randint(8, 20)),
                               _random_word(p, rng, rng.randint(8, 20)))
        if 100 <= w.length <= 140:
            return w


def _z2_commutator(rng) -> GroupWord:
    """``[t1^a, t2^b]`` with ``64 <= a*b <= 300``: as many distinct
    conjugates, none of which cancel."""
    while True:
        a, b = rng.randint(2, 40), rng.randint(2, 40)
        if 64 <= a * b <= 300:
            return commutator(GroupWord.from_letters((("t1", a),)),
                              GroupWord.from_letters((("t2", b),)))


def _ledger_inputs():
    """30 random kernel words of 0-24 drawn letters (``random.Random(4)``)
    per preset of ``_preset_specs`` and the lamplighter with m = 3, then four
    law words and four relator products per preset of ``_LONG_SPECS``
    (``random.Random(6)``), where merge groups of several items and
    conjugator letters with ``|exp| >= 2`` are common, then eight commutator
    products per preset of ``_SORT_SPECS`` and six Z^2 commutators
    (``random.Random(7)``), where the final sort has many items."""
    inputs = []
    rng = random.Random(4)
    for spec in _preset_specs() + [{"name": "lamplighter", "m": 3}]:
        p = _preset(spec)
        for _ in range(30):
            w = random_kernel_word(p, rng, rng.randrange(0, 25))
            inputs.append({"preset": spec, "word": w.render()})
    rng = random.Random(6)
    for spec in _LONG_SPECS:
        p = _preset(spec)
        words = [_law_word(p, rng) for _ in range(4)]
        words += [_relator_product(p, rng) for _ in range(4)]
        inputs += [{"preset": spec, "word": w.render()} for w in words]
    rng = random.Random(7)
    for spec in _SORT_SPECS:
        p = _preset(spec)
        inputs += [{"preset": spec, "word": _commutator_product(p, rng).render()}
                   for _ in range(8)]
    inputs += [{"preset": {"name": "free_abelian"},
                "word": _z2_commutator(rng).render()} for _ in range(6)]
    return inputs


def _ledger_line(entry) -> dict:
    p = _preset(entry["preset"])
    vector, ledger = ordered_form(parse_word(entry["word"], p), p)
    return dict(entry, vector=vector.render(),
                ledger=dataclasses.asdict(ledger))


LEDGER_ENTRIES = _load(LEDGER) if os.path.exists(LEDGER) else []


def test_ledger_inputs_unchanged():
    assert [{"preset": e["preset"], "word": e["word"]}
            for e in LEDGER_ENTRIES] == _ledger_inputs()


@pytest.mark.parametrize("entry", LEDGER_ENTRIES,
                         ids=[f"{i}:{json.dumps(e['preset'])}"
                              for i, e in enumerate(LEDGER_ENTRIES)])
def test_ledger_byte_identical(entry):
    line = _ledger_line({"preset": entry["preset"], "word": entry["word"]})
    assert json.dumps(line, sort_keys=True) == json.dumps(entry, sort_keys=True)


_GRID_TORSION = {"name": "wf", "r": 1, "k": 1, "fs": [[1, 1, 1]],
                 "torsion_orders": [2]}
# (x, a, y, b) of [x^a, y^b]; t2 has order 2 in _GRID_TORSION
_GRID_TORSION_POWERS = (
    ("t1", 3, "t2", 5), ("t1", -4, "t2", 3), ("t1", 7, "t2", 2),
    ("t1", -2, "t2", 7), ("u1", 5, "t1", 4), ("u1", -3, "t1", 6),
    ("u1", 6, "t1", -5), ("u1", -7, "t1", -2), ("u1", 4, "t2", 3),
    ("u1", -5, "t2", 5), ("u1", 2, "t2", -9), ("u1", -6, "t2", -4))
_GRID_GAMMA_POWERS = ((1, 1), (2, 3), (5, 7), (12, 12), (-3, 4), (-8, 5),
                      (4, -6), (9, -2), (-5, -5), (-11, -7), (7, 11), (-1, 12))


def _power_commutator(x, a, y, b) -> GroupWord:
    return commutator(GroupWord.from_letters(((x, a),)),
                      GroupWord.from_letters(((y, b),)))


def _grid_inputs():
    inputs = [{"preset": {"name": "free_abelian"},
               "word": _power_commutator("t1", sign * a, "t2", b).render()}
              for sign in (1, -1) for a in range(1, 13) for b in range(1, 13)]
    inputs += [{"preset": _GRID_TORSION,
                "word": _power_commutator(*powers).render()}
               for powers in _GRID_TORSION_POWERS]
    inputs += [{"preset": {"name": "baumslag_gamma"},
                "word": _power_commutator("s", a, "t", b).render()}
               for a, b in _GRID_GAMMA_POWERS]
    return inputs


GRID_ENTRIES = _load(GRIDS) if os.path.exists(GRIDS) else []


def test_grid_inputs_unchanged():
    assert [{"preset": e["preset"], "word": e["word"]}
            for e in GRID_ENTRIES] == _grid_inputs()


@pytest.mark.parametrize("entry", GRID_ENTRIES,
                         ids=[f"{i}:{e['preset']['name']}"
                              for i, e in enumerate(GRID_ENTRIES)])
def test_grid_ledger_byte_identical(entry):
    line = _ledger_line({"preset": entry["preset"], "word": entry["word"]})
    assert json.dumps(line, sort_keys=True) == json.dumps(entry, sort_keys=True)


def _benchmark_word(p, rng, target):
    """A freely reduced word of ``target`` letters whose acting letters keep
    every exponent sum within 2 of 0: the benchmark's
    ``Group.random_word``, draw for draw."""
    names = list(p.module_gens) + list(p.t_names)
    sums = dict.fromkeys(p.t_names, 0)
    out = []
    while len(out) < target:
        name = rng.choice(names)
        if out and out[-1][0] == name:
            continue
        sign = rng.choice((1, -1))
        if name in sums:
            if abs(sums[name]) >= 2:
                sign = -1 if sums[name] > 0 else 1
            sums[name] += sign
        out.append((name, sign))
    return GroupWord.from_letters(out)


def _benchmark_law(p, rng, factor_lengths) -> GroupWord:
    """The benchmark's ``Group.metabelian_law``: ``[[x,y],[z,w]]`` for
    random factors, redrawn while it reduces freely to the empty word."""
    law = GroupWord.from_letters(())
    while not law.letters:
        x, y, z, w = (_benchmark_word(p, rng, n) for n in factor_lengths)
        law = commutator(commutator(x, y), commutator(z, w))
    return law


def _law_inputs():
    """One law word per preset and factor length n in 3..10, each drawn
    from a fresh ``random.Random(5)`` with four factors of n letters: 40 to
    160 letters."""
    return [{"preset": spec,
             "word": _benchmark_law(_preset(spec), random.Random(5),
                                    (n,) * 4).render()}
            for spec in ({"name": "wf", "r": 1, "k": 2},
                         {"name": "baumslag_gamma"}, {"name": "free_abelian"})
            for n in range(3, 11)]


LAW_ENTRIES = _load(LAWS) if os.path.exists(LAWS) else []


def test_law_inputs_unchanged():
    assert [{"preset": e["preset"], "word": e["word"]}
            for e in LAW_ENTRIES] == _law_inputs()


@pytest.mark.parametrize("entry", LAW_ENTRIES,
                         ids=[f"{i}:{e['preset']['name']}"
                              for i, e in enumerate(LAW_ENTRIES)])
def test_law_ledger_byte_identical(entry):
    line = _ledger_line({"preset": entry["preset"], "word": entry["word"]})
    assert json.dumps(line, sort_keys=True) == json.dumps(entry, sort_keys=True)


# Word texts over GAMMA's generators, then element
# texts; the fixed texts pin the one-syllable power rule on huge exponents.
_WORD_NAMES = ("a", "b", "s", "t")
_FIXED_WORDS = ("1", "(a*t)^3", "(a*t)^-2", "(a*t)^0", "[a, b]", "[a^t, b^-2]",
                "a^(t*s)", "a^t^t", "a^-(2^200)", f"a^-{2 ** 200}",
                f"(a*a)^{2 ** 200}", f"(a*t*t^-1)^-{2 ** 200}",
                "", "q", "a^", "a*", "[a, b",
                "(a", "a^()", "a^1^2", "a ^ - 3", "1^5")
_FIXED_ELEMENTS = ("0", "1", "-1", "t", "t^-1*s^4", "2*3*t", "+t", "--t",
                   "t^x", "(t^2 - 2*t)*e1 + 3*e2", "-(t + 1)*e1",
                   "e1*e2", "e1^2", "t*(e1 + s*e2)", "2*-t*e1", "e1 + 1",
                   "s^3 - 1", "x", "(t", "t +", "t^")
_CORRUPT = "^*()[],-+1x# "
# Flat products ``name^int*name*...`` over GAMMA, with the spellings a
# one-scan reader could split wrongly: whitespace around every token, signed
# zero, leading zeros, 30-digit exponents, equal neighbours that condense,
# unknown names at the first, a middle and the last syllable, and inserted
# characters that are not ASCII ('\u00b2' is no digit, '\u0663' is one).
_FLAT_UNKNOWN = ("q", "x1", "ab", "t_", "S")
_FLAT_SPACE = ("", "", "", " ", "  ", "\t", "\n")
_FLAT_CORRUPT = "^*()[],-1x%# \u00b2\u0663"


def _flat_exponent(rng) -> str:
    r = rng.random()
    if r < 0.5:
        return str(rng.choice((-3, -2, -1, 1, 2, 3, 4)))
    if r < 0.6:
        return rng.choice(("0", "-0", "007", "-007", "00"))
    if r < 0.75:
        digits = str(rng.randint(10 ** 29, 10 ** 30 - 1))
        return digits if rng.random() < 0.5 else "-" + digits
    return str(rng.randint(-99, 99))


def _flat_text(rng) -> str:
    names = [rng.choice(_WORD_NAMES) for _ in range(rng.randint(1, 6))]
    for i in range(1, len(names)):
        if rng.random() < 0.25:
            names[i] = names[i - 1]
    if rng.random() < 0.15:
        at = rng.choice((0, len(names) // 2, len(names) - 1))
        names[at] = rng.choice(_FLAT_UNKNOWN)
    spaces = _FLAT_SPACE if rng.random() < 0.6 else ("",)

    def sp():
        return rng.choice(spaces)

    out = sp()
    for i, name in enumerate(names):
        if i:
            out += sp() + "*" + sp()
        out += name
        if rng.random() < 0.7:
            e = _flat_exponent(rng)
            if e.startswith("-"):
                e = "-" + sp() + e[1:]
            out += sp() + "^" + sp() + e
    out += sp()
    if rng.random() >= 0.1:
        return out
    at = rng.randrange(len(out) + 1)
    return out[:at] + rng.choice(_FLAT_CORRUPT) + out[at:]


def _word_text(rng, depth=0) -> str:
    return "*".join(_word_factor(rng, depth) for _ in range(rng.randint(1, 3)))


def _word_factor(rng, depth) -> str:
    r = rng.random()
    if depth >= 2 or r < 0.4:
        atom = rng.choice(_WORD_NAMES + ("1",))
    elif r < 0.7:
        atom = f"({_word_text(rng, depth + 1)})"
    else:
        atom = f"[{_word_text(rng, depth + 1)}, {_word_text(rng, depth + 1)}]"
    r = rng.random()
    if r < 0.4:
        return atom
    if r < 0.7:
        return f"{atom}^{rng.randint(-4, 4)}"
    if r < 0.85:
        return f"{atom}^{rng.choice(_WORD_NAMES)}"
    return f"{atom}^({_word_text(rng, depth + 1)})"


def _element_text(rng, module, depth=0) -> str:
    out = rng.choice(("", "", "-", "+"))
    for i in range(rng.randint(1, 3)):
        if i:
            out += rng.choice((" + ", " - "))
        factors = [_element_factor(rng, depth) for _ in range(rng.randint(1, 3))]
        if module and rng.random() < 0.8:
            factors.insert(rng.randrange(len(factors) + 1),
                           rng.choice(("e1", "e2")))
        out += "*".join(factors)
    return out


def _element_factor(rng, depth) -> str:
    r = rng.random()
    if r < 0.3:
        return str(rng.randint(0, 5))
    if r < 0.85 or depth >= 1:
        var = rng.choice(("t", "s"))
        e = rng.randint(-4, 4)
        return var if e == 1 else f"{var}^{e}"
    if r < 0.9:
        return f"-{_element_factor(rng, depth + 1)}"
    return f"({_element_text(rng, rng.random() < 0.3, depth + 1)})"


def _corrupt(rng, text: str) -> str:
    if rng.random() >= 0.1:
        return text
    at = rng.randrange(len(text) + 1)
    return text[:at] + rng.choice(_CORRUPT) + text[at:]


def _parse_inputs():
    """The fixed texts, 580 word texts and 380 element texts
    (``random.Random(5)``); half the element texts are over the ring ambient,
    about a tenth of the drawn texts carry one inserted character.  Then 300
    flat word texts (``random.Random(8)``, ``_flat_text``)."""
    rng = random.Random(5)
    inputs = [{"kind": "word", "text": t} for t in _FIXED_WORDS]
    inputs += [{"kind": "word", "text": _corrupt(rng, _word_text(rng))}
               for _ in range(580)]
    for amb in ("ring", "module"):
        inputs += [{"kind": "element", "ambient": amb, "text": t}
                   for t in _FIXED_ELEMENTS]
        for _ in range(190):
            if rng.random() < 0.25:
                ambient = PARSE_RING if amb == "ring" else PARSE_MODULE
                text = random_element(rng, ambient).render()
            else:
                text = _element_text(rng, amb == "module")
            inputs.append({"kind": "element", "ambient": amb,
                           "text": _corrupt(rng, text)})
    rng = random.Random(8)
    inputs += [{"kind": "word", "text": _flat_text(rng)} for _ in range(300)]
    return inputs


def _parse_line(entry) -> dict:
    try:
        if entry["kind"] == "word":
            return dict(entry, letters=parse_word(entry["text"], GAMMA).letters)
        ambient = PARSE_RING if entry["ambient"] == "ring" else PARSE_MODULE
        return dict(entry, render=parse_element(entry["text"], ambient).render())
    except Exception as exc:  # the golden file pins every failure mode
        return dict(entry, error=type(exc).__name__, message=str(exc))


PARSE_ENTRIES = _load(PARSE) if os.path.exists(PARSE) else []


def _parse_key(entry) -> dict:
    return {k: entry[k] for k in ("kind", "ambient", "text") if k in entry}


def test_parse_inputs_unchanged():
    assert [_parse_key(e) for e in PARSE_ENTRIES] == _parse_inputs()


def test_parse_byte_identical():
    lines = [(json.dumps(_parse_line(_parse_key(e)), sort_keys=True),
              json.dumps(e, sort_keys=True)) for e in PARSE_ENTRIES]
    assert [got for got, want in lines if got != want] == []


def _check_provenance(basis):
    """Where the basis records ``provenance`` (each generator as a combination
    of ``origin``), check it.  The engine records none now; the differential
    tests check from outside that the basis does not over-generate."""
    for gen, combo in zip(basis.generators, getattr(basis, "provenance", ())):
        total = ModuleElement.zero(gen.ambient)
        for lam, f in zip(combo, basis.origin):
            total = total + f.mul_ring(lam)
        assert total == gen


def _rewrite():
    """Re-render the certificates of the words already in the golden file,
    the Groebner bases of ``_groebner_inputs``, the ledgers of
    ``_ledger_inputs``, ``_grid_inputs`` and ``_law_inputs`` and the parses of
    ``_parse_inputs``."""
    lines = []
    for entry in _load():
        _, cert = _solve(entry)
        entry["certificate"] = json.dumps(cert.to_json(), sort_keys=True)
        lines.append(json.dumps(entry, sort_keys=True))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    lines = []
    for entry in _groebner_inputs():
        basis = _basis(entry)
        _check_provenance(basis)
        entry["basis"] = json.dumps(basis.to_json(), sort_keys=True)
        lines.append(json.dumps(entry, sort_keys=True))
    with open(GROEBNER, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    lines = [json.dumps(_ledger_line(entry), sort_keys=True)
             for entry in _ledger_inputs()]
    with open(LEDGER, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    lines = [json.dumps(_ledger_line(entry), sort_keys=True)
             for entry in _grid_inputs()]
    with open(GRIDS, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    lines = [json.dumps(_ledger_line(entry), sort_keys=True)
             for entry in _law_inputs()]
    with open(LAWS, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    lines = [json.dumps(_parse_line(entry), sort_keys=True)
             for entry in _parse_inputs()]
    with open(PARSE, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    _rewrite()
