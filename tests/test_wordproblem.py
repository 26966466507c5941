"""Identity decisions, certificates, the oracle, and the growth profile."""

import itertools
import json
import random
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import (BS2, FREE_ABELIAN, GAMMA, LAMPLIGHTER2, WF11,
                      random_element, random_kernel_word, reference_division,
                      render_ordered_word)
from metabelian.bounds import _decimal
from metabelian.collection import CostLedger
from metabelian.elements import Ambient, parse_element
from metabelian.errors import BudgetExceeded
from metabelian.groebner import (certificate_bound, divide_with_certificate,
                                 scope)
from metabelian.presentation import (GroupWord, Presentation,
                                     parse_presentation, parse_word)
from metabelian.presets import PRESET_NAMES, PresetSpec, build, witness_family
from metabelian.wordproblem import (AreaCertificate, _monomial_pool,
                                    brute_force_min_certificate, dehn_profile,
                                    fit_exp, fit_power, is_identity,
                                    module_context, module_dehn_upper,
                                    random_identity_word)


_WF12 = build(PresetSpec("wf", k=2))


class TestIsIdentity:
    def test_bs_defining_relation(self):
        ok, cert = is_identity(parse_word("t*a*t^-1*a^-2", BS2), BS2)
        assert ok and cert.membership.residue.is_zero()

    def test_nontrivial_projection(self):
        ok, cert = is_identity(parse_word("a*t", BS2), BS2)
        assert not ok and cert.membership is None

    def test_lamplighter(self):
        assert is_identity(parse_word("a^2", LAMPLIGHTER2), LAMPLIGHTER2)[0]
        assert is_identity(parse_word("[a, a^t]", LAMPLIGHTER2),
                           LAMPLIGHTER2)[0]

    @pytest.mark.parametrize("p, word, verdict", [
        (BS2, "t*a*t^-1*a^-2", True), (BS2, "a", False), (BS2, "a*t", None),
        (WF11, "[u1^3, t1^2]", True), (WF11, "[u1^3, t1^2]*t1", None),
        (LAMPLIGHTER2, "[a, a^t]", True),
        (LAMPLIGHTER2, "t^2*a*t^-1*a*t^-1*a", False),
        (GAMMA, "(s*t*a)^40", None), (_WF12, "(t1*t2*a1)^40", None)])
    def test_scan_decides_the_kernel(self, monkeypatch, p, word, verdict):
        """No request sums exponents apart from the collection scan: with
        ``exponent_sums`` made to raise, kernel words are decided, and a
        word off the kernel (verdict None) gets the empty certificate with
        no conjugator priced."""
        from metabelian import collection, presentation, wordproblem

        def refuse(*args):
            raise AssertionError("exponent_sums called")
        for module in (presentation, collection, wordproblem):
            monkeypatch.setattr(module, "exponent_sums", refuse, raising=False)
        if verdict is None:
            def unpriced(*args):
                raise AssertionError("a conjugator priced off the kernel")
            monkeypatch.setattr(collection, "_price_conjugator", unpriced)
        w = parse_word(word, p)
        ok, cert = is_identity(w, p)
        assert ok is bool(verdict)
        if verdict is None:
            assert cert == AreaCertificate(w.length, False, None, CostLedger(),
                                           None, None, None)
        else:
            assert cert.membership.residue.is_zero() is verdict

    def test_non_member(self):
        ok, cert = is_identity(parse_word("a", BS2), BS2)
        assert not ok and not cert.membership.residue.is_zero()

    def test_identity_iff_zero_residue(self):
        rng = random.Random(0)
        for p in (BS2, GAMMA, LAMPLIGHTER2):
            for _ in range(100):
                w = random_kernel_word(p, rng, rng.randrange(0, 7))
                ok, cert = is_identity(w, p)
                assert ok == cert.membership.residue.is_zero()


class TestAreaCertificate:
    def test_witness_sizes(self):
        fam = witness_family(PresetSpec("bs", n=2))
        for n in range(1, 11):
            ok, cert = is_identity(fam(n)[0], BS2)
            assert ok and cert.membership.size == 2 ** n - 1

    def test_zero_vector_zero_size(self):
        ok, cert = is_identity(parse_word("[a, a^t]", BS2), BS2)
        assert ok and cert.membership.size == 0

    def test_witnessed_below_assembly_bound(self):
        rng = random.Random(1)
        for _ in range(60):
            w = random_kernel_word(BS2, rng, rng.randrange(0, 10))
            ok, cert = is_identity(w, BS2)
            if ok:
                assert cert.witnessed_cost <= cert.assembly_bound


class TestRelativeArea:
    def test_commutation_price_instance(self):
        ok, cert = is_identity(parse_word("[a, b^(t^5)]", GAMMA), GAMMA)
        assert ok and cert.ledger.rel_r2_merge == 4 * 5 - 3

    def test_conjugate_price_instance(self):
        w = parse_word("a^(t^3) * (a^-1)^(t^3)", BS2)
        ok, cert = is_identity(w, BS2)
        assert ok and cert.witnessed_relative <= 4 * 9 + 2 * 3

    def test_bs_relator_small(self):
        ok, cert = is_identity(parse_word("t*a*t^-1*a^-2", BS2), BS2)
        assert ok and cert.witnessed_relative <= 4

    def test_relative_below_assembly_bound(self):
        rng = random.Random(2)
        for _ in range(60):
            w = random_kernel_word(BS2, rng, rng.randrange(0, 8))
            ok, cert = is_identity(w, BS2)
            if ok:
                assert cert.ledger.relative_total <= cert.assembly_bound


# Python's default int-to-str limit is 4,300 digits: N = 10^4300 - 1
# converts and 2N does not, and M^2 for M = 10^2500 - 1 has 5,000 digits
_N, _M = "9" * 4300, "9" * 2500


def _rendered(doc: dict) -> dict:
    """``doc`` written as the CLI writes it, and read back."""
    return json.loads(json.dumps(doc, indent=2, sort_keys=True))


class TestPastTheDigitLimit:
    """A certificate integer longer than ``str`` converts is written as its
    decimal string; a shorter one stays a JSON number."""

    def test_coefficient(self):
        w = parse_word(f"a^{_N}*a^{_N}", BS2)
        doc = _rendered(is_identity(w, BS2)[1].to_json())
        two_n = _decimal(2 * int(_N))
        assert doc["ordered_form"] == f"{two_n}*a"
        assert doc["word_length"] == two_n
        assert doc["witnessed_cost"] == 0

    def test_exponent(self):
        w = parse_word(f"t^{_N}*t^{_N}*a*t^-{_N}*t^-{_N}", BS2)
        doc = _rendered(is_identity(w, BS2)[1].to_json())
        assert doc["ordered_form"] == f"t^-{_decimal(2 * int(_N))}*a"
        assert doc["word_length"] == _decimal(4 * int(_N) + 1)

    def test_ledger_total(self):
        cert = is_identity(parse_word(f"a1^(t2^{_M}*t1)", _WF12), _WF12)[1]
        doc = _rendered(cert.to_json())
        assert doc["ledger"]["relative_total"] == \
            _decimal(cert.ledger.relative_total)
        assert doc["ledger"]["r2_commutations"] == int(_M)
        assert doc["witnessed_cost"] == cert.witnessed_cost


class TestOracle:
    def test_hand_example(self):
        amb = BS2.module_ambient()
        g = parse_element("(t^2 - 4)*a", amb)
        gen = parse_element("(t - 2)*a", amb)
        assert brute_force_min_certificate(g, [gen], (3, 4, 6)) == 3

    def test_generator_itself(self):
        amb = BS2.module_ambient()
        gen = parse_element("(t - 2)*a", amb)
        assert brute_force_min_certificate(gen, [gen], (1, 2, 3)) == 1

    def test_parity_inconclusive(self):
        amb = BS2.module_ambient()
        g = parse_element("a", amb)
        gen = parse_element("2*a", amb)
        assert brute_force_min_certificate(g, [gen], (2, 3, 5)) is None

    @pytest.mark.parametrize("budget", [(-1, 2, 3), (1, -1, 3), (1, 2, -1)])
    def test_negative_budget_refused(self, budget):
        amb = BS2.module_ambient()
        with pytest.raises(ValueError, match="non-negative"):
            brute_force_min_certificate(parse_element("a", amb),
                                        [parse_element("2*a", amb)], budget)

    @pytest.mark.parametrize("ambient", [
        Ambient(("t", "s", "u"), (0, 3, 0), 1, None),
        Ambient(("s", "t"), (2, 0), 1, ("a",)),
        Ambient((), (), 1, None),
    ])
    def test_monomial_pool(self, ambient):
        """The pool is the sorted degree-<= D part of the box of exponent
        vectors, torsion coordinates taken in [0, order)."""
        for D in range(5):
            box = itertools.product(*[range(d) if d else range(-D, D + 1)
                                      for d in ambient.torsion])
            expected = sorted(e for e in box if sum(map(abs, e)) <= D)
            assert _monomial_pool(ambient, D) == expected

    def test_zero_needs_nothing(self):
        amb = BS2.module_ambient()
        zero = parse_element("0", amb)
        gen = parse_element("2*a", amb)
        assert brute_force_min_certificate(zero, [gen], (1, 1, 2)) == 0

    def test_agreement_with_basis(self):
        from metabelian.wordproblem import module_context
        rng = random.Random(3)
        ctx = module_context(BS2)
        gens = list(ctx.relator_vectors)
        amb = BS2.module_ambient()
        for _ in range(60):
            g = random_element(rng, amb, max_degree=1, max_coeff=2)
            found = brute_force_min_certificate(g, gens, (1, 2, 3))
            if found is not None:
                from metabelian.groebner import normal_form
                assert normal_form(ctx.embed(g), ctx.basis).is_zero()

    def test_size_at_most_division(self):
        """Oracle minimum <= division size, equality on most tiny cases."""
        from metabelian.groebner import divide_with_certificate
        from metabelian.wordproblem import module_context
        rng = random.Random(4)
        equal = total = 0
        for p in (BS2, LAMPLIGHTER2):
            ctx = module_context(p)
            gens = [v for v in ctx.relator_vectors if not v.is_zero()]
            amb = p.module_ambient()
            ring = amb.ring()
            while total < 40 * (1 + (p is BS2)):
                lam = random_element(rng, ring, max_degree=1, max_coeff=2,
                                     max_terms=2)
                g = gens[0].mul_ring(lam)
                if g.is_zero() or g.length > 8:
                    continue
                cert = divide_with_certificate(ctx.embed(g), ctx.basis)
                minimal = brute_force_min_certificate(g, gens, (2, 4, 7))
                if minimal is None:
                    continue
                assert cert.size >= minimal
                equal += cert.size == minimal
                total += 1
        assert equal >= 0.9 * total


class TestModuleDehn:
    def test_bs_generator(self):
        from metabelian.groebner import divide_with_certificate
        from metabelian.wordproblem import module_context
        ctx = module_context(BS2)
        gen = ctx.relator_vectors[0]
        cert = divide_with_certificate(ctx.embed(gen), ctx.basis)
        assert cert.size == 1

    def test_table_shape(self):
        rows = module_dehn_upper(BS2, 5)
        assert rows and all(norm <= 5 for norm, _ in rows)
        assert (5, 1) in rows  # the relator vector itself

    def test_lamplighter_matches_oracle(self):
        from metabelian.wordproblem import module_context
        ctx = module_context(LAMPLIGHTER2)
        gens = [v for v in ctx.relator_vectors if not v.is_zero()]
        rows = module_dehn_upper(LAMPLIGHTER2, 4)
        assert rows == [(2, 1), (4, 2)]
        from metabelian.groebner import divide_with_certificate
        # every sampled norm's witness is certified at the oracle minimum
        amb = LAMPLIGHTER2.module_ambient()
        for c in (2, 4):
            f = parse_element(f"{c}*a", amb)
            cert = divide_with_certificate(ctx.embed(f), ctx.basis)
            assert cert.size == brute_force_min_certificate(f, gens, (2, 4, 6))

    @pytest.mark.parametrize("spec, n, options, rows", [
        (PresetSpec("bs", n=2), 8, {}, [(5, 1), (7, 1)]),
        (PresetSpec("lamplighter"), 6, {}, [(2, 1), (4, 2), (6, 3)]),
        (PresetSpec("zwrz"), 5, {}, []),
        (PresetSpec("free_abelian"), 5, {},
         [(1, 1), (2, 2), (3, 3), (4, 4), (5, 3)]),
        (PresetSpec("baumslag_gamma"), 4, {}, [(1, 1), (2, 2), (3, 3), (4, 4)]),
        (PresetSpec("wf"), 4, {}, [(1, 1), (2, 2), (3, 3), (4, 4)]),
        (PresetSpec("wf", k=2), 3, {}, [(1, 1), (2, 2), (3, 3)]),
        (PresetSpec("bs", n=2), 9,
         {"sampler": "random", "samples": 300, "seed": 3}, [(5, 1), (7, 1)]),
        (PresetSpec("wf"), 7, {"sampler": "random", "seed": 1},
         [(1, 1), (2, 2), (3, 1), (5, 1), (6, 2), (7, 1)]),
    ], ids=["bs2-8", "lamplighter-6", "zwrz-5", "free_abelian-5", "gamma-4",
            "wf-4", "wf-k2-3", "bs2-9-random", "wf-7-random"])
    def test_pinned_tables(self, spec, n, options, rows):
        assert module_dehn_upper(build(spec), n, **options) == rows


class TestWfFalsity:
    def test_pure_t_elements_rejected(self):
        rng = random.Random(5)
        rejected = 0
        for spec in (PresetSpec("wf", r=1, k=1),
                     PresetSpec("wf", r=2, k=1),
                     PresetSpec("wf", r=1, k=2)):
            p = build(spec)
            amb = p.module_ambient()
            t_positions = [i for i, n in enumerate(p.t_names)
                           if n.startswith("t")]
            a_indices = [i + 1 for i, n in enumerate(p.module_gens)
                         if n != "z"]
            count = 0
            while count < 34:
                raw = {}
                for _ in range(rng.randrange(1, 3)):
                    exps = [0] * len(p.t_names)
                    for pos in t_positions:
                        exps[pos] = rng.randint(-1, 1)
                    basis = rng.choice(a_indices)
                    c = rng.choice([-2, -1, 1, 2])
                    key = (tuple(exps), basis)
                    raw[key] = raw.get(key, 0) + c
                from metabelian.elements import ModuleElement
                h = ModuleElement.from_dict(amb, raw)
                if h.is_zero():
                    continue
                count += 1
                rejected += 1
                w = render_ordered_word(h, p)
                ok, _ = is_identity(w, p)
                assert not ok, f"pure-T element {h.render()} wrongly trivial"
        assert rejected >= 100


class TestDehnProfile:
    @pytest.mark.parametrize("p", [BS2, LAMPLIGHTER2, build(PresetSpec("zwrz")),
                                   WF11], ids=["bs", "lamplighter", "zwrz", "wf"])
    def test_sampled_words_nonempty_identities(self, p):
        rng = random.Random(0)
        for _ in range(200):
            w = random_identity_word(p, 8, rng)
            assert w.length > 0 and is_identity(w, p)[0]

    @pytest.mark.parametrize("doc", [
        {"module_generators": ["a"], "free_generators": ["t"], "relators": []},
        {"module_generators": ["a"], "free_generators": [], "relators": ["a^3"]},
    ], ids=["no-relators", "no-t-generators"])
    def test_degenerate_presentations(self, doc):
        p = parse_presentation(json.dumps(doc))
        rows = dehn_profile(p, 4, samples=3, seed=0)
        assert [r[0] for r in rows] == [2, 3, 4]

    def test_bs_witness_column(self):
        fam = witness_family(PresetSpec("bs", n=2))
        rows = dehn_profile(BS2, 8, samples=3, seed=0, witnesses=fam)
        sizes = [size for _, _, size, _ in rows]
        assert sizes == [2 ** n - 1 for n in range(2, 9)]
        assert fit_exp(range(2, 9), sizes) > 0.5

    def test_free_abelian_polynomial(self):
        fam = witness_family(PresetSpec("free_abelian"))
        rows = dehn_profile(FREE_ABELIAN, 8, samples=8, seed=1, witnesses=fam)
        ns = [r[0] for r in rows]
        sizes = [r[2] for r in rows]
        assert sizes == [n ** 2 for n in ns]
        assert fit_power(ns, sizes) <= 2.49
        assert fit_exp(ns, sizes) <= 0.5

    def test_wf_exponential(self):
        fam = witness_family(PresetSpec("wf", r=1, k=1))
        rows = dehn_profile(WF11, 8, samples=2, seed=2, witnesses=fam)
        sizes = [r[2] for r in rows]
        assert sizes == [2 ** n - 1 for n in range(2, 9)]
        assert fit_exp([r[0] for r in rows], sizes) > 0.5

    def test_deterministic(self):
        r1 = dehn_profile(BS2, 5, samples=4, seed=9)
        r2 = dehn_profile(BS2, 5, samples=4, seed=9)
        assert r1 == r2


def test_context_cache_keeps_the_64_most_recent():
    module_context.cache_clear()
    ps = [build(PresetSpec("bs", n=n)) for n in range(2, 67)]
    first = [module_context(p) for p in ps[:64]]
    assert module_context.cache_info().currsize == 64
    again = build(PresetSpec("bs", n=2))      # equal to ps[0], not the same
    assert again is not ps[0]
    released = weakref.ref(again)
    assert module_context(again) is first[0]   # a hit: ps[1] is now oldest
    assert module_context.cache_info().hits == 1
    del again
    assert released() is None                  # the first key is kept
    module_context(ps[64])
    assert module_context.cache_info().currsize == 64
    assert module_context(ps[0]) is first[0]
    assert module_context(ps[64]) is module_context(ps[64])
    assert module_context.cache_info().hits == 4
    rebuilt = module_context(ps[1])            # ps[1] went, ps[2] is oldest
    assert rebuilt is not first[1] and rebuilt.basis == first[1].basis
    assert module_context.cache_info().misses == 66
    assert module_context(ps[3]) is first[3]
    assert module_context(ps[2]) is not first[2]


def test_certificate_sorts_only_what_it_renders(monkeypatch):
    """On a warm context, deciding a Z^2 commutator sorts no list as long
    as its vector, which reaches the division unsorted; rendering the
    certificate sorts the ordered form's terms, its basis index list and
    its one alpha's terms.  Every ``sorted`` call of the library's modules
    is counted."""
    import metabelian
    w = parse_word("[t1^12, t2^12]", FREE_ABELIAN)
    json.dumps(is_identity(w, FREE_ABELIAN)[1].to_json())
    sorts = []

    def counted(iterable, **kwargs):
        out = sorted(iterable, **kwargs)
        sorts.append(len(out))
        return out

    for name in ("bounds", "collection", "elements", "groebner",
                 "presentation", "wordproblem"):
        monkeypatch.setattr(getattr(metabelian, name), "sorted", counted,
                            raising=False)
    ok, cert = is_identity(w, FREE_ABELIAN)
    terms = len(cert.ordered.as_dict())
    assert ok and terms == 144
    assert max(sorts, default=0) < terms
    sorts.clear()
    text = json.dumps(cert.to_json())
    assert '"identity": true' in text
    assert sorts == [terms, 1, terms]


def _t_word(draw, names):
    """A word of up to three t-letters."""
    return GroupWord.from_letters(
        [(draw(st.sampled_from(names)), draw(st.sampled_from((-1, 1))))
         for _ in range(draw(st.integers(0, 3)))])


@st.composite
def module_presentations(draw):
    """One or two free letters, in some a torsion letter of order 2 or 3;
    a commutator-table letter for each pair of t-letters and one or two
    module letters besides; one or two relators, each a product of two or
    three conjugated module letters, so that a relator's vector mixes
    basis vectors."""
    free = ("t1", "t2")[:draw(st.integers(1, 2))]
    torsion = (("u", draw(st.sampled_from((2, 3)))),) if draw(st.booleans()) else ()
    names = free + tuple(n for n, _ in torsion)
    table = tuple(((s, t), f"c{s}{t}")
                  for i, s in enumerate(names) for t in names[i + 1:])
    module = tuple(c for _, c in table) + ("a1", "a2")[:draw(st.integers(1, 2))]

    def relator():
        w = GroupWord(())
        for _ in range(draw(st.integers(2, 3))):
            letter = GroupWord(((draw(st.sampled_from(module)),
                                 draw(st.sampled_from((-1, 1)))),))
            w = w * letter.conjugate_by(_t_word(draw, names))
        return w

    return Presentation(module_gens=module, free_gens=free, torsion_gens=torsion,
                        relators=tuple(relator() for _ in range(draw(st.integers(1, 2)))),
                        commutator_table=table)


@st.composite
def relator_moves(draw, p):
    """``p`` with its relators moved by Tietze moves that keep their normal
    closure: shuffled, each conjugated by a t-word and maybe inverted, one
    multiplied by a conjugate of another, and a consequence added."""
    names = p.t_names

    def conjugate(w):
        w = w.conjugate_by(_t_word(draw, names))
        return w.inverse() if draw(st.booleans()) else w

    relators = [conjugate(r) for r in draw(st.permutations(p.relators))]
    if len(relators) > 1:
        i, j = draw(st.permutations(range(len(relators))))[:2]
        relators[i] = relators[i] * conjugate(relators[j])
    consequence = GroupWord(())
    for _ in range(draw(st.integers(1, 2))):
        consequence = consequence * conjugate(draw(st.sampled_from(relators)))
    relators.insert(draw(st.integers(0, len(relators))), consequence)
    return replace(p, relators=tuple(relators))


def test_relator_moves_keep_verdicts():
    """A presentation and its relators moved by Tietze moves present one
    group, so every random kernel word gets one verdict over both; both
    verdicts occur."""
    verdicts = Counter()

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def check(data):
        p = data.draw(module_presentations())
        moved = data.draw(relator_moves(p))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        for _ in range(6):
            w = random_kernel_word(p, rng, rng.randrange(0, 12))
            identity = is_identity(w, p)[0]
            assert is_identity(w, moved)[0] == identity, (p, moved, w)
            verdicts[identity] += 1

    check()
    assert verdicts[True] and verdicts[False], verdicts


# Every preset, torsion wf included: free_abelian, baumslag_gamma and wf
# bases kill a basis vector outright, the others kill none.
_EVERY_PRESET = [build(PresetSpec(name)) for name in PRESET_NAMES] + [
    build(PresetSpec("wf", r=2, k=2, torsion_orders=(3,)))]


def test_division_walk_matches_the_reference():
    """One pass over the embedded vector splits off the killed terms, charges
    their steps and reads the bound's length and degree: over random kernel
    words, the certificate's size is its alphas' length, its bound is
    ``certificate_bound`` of the embedded vector, its residue, alphas and
    steps are the ``_reduce_step`` loop's, and with killed terms a scope of
    exactly ``steps`` steps is enough and one less is not.  Bases with and
    without a killed vector both occur."""
    seen = Counter()

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.sampled_from(_EVERY_PRESET) | module_presentations())
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        w = random_kernel_word(p, rng, rng.randrange(0, 10))
        cert = is_identity(w, p)[1]
        ctx = module_context(p)
        g, m = ctx.embed(cert.ordered), cert.membership
        assert m.size == sum(a.length for a in m.coefficients)
        assert m.bound == certificate_bound(g, ctx.basis)
        residue, alphas, steps = reference_division(g, ctx.basis.generators,
                                                    10 ** 6)
        assert (m.residue, list(m.coefficients), m.steps) == (residue, alphas, steps)
        killed = sum(b in ctx.basis._killed for _, b in g.as_dict())
        if killed:
            with scope(m.steps):
                assert divide_with_certificate(g, ctx.basis) == m
            with pytest.raises(BudgetExceeded,
                               match="division exceeded its step budget"):
                with scope(m.steps - 1):
                    divide_with_certificate(g, ctx.basis)
        seen[bool(ctx.basis._killed), bool(killed)] += 1

    check()
    assert seen[True, True] and seen[False, False], seen
