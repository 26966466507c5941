"""Acceptance criteria, one test per criterion, each printing a verdict line."""

import random
from contextlib import contextmanager

from _helpers import (BS2, FREE_ABELIAN, GAMMA, LAMPLIGHTER2, WF11,
                      random_element, random_kernel_word, render_ordered_word,
                      term_key, terms)
from metabelian.collection import ordered_form
from metabelian.elements import Ambient, ModuleElement, parse_element
from metabelian.groebner import (buchberger_strong, divide_with_certificate,
                                 laurent_embed)
from metabelian.presentation import GroupWord
from metabelian.presets import PresetSpec, build, norm_growth, witness_family
from metabelian.wordproblem import (brute_force_min_certificate, constant_k,
                                    dehn_profile, fit_exp, fit_power,
                                    is_identity)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_01_order_fixtures():
    with criterion(1, "order fixtures"):
        amb = Ambient(("x1", "x2", "x3", "x4"), (0,) * 4, 3,
                      ("e1", "e2", "e3"), laurent=False)
        # 7 x1^2 x2 e2 < 5 x1^3 e1
        assert term_key(((2, 1, 0, 0), 2), 7) < term_key(((3, 0, 0, 0), 1), 5)
        # 3 x1^3 x2^5 e2 < 3 x1^3 x3^6 e2
        assert term_key(((3, 5, 0, 0), 2), 3) < term_key(((3, 0, 6, 0), 2), 3)
        # 2 x1^5 x3^2 e3 < 4 x1^5 x3^2 e3
        assert term_key(((5, 0, 2, 0), 3), 2) < term_key(((5, 0, 2, 0), 3), 4)
        # leading monomials
        g = ModuleElement.from_dict(amb, {((7, 0, 0, 0), 1): 1,
                                          ((3, 4, 0, 0), 2): 3})
        assert terms(g)[0][0] == ((7, 0, 0, 0), 1)
        h = ModuleElement.from_dict(amb, {
            ((0, 3, 0, 0), 1): 1, ((0, 5, 2, 0), 2): 1,
            ((0, 3, 0, 5), 2): 1, ((0, 5, 2, 0), 3): 1})
        assert terms(h)[0][0] == ((0, 3, 0, 5), 2)


def test_criterion_02_oracle_equivalence():
    with criterion(2, "oracle equivalence"):
        rng = random.Random(20)
        for k in (1, 2):
            for m in (1, 2):
                for l in (1, 2, 3):
                    amb = Ambient(tuple(f"t{i+1}" for i in range(k)),
                                  (0,) * k, m,
                                  tuple(f"a{i+1}" for i in range(m)),
                                  laurent=True)
                    gens = []
                    while len(gens) < l:
                        g = random_element(rng, amb, max_degree=2,
                                           max_coeff=3, max_terms=3)
                        if not g.is_zero():
                            gens.append(g)
                    _, emb, embed = laurent_embed(gens, amb)
                    gb = buchberger_strong(emb)
                    ring = amb.ring()
                    for _ in range(100):
                        # engineered member
                        g = ModuleElement.zero(amb)
                        for f in gens:
                            lam = random_element(rng, ring, max_degree=1,
                                                 max_coeff=2, max_terms=2)
                            g = g + f.mul_ring(lam)
                        cert = divide_with_certificate(embed(g), gb)
                        assert cert.residue.is_zero(), "member rejected"
                        found = brute_force_min_certificate(g, gens, (1, 2, 3))
                        if found is not None:
                            assert cert.residue.is_zero()
                    for _ in range(100):
                        # arbitrary probe
                        h = random_element(rng, amb, max_degree=2,
                                           max_coeff=3, max_terms=3)
                        cert = divide_with_certificate(embed(h), gb)
                        member = cert.residue.is_zero()
                        if member:
                            total = cert.residue
                            for alpha, f in zip(cert.coefficients,
                                                gb.generators):
                                total = total + f.mul_ring(alpha)
                            assert total == embed(h), "bad certificate"
                        found = brute_force_min_certificate(h, gens, (1, 1, 2))
                        if found is not None:
                            assert member, "oracle found, basis rejected"


def test_criterion_03_certificate_soundness():
    with criterion(3, "certificate soundness"):
        rng = random.Random(30)
        amb = Ambient(("x", "y"), (0, 0), 2, ("e1", "e2"), laurent=False)
        checked = 0
        while checked < 1000:
            gens = [g for g in (random_element(rng, amb) for _ in range(3))
                    if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger_strong(gens)
            for _ in range(50):
                g = random_element(rng, amb, max_degree=3, max_coeff=6,
                                   max_terms=4)
                cert = divide_with_certificate(g, gb)
                total = cert.residue
                for alpha, f in zip(cert.coefficients, gb.generators):
                    prod = f.mul_ring(alpha)
                    assert prod.is_zero() or prod.degree <= g.degree
                    total = total + prod
                assert total == g
                assert cert.size <= cert.bound
                checked += 1


def test_criterion_04_collection_homomorphism():
    with criterion(4, "collection homomorphism"):
        rng = random.Random(40)
        for p in (BS2, GAMMA, LAMPLIGHTER2):
            shift = tuple(1 if i == 0 else 0 for i in range(len(p.t_names)))
            t0 = GroupWord(((p.t_names[0], 1),))
            for _ in range(200):
                w1 = random_kernel_word(p, rng, rng.randrange(0, 8))
                w2 = random_kernel_word(p, rng, rng.randrange(0, 8))
                v1, _ = ordered_form(w1, p)
                v2, _ = ordered_form(w2, p)
                v12, _ = ordered_form(w1 * w2, p)
                assert v12 == v1 + v2
                vc, _ = ordered_form(w1.conjugate_by(t0), p)
                assert vc == v1.scale_translate(1, shift)


def test_criterion_05_bs_witness_family():
    with criterion(5, "bs witness family"):
        fam = witness_family(PresetSpec("bs", n=2))
        for n in range(1, 11):
            w = fam(n)[0]
            ok, cert = is_identity(w, BS2)
            assert ok
            assert cert.membership.size == 2 ** n - 1


def test_criterion_06_relative_pricing():
    with criterion(6, "relative pricing"):
        rng = random.Random(60)
        presets = (BS2, GAMMA, LAMPLIGHTER2, WF11)
        for p in presets:
            a = p.module_gens[0]
            b = p.module_gens[1] if len(p.module_gens) > 1 else a
            for trial in range(120):
                n = rng.randrange(1, 9)
                letters = [(rng.choice(p.t_names), rng.choice([-1, 1]))
                           for _ in range(n)]
                u = GroupWord.from_letters(letters)
                if u.length == 0:
                    continue
                w = GroupWord(((a, 1),))
                w = w.inverse() * GroupWord(((b, 1),)).conjugate_by(
                    u).inverse() * GroupWord(((a, 1),)) * GroupWord(
                        ((b, 1),)).conjugate_by(u)
                ok, cert = is_identity(w, p)
                assert ok
                assert cert.ledger.rel_r2_merge <= max(1, 4 * u.length - 3)
                _, delta = ordered_form(GroupWord(((a, 1),)).conjugate_by(u), p)
                measured = (delta.r1_commutators + delta.module_relations
                            + delta.rel_r2_normalize)
                assert measured <= 4 * u.length ** 2 + 2 * u.length


def test_criterion_07_ledger_vs_closed_forms():
    with criterion(7, "ledger vs closed forms"):
        K = constant_k(BS2)
        assert K is not None
        rng = random.Random(70)
        for preset_n in (2, 3):
            p = build(PresetSpec("bs", n=preset_n))
            Kp = constant_k(p)
            for _ in range(200):
                w = random_kernel_word(p, rng, rng.randrange(0, 9))
                if w.length > 8:
                    continue
                _, ledger = ordered_form(w, p)
                n = max(1, w.length)
                chain = (n ** 2 + (n ** 2 + n) * (2 * Kp) ** n
                         + (n ** 2 + n) ** 2 * Kp ** (2 * n))
                assert ledger.absolute_total <= chain


def test_criterion_08_wf_properties():
    with criterion(8, "wf properties"):
        rng = random.Random(80)
        rejected = 0
        for spec in (PresetSpec("wf", r=1, k=1),
                     PresetSpec("wf", r=1, k=1, fs=((1, 2, 1),)),
                     PresetSpec("wf", r=2, k=1),
                     PresetSpec("wf", r=2, k=2),
                     PresetSpec("wf", r=1, k=2,
                                fs=((1, 1), (1, 2, 1)))):
            p = build(spec)
            amb = p.module_ambient()
            t_positions = [i for i, name in enumerate(p.t_names)
                           if name.startswith("t")]
            a_indices = [i + 1 for i, name in enumerate(p.module_gens)
                         if name != "z"]
            count = 0
            while count < 20:
                raw = {}
                for _ in range(rng.randrange(1, 3)):
                    exps = [0] * len(p.t_names)
                    for pos in t_positions:
                        exps[pos] = rng.randint(-1, 1)
                    key = (tuple(exps), rng.choice(a_indices))
                    raw[key] = raw.get(key, 0) + rng.choice([-2, -1, 1, 2])
                h = ModuleElement.from_dict(amb, raw)
                if h.is_zero():
                    continue
                ok, _ = is_identity(render_ordered_word(h, p), p)
                assert not ok, f"pure-T element {h.render()} wrongly trivial"
                count += 1
                rejected += 1
        assert rejected >= 100
        ring = Ambient(("t",), (0,), 1, None, laurent=True)
        norms, alpha = norm_growth(parse_element("1 + t", ring), 20)
        assert norms == [2 ** n for n in range(1, 21)]
        assert 1.95 <= alpha <= 2.05


def test_criterion_09_constants():
    with criterion(9, "constants"):
        from metabelian.geometry import presentation_constants
        report = presentation_constants(BS2)
        assert report.C == 1.0 and report.D == 1.0 and report.r0 == 0.5
        assert report.method == "exact"
        assert report.R is None  # 4kC - 4 = 0 diagnostic
        doc = report.to_json()
        assert doc["R"] == "undefined"


def test_criterion_10_profile_dichotomy():
    with criterion(10, "profile dichotomy"):
        rows = dehn_profile(FREE_ABELIAN, 8, samples=8, seed=10,
                            witnesses=witness_family(
                                PresetSpec("free_abelian")))
        ns = [r[0] for r in rows]
        sizes = [r[2] for r in rows]
        assert fit_power(ns, sizes) <= 2.49  # polynomial, degree <= 2
        assert fit_exp(ns, sizes) <= 0.5
        bs_rows = dehn_profile(BS2, 8, samples=2, seed=10,
                               witnesses=witness_family(PresetSpec("bs", n=2)))
        assert fit_exp([r[0] for r in bs_rows],
                       [r[2] for r in bs_rows]) > 0.5
        wf_rows = dehn_profile(WF11, 8, samples=2, seed=10,
                               witnesses=witness_family(
                                   PresetSpec("wf", r=1, k=1)))
        assert fit_exp([r[0] for r in wf_rows],
                       [r[2] for r in wf_rows]) > 0.5
