"""Reduction, strong basis construction, division certificates, embedding."""

import json
import math
import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from _helpers import element_key, random_element, reference_division, terms
from metabelian import groebner
from metabelian.collection import relator_module
from metabelian.elements import Ambient, ModuleElement, parse_element
from metabelian.errors import AmbientMismatch, BudgetExceeded
from metabelian.groebner import (GroebnerBasis, _Budget, buchberger_strong,
                                 certificate_bound, divide_with_certificate,
                                 _reduce, _reduce_step, _runs, _strong, _table,
                                 growth_function, laurent_embed, normal_form,
                                 scope, verify_certificate)
from metabelian.order import monomial_key
from metabelian.presentation import parse_presentation, parse_word
from metabelian.presets import PresetSpec, build
from metabelian.wordproblem import (brute_force_min_certificate, is_identity,
                                    module_context)

POLY1 = Ambient(("x",), (0,), 1, ("e1",), laurent=False)
LAUR1 = Ambient(("t",), (0,), 1, ("a",), laurent=True)


def const(c, amb=POLY1, basis=1):
    return ModuleElement.from_dict(amb, {((0,) * amb.nvars, basis): c})


def reconstructed(g, cert, basis):
    total = cert.residue
    for alpha, f in zip(cert.coefficients, basis.generators):
        total = total + f.mul_ring(alpha)
    return total == g


class TestReduceStep:
    def test_remainder(self):
        h, idx, quot = _reduce_step(const(5), [const(2)])
        assert h == const(1) and quot == (2, (0,))

    def test_exact_cancellation(self):
        h, _, _ = _reduce_step(const(4), [const(2)])
        assert h.is_zero()

    def test_irreducible_by_larger_coefficient(self):
        assert _reduce_step(const(3), [const(5)]) is None

    def test_negative_coefficients_always_reducible(self):
        h, _, _ = _reduce_step(const(-3), [const(2)])
        assert h == const(1)

    def test_monotone(self):
        rng = random.Random(0)
        amb = Ambient(("x", "y"), (0, 0), 2, ("e1", "e2"), laurent=False)
        for _ in range(500):
            gens = [g for g in (random_element(rng, amb) for _ in range(3))
                    if not g.is_zero()]
            g = random_element(rng, amb, max_degree=3, max_coeff=5)
            if not gens or g.is_zero():
                continue
            out = _reduce_step(g, gens)
            if out is not None:
                assert element_key(out[0]) < element_key(g)


class TestNormalForm:
    def test_member_goes_to_zero(self):
        _, emb, embed = laurent_embed([parse_element("(t - 2)*a", LAUR1)], LAUR1)
        gb = buchberger_strong(emb)
        q = embed(parse_element("(t^2 - 4)*a", LAUR1))
        assert normal_form(q, gb).is_zero()

    def test_zero(self):
        gb = buchberger_strong([const(2)])
        assert normal_form(ModuleElement.zero(POLY1), gb).is_zero()

    def test_ring_case(self):
        gb = buchberger_strong([const(2), parse_element("x*e1", POLY1)])
        g = parse_element("x*e1 + e1", POLY1)
        assert normal_form(g, gb) == const(1)

    def test_idempotent(self):
        gb = buchberger_strong([const(2), parse_element("x*e1", POLY1)])
        rng = random.Random(1)
        for _ in range(200):
            g = random_element(rng, POLY1, max_degree=4, max_coeff=9)
            nf = normal_form(g, gb)
            assert normal_form(nf, gb) == nf


class TestBuchberger:
    def test_already_closed(self):
        x_e1 = parse_element("x*e1", POLY1)
        gb = buchberger_strong([const(2), x_e1])
        assert set(gb.generators) == {const(2), x_e1}

    def test_empty(self):
        gb = buchberger_strong([])
        assert len(gb) == 0
        g = const(7)
        assert normal_form(g, gb) == g

    def test_laurent_generator(self):
        _, emb, embed = laurent_embed([parse_element("(t - 2)*a", LAUR1)], LAUR1)
        gb = buchberger_strong(emb)
        leading = {terms(g)[0][0] for g in gb.generators}
        assert ((1, 0), 1) in leading  # t*a leads a basis element
        assert normal_form(embed(parse_element("(t^2 - 4)*a", LAUR1)), gb).is_zero()

    def test_rejects_negative_exponents(self):
        with pytest.raises(AmbientMismatch):
            buchberger_strong([parse_element("t^-1*a", LAUR1)])

    def test_rejects_every_laurent_ambient(self):
        """An element of a Laurent ambient is refused on its ambient, even
        with non-negative exponents: embed it first."""
        g = parse_element("(t - 2)*a", LAUR1)
        _, emb, _ = laurent_embed([g], LAUR1)
        with pytest.raises(AmbientMismatch):
            buchberger_strong([g])
        for run in (divide_with_certificate, normal_form):
            with pytest.raises(AmbientMismatch, match="different ambients"):
                run(g, buchberger_strong(emb))
            with pytest.raises(AmbientMismatch, match="embed its elements"):
                run(g, GroebnerBasis(LAUR1, (), ()))

    def test_positive_leading_coefficients(self):
        rng = random.Random(2)
        amb = Ambient(("x", "y"), (0, 0), 2, ("e1", "e2"), laurent=False)
        for _ in range(30):
            gens = [g for g in (random_element(rng, amb) for _ in range(3))
                    if not g.is_zero()]
            gb = buchberger_strong(gens)
            assert all(terms(g)[0][1] > 0 for g in gb.generators)


class TestProductCriterion:
    """Pairs skipped by Buchberger's product criterion lose nothing."""

    XY2 = Ambient(("x", "y"), (0, 0), 2, ("e1", "e2"), laurent=False)

    def test_generator_off_the_lead_basis_keeps_its_pair(self):
        # coprime leads x*e1 and y*e1 with unit coefficients, but x*e1 + e2
        # has a term on e2: its S-polynomial y*e2 reduces by neither
        f = parse_element("x*e1 + e2", self.XY2)
        g = parse_element("y*e1", self.XY2)
        gb = buchberger_strong([f, g])
        y_e2 = parse_element("y*e2", self.XY2)
        assert y_e2 in gb.generators
        assert normal_form(y_e2, gb).is_zero()


def _reduces_to_zero(g, gens, limit=10 ** 4):
    for _ in range(limit):
        out = _reduce_step(g, gens)
        if out is None:
            return g.is_zero()
        g = out[0]
    raise AssertionError("_reduce_step did not stop")


def _pair_polynomials(f, g):
    """The S-polynomial of two generators on one basis vector, and their
    gcd-polynomial when neither leading coefficient divides the other."""
    ((mf, _), cf), ((mg, _), cg) = (terms(h)[0] for h in (f, g))
    lcm = tuple(map(max, mf, mg))
    uf = tuple(a - b for a, b in zip(lcm, mf))
    ug = tuple(a - b for a, b in zip(lcm, mg))
    c = abs(cf * cg) // math.gcd(cf, cg)
    out = [f.scale_translate(c // cf, uf) - g.scale_translate(c // cg, ug)]
    d = math.gcd(cf, cg)
    if d not in (abs(cf), abs(cg)):
        a = next(a for a in range(abs(cg)) if (a * cf - d) % cg == 0)
        out.append(f.scale_translate(a, uf)
                   + g.scale_translate((d - a * cf) // cg, ug))
    return out


@st.composite
def generator_sets(draw):
    """Rank 1-3 over Z[x, y]: leading coefficients unit or not, leading
    monomials shared or coprime, terms on one basis vector or on several."""
    rank = draw(st.integers(1, 3))
    amb = Ambient(("x", "y"), (0, 0), rank,
                  tuple(f"e{b}" for b in range(1, rank + 1)), laurent=False)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        lead = draw(st.sampled_from([(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]))
        basis = draw(st.integers(1, rank))
        raw = {(lead, basis): draw(st.sampled_from([1, 1, -1, 2, 3, 6]))}
        for _ in range(draw(st.integers(0, 2))):
            exps = draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
            b = draw(st.sampled_from([basis, basis, draw(st.integers(1, rank))]))
            raw.setdefault((exps, b), draw(st.integers(-3, 3)))
        gens.append(ModuleElement.from_dict(amb, raw))
    return gens


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_strong_basis_checked_by_reduce_step(gens):
    gb = buchberger_strong(gens)
    basis = list(gb.generators)
    assert all(terms(f)[0][1] > 0 for f in basis)
    assert all(_reduces_to_zero(f, basis) for f in gens)
    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            if terms(f)[0][0][1] == terms(g)[0][0][1]:
                assert all(_reduces_to_zero(h, basis)
                           for h in _pair_polynomials(f, g))


def _on(f, ambient, vectors):
    """``f`` moved into ``ambient``, each term on ``e_b`` onto
    ``e_vectors[b]``."""
    return ModuleElement.from_dict(ambient, {
        (exps, vectors[b]): c for (exps, b), c in f.as_dict().items()})


def _joint(gens):
    """One ``_strong`` run over all of the nonzero ``gens``: its basis in
    their ambient, sorted by leading monomial, and the steps it took."""
    budget = _Budget(10 ** 6, "joint")
    found = _strong([f.as_dict() for f in gens if not f.is_zero()], budget)
    found.sort(key=lambda entry: monomial_key(entry[1]))
    amb = gens[0].ambient
    return [ModuleElement._of(amb, f) for f, _ in found], 10 ** 6 - budget.left


def _components(gens):
    """The basis vectors of each component of ``gens``: two generators with
    a term on one vector are in one component."""
    parts = []
    for f in gens:
        vectors = {b for _, b in f.as_dict()}
        for part in [part for part in parts if part & vectors]:
            parts.remove(part)
            vectors |= part
        parts.append(vectors)
    return parts


@st.composite
def copied_components(draw):
    """Generators on up to four basis vectors, each vector's set drawn from
    two templates over ``e1``, so that some vectors carry copies of one
    another, sometimes with one generator of their own added.  Some
    generators take terms on one or two other vectors too, and a generator
    drawn last may bridge the components of two vectors drawn before it."""
    rank = draw(st.integers(2, 4))
    amb = Ambient(("x", "y"), (0, 0), rank,
                  tuple(f"e{b}" for b in range(1, rank + 1)), laurent=False)
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]

    def generator(b=1, others=()):
        raw = {(draw(st.sampled_from(monomials)), b):
               draw(st.sampled_from([1, 1, -1, 2, 3, 6]))}
        for _ in range(draw(st.integers(0, 2))):
            raw.setdefault((draw(st.sampled_from(monomials[:3])), b),
                           draw(st.integers(-3, 3)))
        for other in others:
            raw.setdefault((draw(st.sampled_from(monomials)), other),
                           draw(st.integers(-3, 3)))
        return ModuleElement.from_dict(amb, raw)

    def spread(f, b):
        """``f`` on ``e_b``, sometimes with a term on one or two others."""
        others = draw(st.permutations([c for c in range(1, rank + 1) if c != b]))
        return _on(f, amb, {1: b}) + ModuleElement.from_dict(amb, {
            (draw(st.sampled_from(monomials)), c): draw(st.integers(-3, 3))
            for c in others[:draw(st.sampled_from([0, 0, 0, 1, 2]))]})

    templates = [[generator() for _ in range(draw(st.integers(1, 3)))]
                 for _ in range(2)]
    gens = []
    for b in draw(st.permutations(range(1, rank + 1))):
        own = templates[draw(st.integers(0, 1))]
        if draw(st.integers(0, 3)) == 0:
            own = own + [generator()]
        gens += [spread(f, b) for f in own]
    if draw(st.booleans()):
        gens = draw(st.permutations(gens))
    if draw(st.booleans()):
        b, c = draw(st.permutations(range(1, rank + 1)))[:2]
        gens.append(generator(b, (c,)))
    return amb, gens


XY3 = Ambient(("x", "y"), (0, 0), 3, ("e1", "e2", "e3"), laurent=False)


# the bridge x*e3 + 2*y*e2 joins the components of e2 and e3, whose
# generators interleave before it: in the input order the component takes
# the joint run's 10 steps, with e2's generators first 9
@example((XY3, [parse_element(text, XY3) for text in (
    "2*y^2*e2", "x*y*e3", "-y^2*e2 - 3*x*e2", "x*e3 + 2*y*e2", "x^2*e1",
    "x*y*e1 + 3*x*e1")]))
@settings(max_examples=150, deadline=None)
@given(copied_components())
def test_strong_basis_per_basis_vector(case):
    """A basis over several basis vectors, some carrying copies of others'
    generators and some generators spanning vectors, is the joint run's
    basis, charged the joint run's steps, and each component's own basis,
    computed on its vectors numbered from 1 and moved back.  Asked again,
    every component is a hit in the run table."""
    amb, gens = case
    gens = [f for f in gens if not f.is_zero()]
    joint, steps = _joint(gens)
    with scope(10 ** 6) as budget:
        gb = buchberger_strong(gens)
    assert list(gb.generators) == joint
    assert 10 ** 6 - budget.left == steps
    own = []
    for vectors in _components(gens):
        vectors = sorted(vectors)
        local = Ambient(("x", "y"), (0, 0), len(vectors),
                        tuple(f"e{b}" for b in range(1, len(vectors) + 1)),
                        laurent=False)
        part = [_on(f, local, {b: i for i, b in enumerate(vectors, 1)})
                for f in gens if {b for _, b in f.as_dict()} <= set(vectors)]
        back = dict(enumerate(vectors, 1))
        own += [_on(f, amb, back) for f in buchberger_strong(part).generators]
    assert list(gb.generators) == sorted(
        own, key=lambda f: monomial_key(terms(f)[0][0]))
    assert gb.origin == tuple(gens)
    info = _runs.cache_info()
    assert buchberger_strong(gens) == gb
    assert _runs.cache_info()[:2] == (info.hits + len(_components(gens)),
                                      info.misses)


class TestDivision:
    def test_single_step(self):
        _, emb, embed = laurent_embed([parse_element("2*a", LAUR1)], LAUR1)
        gb = buchberger_strong(emb)
        cert = divide_with_certificate(embed(parse_element("2*t*a", LAUR1)), gb)
        assert cert.residue.is_zero() and cert.size == 1

    def test_hand_expansion(self):
        _, emb, embed = laurent_embed([parse_element("(t - 2)*a", LAUR1)], LAUR1)
        gb = buchberger_strong(emb)
        cert = divide_with_certificate(embed(parse_element("(t^2 - 4)*a", LAUR1)), gb)
        assert cert.residue.is_zero() and cert.size == 3
        texts = sorted(a.render() for a in cert.coefficients)
        assert "t + 2" in texts

    def test_irreducible(self):
        gb = buchberger_strong([const(5)])
        g = const(3)
        cert = divide_with_certificate(g, gb)
        assert cert.residue == g and cert.size == 0
        assert all(a.is_zero() for a in cert.coefficients)

    def test_reconstruction_and_bounds_random(self):
        rng = random.Random(4)
        amb = Ambient(("x", "y"), (0, 0), 2, ("e1", "e2"), laurent=False)
        checked = 0
        while checked < 1000:
            gens = [g for g in (random_element(rng, amb) for _ in range(3))
                    if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger_strong(gens)
            for _ in range(25):
                g = random_element(rng, amb, max_degree=3, max_coeff=6,
                                   max_terms=4)
                cert = divide_with_certificate(g, gb)
                assert reconstructed(g, cert, gb)
                assert cert.size <= cert.bound
                for alpha, f in zip(cert.coefficients, gb.generators):
                    prod = f.mul_ring(alpha)
                    assert prod.degree <= g.degree or prod.is_zero()
                checked += 1

    def test_checker_rejects_tampered_alpha(self):
        """``(x^2 - 4)*e1 = (x + 2)*(x - 2)*e1``; an alpha of the same size
        with another sign, with a basis part or from another ring is
        refused."""
        gb = buchberger_strong([parse_element("(x - 2)*e1", POLY1)])
        g = parse_element("(x^2 - 4)*e1", POLY1)
        cert = divide_with_certificate(g, gb)
        assert verify_certificate(g, cert, gb)
        ring = POLY1.ring()
        assert cert.coefficients == (parse_element("x + 2", ring),)
        for alpha in (parse_element("x - 2", ring), parse_element("x*e1 + 2*e1", POLY1),
                      parse_element("t^-1 + 2", LAUR1.ring())):
            assert alpha.length == cert.size
            assert not verify_certificate(g, replace(cert, coefficients=(alpha,)), gb)

    def test_bound_formula(self):
        gb = buchberger_strong([const(2)])
        g = const(9)
        # p * ((1+C)^(m*G_k(0)) - 1)/C with p=9, C=2, m=1, G_1(0)=1
        assert certificate_bound(g, gb) == 9 * ((3 ** 1 - 1) // 2)


def random_polynomial(rng, amb, max_terms=4, max_degree=3, big=True):
    raw = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(amb.nvars))
        c = rng.randint(-9, 9)
        if big and rng.random() < 0.5:
            c = rng.randint(-10 ** 20, 10 ** 20)
        raw[(exps, rng.randint(1, amb.rank))] = c
    return ModuleElement.from_dict(amb, raw)


def random_generators(rng, amb, big):
    """Generator lists with zero elements and competing leading terms."""
    gens = [random_polynomial(rng, amb, max_terms=3, max_degree=2, big=big)
            for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        f = rng.choice(gens)
        if not f.is_zero():
            # same leading term, another tail: ties on the remainder
            lead, c = terms(f)[0]
            tail = random_polynomial(rng, amb, max_terms=2, max_degree=1, big=big)
            below = {m: d for m, d in tail.as_dict().items()
                     if monomial_key(m) < monomial_key(lead)}
            gens.insert(rng.randrange(len(gens) + 1),
                        ModuleElement.from_dict(amb, {lead: c, **below}))
    if rng.random() < 0.5:
        gens.insert(rng.randrange(len(gens) + 1), ModuleElement.zero(amb))
    return gens


def _reduce_list(g, gens, step_budget=10 ** 6):
    """``_reduce`` of ``g`` by a generator list, no basis and no alphas."""
    return ModuleElement._of(g.ambient, _reduce(
        g.as_dict(), [_table(f.as_dict()) for f in gens],
        _Budget(step_budget, "normal form")))


class TestKernelDifferential:
    """normal_form, divide_with_certificate and _reduce on a generator list
    against a loop over _reduce_step."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_reduce_step(self, rank):
        rng = random.Random(100 + rank)
        checked = raised = 0
        for trial in range(150):
            nvars = rng.randint(1, 3)
            amb = Ambient(tuple(f"x{i}" for i in range(nvars)), (0,) * nvars, rank,
                          tuple(f"e{b}" for b in range(1, rank + 1)), laurent=False)
            # every third list is a strong basis, built from small coefficients
            gens = random_generators(rng, amb, big=trial % 3 != 0)
            if trial % 3 == 0:
                gens = list(buchberger_strong(gens).generators)
            basis = GroebnerBasis(amb, tuple(gens), ())
            g = random_polynomial(rng, amb, max_terms=5, max_degree=4)
            residue, alphas, steps = reference_division(g, gens, 10 ** 6)
            cert = divide_with_certificate(g, basis)
            assert cert.residue == residue
            assert list(cert.coefficients) == alphas
            assert cert.steps == steps
            assert _reduce_list(g, gens) == residue
            with scope(steps):
                assert normal_form(g, basis) == residue
            checked += steps > 0
            if steps:
                budget = rng.randrange(steps)
                with pytest.raises(BudgetExceeded):
                    reference_division(g, gens, budget)
                with pytest.raises(BudgetExceeded, match="division exceeded"):
                    with scope(budget):
                        divide_with_certificate(g, basis)
                with pytest.raises(BudgetExceeded, match="normal form exceeded"):
                    _reduce_list(g, gens, step_budget=steps - 1)
                raised += 1
        assert checked > 50 and raised == checked


KILL_CASES = ["kills", "kills beside a zero generator", "another lead",
              "another tail", "minus one", "two", "duplicate"]


def killed_case(rng, amb, case):
    """A generator list holding ``1*e_b`` (or, for "minus one" and "two",
    ``-1*e_b`` and ``2*e_b``) and the vector ``b``.  The first two cases
    kill ``b``; in the others ``b`` is left to the heap."""
    b = rng.randint(1, amb.rank)
    zero = (0,) * amb.nvars
    # the other generators have no term on b, unless the case adds one
    gens = [ModuleElement.from_dict(amb, {m: c for m, c in f.as_dict().items()
                                          if m[1] != b})
            for f in random_generators(rng, amb, big=rng.random() < 0.5)]
    unit = {"minus one": -1, "two": 2}.get(case, 1)
    gens.insert(rng.randrange(len(gens) + 1),
                ModuleElement.from_dict(amb, {(zero, b): unit}))
    if case == "kills beside a zero generator":
        gens.insert(rng.randrange(len(gens) + 1), ModuleElement.zero(amb))
    elif case == "duplicate":
        gens.insert(rng.randrange(len(gens) + 1),
                    ModuleElement.from_dict(amb, {(zero, b): 1}))
    elif case in ("another lead", "another tail"):
        # a term of degree 2 on b, under a lead of degree 3 on another
        # vector for "another tail" (on b itself in rank 1)
        top = (3,) + (0,) * (amb.nvars - 1)
        low = (rng.randint(0, 2),) + (0,) * (amb.nvars - 1)
        raw = {(low, b): rng.choice([-3, 1, 2])}
        if case == "another tail":
            raw[top, rng.choice([c for c in range(1, amb.rank + 1) if c != b]
                                or [b])] = rng.choice([1, 5])
        gens.insert(rng.randrange(len(gens) + 1), ModuleElement.from_dict(amb, raw))
    return gens, b


class TestKilledVectors:
    """The one-pass division of the terms on a killed basis vector against
    the loop over _reduce_step, on bases that hold a unit constant."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_reduce_step(self, rank):
        rng = random.Random(200 + rank)
        killed = refused = 0
        for trial in range(140):
            case = KILL_CASES[trial % len(KILL_CASES)]
            nvars = rng.randint(1, 3)
            amb = Ambient(tuple(f"x{i}" for i in range(nvars)), (0,) * nvars, rank,
                          tuple(f"e{b}" for b in range(1, rank + 1)), laurent=False)
            gens, b = killed_case(rng, amb, case)
            basis = GroebnerBasis(amb, tuple(gens), ())
            assert (b in basis._killed) == case.startswith("kills")
            killed += b in basis._killed
            refused += b not in basis._killed
            g = random_polynomial(rng, amb, max_terms=5, max_degree=4)
            on_b = random_polynomial(rng, amb, max_terms=4, max_degree=4)
            g = g + ModuleElement.from_dict(
                amb, {(e, b): c for (e, _), c in on_b.as_dict().items()})
            residue, alphas, steps = reference_division(g, gens, 10 ** 6)
            cert = divide_with_certificate(g, basis)
            assert cert.residue == residue
            assert list(cert.coefficients) == alphas
            assert cert.steps == steps
            assert normal_form(g, basis) == residue
            for budget in range(steps):
                with pytest.raises(BudgetExceeded, match="division exceeded"):
                    with scope(budget):
                        divide_with_certificate(g, basis)
                with pytest.raises(BudgetExceeded, match="normal form exceeded"):
                    with scope(budget):
                        normal_form(g, basis)
        assert killed == 40 and refused == 100

    def test_z2_commutator_skips_the_heap(self, monkeypatch):
        """``[t1^12, t2^12]`` in free_abelian collects to 144 terms on
        ``c``, which the basis kills: all 144 steps are taken before the
        heap, which starts empty."""
        from metabelian import groebner
        from metabelian.presentation import parse_word
        from metabelian.presets import PresetSpec, build
        from metabelian.wordproblem import is_identity, module_context

        p = build(PresetSpec("free_abelian"))
        w = parse_word("[t1^12, t2^12]", p)
        module_context(p)  # Buchberger fills its heaps before the watch
        sizes = []
        heapify = groebner.heapify
        monkeypatch.setattr(groebner, "heapify",
                            lambda heap: (sizes.append(len(heap)), heapify(heap)))
        ok, cert = is_identity(w, p)
        assert ok and cert.membership.steps == 144
        assert sizes == [0]


class TestConfluence:
    def test_random_reduction_order_agrees(self):
        rng = random.Random(5)
        amb = Ambient(("x",), (0,), 2, ("e1", "e2"), laurent=False)
        for trial in range(40):
            gens = [g for g in (random_element(rng, amb) for _ in range(3))
                    if not g.is_zero()]
            gb = buchberger_strong(gens)
            for _ in range(10):
                g = random_element(rng, amb, max_degree=3, max_coeff=6)
                nf = normal_form(g, gb)
                for seed in range(3):
                    order = random.Random(seed)
                    h = g
                    while (out := _reduce_step(h, gb.generators, rng=order)) is not None:
                        h = out[0]
                    assert h == nf


class TestOracleEquivalence:
    def test_small_instances(self):
        rng = random.Random(6)
        laur = Ambient(("t", "u"), (0, 0), 2, ("a1", "a2"), laurent=True)
        for trial in range(12):
            gens = [g for g in (random_element(rng, laur, max_degree=1,
                                               max_coeff=2) for _ in range(2))
                    if not g.is_zero()]
            if not gens:
                continue
            _, emb, embed = laurent_embed(gens, laur)
            gb = buchberger_strong(emb)
            for _ in range(12):
                g = random_element(rng, laur, max_degree=1, max_coeff=2)
                member = normal_form(embed(g), gb).is_zero()
                found = brute_force_min_certificate(g, gens, (1, 2, 3))
                if found is not None:
                    assert member, f"oracle found {found} but basis rejects"


class TestLaurentEmbed:
    def test_basic(self):
        poly, emb, _ = laurent_embed([parse_element("(t - 2)*a", LAUR1)], LAUR1)
        assert poly.variables == ("t", "t__inv")
        rendered = {g.render() for g in emb}
        assert rendered == {"(t - 2)*a", "(t*t__inv - 1)*a"}

    def test_unit_shift(self):
        _, emb, embed = laurent_embed([parse_element("(t^-1 - 1)*a", LAUR1)],
                                      LAUR1)
        shifted = embed(parse_element("(t^-1 - 1)*a", LAUR1))
        assert shifted == parse_element(
            "(-t + 1)*a", Ambient(("t", "t__inv"), (0, 0), 1, ("a",), False))

    def test_torsion_relator(self):
        tor = Ambient(("u",), (2,), 1, ("a",), laurent=True)
        poly, emb, _ = laurent_embed([parse_element("(u - 1)*a", tor)], tor)
        assert poly.variables == ("u",)
        assert {g.render() for g in emb} == {"(u - 1)*a", "(u^2 - 1)*a"}

    def test_membership_invariant_under_shift(self):
        rng = random.Random(7)
        gens = [parse_element("(t - 2)*a", LAUR1)]
        _, emb, embed = laurent_embed(gens, LAUR1)
        gb = buchberger_strong(emb)
        for _ in range(100):
            lam = random_element(rng, LAUR1.ring(), max_degree=2, max_coeff=3)
            member = gens[0].mul_ring(lam)
            assert normal_form(embed(member), gb).is_zero()


class TestGrowthFunction:
    def test_values(self):
        assert growth_function(1, 5) == 6
        assert growth_function(0, 7) == 1
        assert growth_function(2, 3) == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            growth_function(-1, 2)
        with pytest.raises(ValueError):
            growth_function(2, -1)


class TestBudgets:
    def test_construction_budget(self):
        from metabelian.errors import BudgetExceeded
        amb = Ambient(("x", "y"), (0, 0), 1, ("e1",), laurent=False)
        gens = [parse_element("2*x*e1 + 3*y*e1", amb),
                parse_element("3*x^2*e1 + 2*e1", amb),
                parse_element("5*y^2*e1 + x*e1", amb)]
        with pytest.raises(BudgetExceeded), scope(2):
            buchberger_strong(gens)

    def test_division_budget(self):
        from metabelian.errors import BudgetExceeded
        gb = buchberger_strong([const(2)])
        g = ModuleElement.from_dict(POLY1, {((i,), 1): 2 for i in range(10)})
        with pytest.raises(BudgetExceeded), scope(3):
            divide_with_certificate(g, gb)

    def test_construction_budget_boundary_with_copies(self):
        """The relator module of wf(r=2) holds the same ideal on a1 and a2:
        the basis of a2 is a copy of a1's, charged again, so the budget of
        the joint run's steps passes and one less raises, with the same
        message, whether the table is cold or warm from earlier calls."""
        p = build(PresetSpec("wf", r=2, k=2, fs=((1, 2, 1), (1, 1))))
        _, gens, _ = laurent_embed(relator_module(p), p.module_ambient())
        steps = _joint(gens)[1]
        assert steps > 1
        message = "Groebner construction exceeded its step budget"
        _runs.cache_clear()
        with pytest.raises(BudgetExceeded, match=message), scope(steps - 1):
            buchberger_strong(gens)
        _runs.cache_clear()
        with scope(steps):
            cold = buchberger_strong(gens)
        assert cold == buchberger_strong(gens)
        # warm from the earlier calls: every group is a copy, charged again
        misses = _runs.cache_info().misses
        with scope(steps):
            assert buchberger_strong(gens) == cold
        with pytest.raises(BudgetExceeded, match=message), scope(steps - 1):
            buchberger_strong(gens)
        assert _runs.cache_info().misses == misses

    @pytest.mark.parametrize("run", [normal_form, divide_with_certificate])
    def test_budget_boundary(self, run):
        """A budget of exactly the steps needed passes; one less raises."""
        from metabelian.errors import BudgetExceeded
        gb = buchberger_strong([const(2), parse_element("x*e1", POLY1)])
        g = ModuleElement.from_dict(POLY1, {((i,), 1): 3 + i for i in range(6)})
        steps, h = 0, g
        while (out := _reduce_step(h, gb.generators)) is not None:
            h, steps = out[0], steps + 1
        assert steps > 1
        with scope(steps):
            run(g, gb)
        with pytest.raises(BudgetExceeded), scope(steps - 1):
            run(g, gb)
        if run is divide_with_certificate:
            with scope(steps):
                assert run(g, gb).steps == steps


def _wf_pool():
    """The 25 ``wf`` presentations of perfbench's ``many-groups`` pool."""
    specs = [PresetSpec("wf", r=r, k=k, fs=(f,) + ((1, 1),) * (k - 1),
                        torsion_orders=tor)
             for tor in ((), (2,)) for r in (1, 2) for k in (1, 2)
             for f in ((1, 1), (1, 1, 1), (1, 2, 1))]
    return specs + [PresetSpec("wf", r=2, k=2, fs=((1, 2, 1), (1, 1)),
                               torsion_orders=(3,))]


def _context_basis(spec):
    p = build(spec)
    _, gens, _ = laurent_embed(relator_module(p), p.module_ambient())
    return buchberger_strong(gens)


class TestRunTable:
    """``_runs`` keeps the strong-basis runs of ``buchberger_strong`` for
    the whole process."""

    def test_cold_equals_warm(self):
        """The pool's bases, built one after another with the table warm,
        equal the bases built with the table cleared before each, and the
        warm pass runs fewer runs than it has groups."""
        _runs.cache_clear()
        warm = [_context_basis(spec) for spec in _wf_pool()]
        info = _runs.cache_info()
        assert info.hits > info.misses
        for spec, basis in zip(_wf_pool(), warm):
            _runs.cache_clear()
            cold = _context_basis(spec)
            assert cold == basis and cold.to_json() == basis.to_json()

    def test_copy_onto_another_ambient(self):
        """wf(r=1, k=2) runs a1's group on e1 and z's on e2; wf(r=2, k=2)
        takes both from the table and puts a1's basis on e1 and e2 and z's
        on e3, in its own ambient."""
        _runs.cache_clear()
        one = _context_basis(PresetSpec("wf", r=1, k=2))
        assert _runs.cache_info()[:2] == (0, 2)
        two = _context_basis(PresetSpec("wf", r=2, k=2))
        assert _runs.cache_info()[:2] == (3, 2)
        assert one.ambient.basis_names == ("a1", "z")
        assert two.ambient.basis_names == ("a1", "a2", "z")
        assert all(f.ambient == two.ambient for f in two.generators)

        def on(basis, b):
            return sorted(element_key(f) for f in basis.generators
                          if next(iter(f._raw))[1] == b)

        def moved(b, to):
            return sorted(element_key(_on(f, two.ambient, {b: to}))
                          for f in one.generators if next(iter(f._raw))[1] == b)

        assert on(two, 1) == moved(1, 1) and on(two, 2) == moved(1, 2)
        assert on(two, 3) == moved(2, 3)
        _runs.cache_clear()
        assert _context_basis(PresetSpec("wf", r=2, k=2)) == two

    def test_failed_run_leaves_no_entry(self):
        amb = Ambient(("x", "y"), (0, 0), 1, ("e1",), laurent=False)
        gens = [parse_element("2*x*e1 + 3*y*e1", amb),
                parse_element("3*x^2*e1 + 2*e1", amb),
                parse_element("5*y^2*e1 + x*e1", amb)]
        _runs.cache_clear()
        size = _runs.cache_info().maxsize
        with pytest.raises(BudgetExceeded), scope(2):
            buchberger_strong(gens)
        assert _runs.cache_info() == (0, 1, size, 0)
        with pytest.raises(BudgetExceeded), scope(2):
            buchberger_strong(gens)
        assert _runs.cache_info() == (0, 2, size, 0)
        basis = buchberger_strong(gens)
        assert _runs.cache_info() == (0, 3, size, 1)
        assert buchberger_strong(gens) == basis

    def test_size_bound_and_clear(self):
        """More distinct runs than the bound keep the size at the bound,
        evicting the run used longest ago; clearing empties the table."""
        _runs.cache_clear()
        size = _runs.cache_info().maxsize
        for c in range(2, size + 12):
            buchberger_strong([const(c)])
            assert _runs.cache_info().currsize <= size
        assert _runs.cache_info() == (0, size + 10, size, size)
        buchberger_strong([const(size + 11)])  # the last run: kept
        assert _runs.cache_info().hits == 1
        buchberger_strong([const(2)])  # the first run: evicted
        assert _runs.cache_info().misses == size + 11
        _runs.cache_clear()
        assert _runs.cache_info() == (0, 0, size, 0)

    def test_threads_lose_no_count(self):
        """Four threads look runs up at once, with a short switch interval:
        every lookup is counted once and the size stays at the bound."""
        _runs.cache_clear()
        size, errors = _runs.cache_info().maxsize, []

        def work(offset):
            try:
                for c in range(2, 2 + 2 * size):
                    buchberger_strong([const(c + offset)])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i % 2,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        info = _runs.cache_info()
        assert info.hits + info.misses == 4 * 2 * size
        assert info.currsize == size

    def test_key_holds_terms_alone(self):
        """One ideal in polynomial ambients that differ in their variable
        names or torsion alone is run once, each basis in the ambient it was
        asked in; terms that differ in their basis vectors alone are run
        apart.  A BS(1,2) presentation file with every generator renamed
        builds its context with no new miss."""
        _runs.cache_clear()
        bases = []
        for variables, torsion in ((("x",), (0,)), (("y",), (0,)), (("x",), (2,))):
            amb = Ambient(variables, torsion, 1, ("e1",), laurent=False)
            x = variables[0]
            bases.append(buchberger_strong([parse_element(f"2*{x}*e1 + 3*e1", amb),
                                            parse_element(f"3*{x}^2*e1", amb)]))
            assert all(f.ambient == amb for f in bases[-1].generators)
        assert _runs.cache_info()[:2] == (2, 1)
        assert ([f.as_dict() for f in bases[0].generators]
                == [f.as_dict() for f in bases[2].generators])
        amb = Ambient(("x",), (0,), 2, ("e1", "e2"), laurent=False)
        for text in ("x*e1 + e2", "e1 + x*e2"):
            f = parse_element(text, amb)
            assert buchberger_strong([f]).generators == (f,)
        assert _runs.cache_info()[:2] == (2, 3)
        p = build(PresetSpec("bs", n=2))
        module_context.cache_clear()
        module_context(p)
        renamed = parse_presentation(json.dumps({
            "module_generators": ["b"], "free_generators": ["s"],
            "relators": ["s*b*s^-1*b^-2"],
            "lambda": {"centralizer": ["2*s"], "co_centralizer": ["2*s^-1"]}}))
        assert p.relators[0].render() == "t*a*t^-1*a^-2"
        misses = _runs.cache_info().misses
        basis = module_context(renamed).basis
        assert _runs.cache_info().misses == misses
        assert basis.ambient.variables == ("s", "s__inv")
        assert all(f.ambient == basis.ambient for f in basis.generators)


def _division_case():
    """A basis, an element and the steps of its division."""
    gb = buchberger_strong([const(2), parse_element("x*e1", POLY1)])
    g = ModuleElement.from_dict(POLY1, {((i,), 1): 3 + i for i in range(6)})
    return gb, g, divide_with_certificate(g, gb).steps


class TestScope:
    """``scope(steps)`` opens one budget that every basis construction,
    division and normal form inside it draws from, in its own thread only;
    outside a scope each call gets ``DEFAULT_STEP_BUDGET`` of its own."""

    def test_one_scope_spans_a_request(self):
        """A cold BS(1,2) context takes c construction steps and the word
        d division steps: c + d pass in one scope, one less fails in the
        division and c - 1 in the construction; warm, d pass."""
        p = build(PresetSpec("bs", n=2))
        w = parse_word("t^3*a*t^-3*a^-8", p)
        _, gens, _ = laurent_embed(relator_module(p), p.module_ambient())
        c = _joint(gens)[1]
        d = is_identity(w, p)[1].membership.steps
        assert c > 0 and d > 0
        module_context.cache_clear()
        _runs.cache_clear()
        with scope(c + d) as budget:
            identity, cert = is_identity(w, p)
        assert identity and cert.membership.steps == d and budget.left == 0
        for steps, message in ((c + d - 1, "division exceeded"),
                               (c - 1, "Groebner construction exceeded")):
            module_context.cache_clear()
            _runs.cache_clear()
            with pytest.raises(BudgetExceeded, match=message), scope(steps):
                is_identity(w, p)
        module_context(p)
        with scope(d):
            assert is_identity(w, p)[0]
        with pytest.raises(BudgetExceeded, match="division exceeded"), scope(d - 1):
            is_identity(w, p)

    def test_nested_scope_restores_the_outer(self):
        gb, g, steps = _division_case()
        with scope(3 * steps) as outer:
            with scope(steps) as inner:
                divide_with_certificate(g, gb)
            assert (inner.left, outer.left) == (0, 3 * steps)
            with pytest.raises(BudgetExceeded), scope(steps - 1):
                divide_with_certificate(g, gb)
            assert outer.left == 3 * steps
            assert divide_with_certificate(g, gb).steps == steps
            assert outer.left == 2 * steps

    def test_scope_does_not_reach_another_thread(self, monkeypatch):
        """A worker thread's call takes the default budget, neither the
        main thread's small scope nor its large one."""
        gb, g, steps = _division_case()
        results = []

        def worker():
            try:
                results.append(divide_with_certificate(g, gb).steps)
            except BudgetExceeded as exc:
                results.append(str(exc))

        for default, scoped, expected in (
                (steps, steps - 1, steps),
                (steps - 1, steps, "division exceeded its step budget")):
            monkeypatch.setattr(groebner, "DEFAULT_STEP_BUDGET", default)
            results.clear()
            with scope(scoped):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join(timeout=60)
            assert results == [expected]

    def test_call_after_a_failed_scope_gets_the_default(self, monkeypatch):
        gb, g, steps = _division_case()
        with pytest.raises(BudgetExceeded), scope(steps - 1):
            divide_with_certificate(g, gb)
        monkeypatch.setattr(groebner, "DEFAULT_STEP_BUDGET", steps)
        for _ in range(2):  # each call has a default of its own
            assert divide_with_certificate(g, gb).steps == steps
        monkeypatch.setattr(groebner, "DEFAULT_STEP_BUDGET", steps - 1)
        with pytest.raises(BudgetExceeded, match="division exceeded"):
            divide_with_certificate(g, gb)
