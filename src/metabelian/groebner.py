"""Polynomial reduction, strong Groebner bases over the integers, division.

Reduction works in a polynomial ambient (non-negative exponents).  A term
``c*u*e_b`` reduces by a generator ``f`` when ``LM(f)`` divides ``u*e_b``
and ``LC(f)`` precedes or equals ``c`` in the integer well-order; the
coefficient is then replaced by its remainder ``0 <= r < |LC(f)|``.  Strong
bases are built by closing under S-polynomials (lcm of leading coefficients)
and gcd-polynomials (Bezout combinations), then tail-autoreducing.  Laurent
and torsion problems embed via inverse variables and unit relators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .bounds import Bound
from .elements import Ambient, ModuleElement, Monomial, Term
from .errors import AmbientMismatch, BudgetExceeded
from .order import int_key

DEFAULT_STEP_BUDGET = 10 ** 6

INVERSE_SUFFIX = "__inv"


def _check_polynomial(g: ModuleElement):
    for t in g.terms:
        if any(e < 0 for e in t.monomial.exponents):
            raise AmbientMismatch(
                "negative exponents: embed Laurent elements first (laurent_embed)")


def _reducible(coeff: int, lc: int) -> bool:
    return int_key(lc) <= int_key(coeff)


def _euclid(coeff: int, lc: int) -> tuple[int, int]:
    """q, r with coeff = q*lc + r and 0 <= r < |lc|."""
    r = coeff % abs(lc)
    q = (coeff - r) // lc
    return q, r


def reduce_step(g: ModuleElement, F, rng=None):
    """One polynomial reduction step of ``g`` modulo the list ``F``.

    Returns ``(h, generator_index, quotient_term)`` or ``None`` when ``g``
    is irreducible.  Deterministically the largest reducible term is
    cancelled, preferring the generator leaving the smallest remainder;
    passing ``rng`` picks a random reducible (term, generator) pair
    instead, which is used by the confluence tests.
    """
    if not F:
        return None
    candidates = []
    for term in g.terms:
        hits = []
        for idx, f in enumerate(F):
            if f.is_zero():
                continue
            lt = f.leading_term()
            if lt.monomial.divides(term.monomial) and _reducible(term.coefficient,
                                                                 lt.coefficient):
                q, r = _euclid(term.coefficient, lt.coefficient)
                hits.append((r, idx, q, lt))
        if hits:
            if rng is None:
                hits.sort(key=lambda h: (h[0], h[1]))
                candidates.append((term, hits[0]))
                break  # terms are stored descending: first hit is the largest
            candidates.extend((term, h) for h in hits)
    if not candidates:
        return None
    term, (r, idx, q, lt) = candidates[0] if rng is None else candidates[
        rng.randrange(len(candidates))]
    quot = Monomial(lt.monomial.quotient_exponents(term.monomial), None)
    h = g - F[idx].scale_translate(q, quot)
    return h, idx, Term(q, quot)


def normal_form(g: ModuleElement, G, rng=None, step_budget=DEFAULT_STEP_BUDGET):
    """Fixed point of reduce_step; equals NF(g) for a Groebner basis."""
    gens = G.generators if isinstance(G, GroebnerBasis) else list(G)
    steps = 0
    while True:
        out = reduce_step(g, gens, rng=rng)
        if out is None:
            return g
        g = out[0]
        steps += 1
        if steps > step_budget:
            raise BudgetExceeded(f"normal form exceeded {step_budget} reduction steps")


@dataclass(frozen=True)
class GroebnerBasis:
    """Auto-reduced strong basis; every generator has positive leading coefficient.

    ``origin`` keeps the user generators the basis was computed from and
    ``provenance[i]`` expresses ``generators[i]`` as a combination of them.
    """

    ambient: Ambient
    generators: tuple[ModuleElement, ...]
    origin: tuple[ModuleElement, ...]
    provenance: tuple[tuple[ModuleElement, ...], ...] = ()

    def __len__(self):
        return len(self.generators)

    def to_json(self) -> dict:
        return {
            "variables": list(self.ambient.variables) if self.ambient else [],
            "torsion": list(self.ambient.torsion) if self.ambient else [],
            "basis": list(self.ambient.basis_names or []) if self.ambient else [],
            "generators": [g.render() for g in self.generators],
            "origin": [g.render() for g in self.origin],
        }


@dataclass(frozen=True)
class DivisionCertificate:
    """Exact decomposition ``g = sum_i alpha_i f_i + residue`` with size data."""

    coefficients: tuple[ModuleElement, ...]
    residue: ModuleElement
    steps: int
    size: int
    bound: Bound

    def to_json(self) -> dict:
        return {
            "alphas": [a.render() for a in self.coefficients],
            "residue": self.residue.render(),
            "steps": self.steps,
            "size": str(self.size),
            "bound": self.bound.to_json(),
        }


def growth_function(k: int, n: int) -> int:
    """Number of monomials of degree <= n in k polynomial variables."""
    if k < 0 or n < 0:
        raise ValueError("growth function needs non-negative arguments")
    return math.comb(n + k, k)


class _Tracked:
    """A module element plus its expression over the original generators."""

    __slots__ = ("elem", "combo")

    def __init__(self, elem, combo):
        self.elem = elem
        self.combo = combo  # list of ring elements, aligned with the origin

    def sub_scaled(self, other, c, quot):
        elem = self.elem - other.elem.scale_translate(c, quot)
        combo = [a - b.scale_translate(c, quot)
                 for a, b in zip(self.combo, other.combo)]
        return _Tracked(elem, combo)

    def neg(self):
        return _Tracked(-self.elem, [-a for a in self.combo])


def _fully_reduce(t: _Tracked, basis: list, budget) -> _Tracked:
    while True:
        out = reduce_step(t.elem, [b.elem for b in basis])
        if out is None:
            return t
        _, idx, quot = out
        t = t.sub_scaled(basis[idx], quot.coefficient, quot.monomial)
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("Groebner construction exceeded its step budget")


def buchberger_strong(F, step_budget=DEFAULT_STEP_BUDGET) -> GroebnerBasis:
    """Strong Groebner basis of the submodule generated by ``F`` over ZZ.

    Pairs are processed smallest lcm first; both the S-polynomial (lcm of
    leading coefficients) and, when neither leading coefficient divides the
    other, the gcd-polynomial (Bezout combination) are reduced and kept when
    nonzero.  The result is tail-autoreduced so normal forms are canonical.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        return GroebnerBasis(
            ambient=None if not F else F[0].ambient, generators=(), origin=(),
            provenance=())
    ambient = F[0].ambient
    ring = ambient.ring()
    zero_ring = ModuleElement.zero(ring)
    one = ModuleElement.from_term(ring, 1, (0,) * ring.nvars)
    for f in F:
        if f.ambient != ambient:
            raise AmbientMismatch("generators live in different ambients")
        _check_polynomial(f)

    budget = [step_budget]
    basis: list[_Tracked] = []

    def normalized(t: _Tracked) -> _Tracked:
        return t.neg() if t.elem.leading_term().coefficient < 0 else t

    def add_element(t: _Tracked):
        t = _fully_reduce(t, basis, budget)
        if t.elem.is_zero():
            return
        t = normalized(t)
        new_idx = len(basis)
        basis.append(t)
        for j in range(new_idx):
            _enqueue(j, new_idx)

    pairs: list[tuple[tuple, int, int]] = []

    def _enqueue(i, j):
        fi, fj = basis[i].elem, basis[j].elem
        mi, mj = fi.leading_term().monomial, fj.leading_term().monomial
        if mi.basis != mj.basis:
            return
        lcm = tuple(max(a, b) for a, b in zip(mi.exponents, mj.exponents))
        pairs.append(((sum(lcm), lcm), i, j))

    for pos, f in enumerate(F):
        combo = [one if i == pos else zero_ring for i in range(len(F))]
        add_element(_Tracked(f, combo))

    while pairs:
        pairs.sort(key=lambda p: p[0])
        _, i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        ti, tj = fi.elem.leading_term(), fj.elem.leading_term()
        if ti.monomial.basis != tj.monomial.basis:
            continue
        lcm_exps = tuple(max(a, b) for a, b in
                         zip(ti.monomial.exponents, tj.monomial.exponents))
        qi = Monomial(tuple(l - e for l, e in zip(lcm_exps, ti.monomial.exponents)))
        qj = Monomial(tuple(l - e for l, e in zip(lcm_exps, tj.monomial.exponents)))
        ci, cj = ti.coefficient, tj.coefficient
        c = abs(ci * cj) // math.gcd(ci, cj)
        spoly = _Tracked(
            fi.elem.scale_translate(c // ci, qi) - fj.elem.scale_translate(c // cj, qj),
            [a.scale_translate(c // ci, qi) - b.scale_translate(c // cj, qj)
             for a, b in zip(fi.combo, fj.combo)])
        add_element(spoly)
        d = math.gcd(ci, cj)
        if d != abs(ci) and d != abs(cj):
            a, b = _bezout(ci, cj)
            gpoly = _Tracked(
                fi.elem.scale_translate(a, qi) + fj.elem.scale_translate(b, qj),
                [x.scale_translate(a, qi) + y.scale_translate(b, qj)
                 for x, y in zip(fi.combo, fj.combo)])
            add_element(gpoly)

    # Tail auto-reduction until stable.
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            rest = basis[:idx] + basis[idx + 1:]
            reduced = _fully_reduce(basis[idx], rest, budget)
            if reduced.elem.is_zero():
                del basis[idx]
                changed = True
                break
            if reduced.elem != basis[idx].elem:
                basis[idx] = normalized(reduced)
                changed = True
                break

    basis.sort(key=lambda t: t.elem.leading_term().monomial.key())
    return GroebnerBasis(
        ambient=ambient,
        generators=tuple(t.elem for t in basis),
        origin=tuple(F),
        provenance=tuple(tuple(t.combo) for t in basis))


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def divide_with_certificate(g: ModuleElement, G: GroebnerBasis,
                            step_budget=DEFAULT_STEP_BUDGET) -> DivisionCertificate:
    """Divide ``g`` by the basis, with coefficients aligned to its generators.

    Always cancels the largest reducible term; the bound field evaluates the
    chain |a_j| <= p(1+C)^(j-1) over at most m*G_k(deg g) steps with
    C = max generator length.
    """
    if G.generators and g.ambient != G.ambient:
        raise AmbientMismatch("element and basis live in different ambients")
    _check_polynomial(g)
    ring = g.ambient.ring()
    alphas = [ModuleElement.zero(ring) for _ in G.generators]
    h = g
    steps = 0
    gens = list(G.generators)
    while True:
        out = reduce_step(h, gens)
        if out is None:
            break
        h, idx, quot = out
        alphas[idx] = alphas[idx] + ModuleElement.from_term(
            ring, quot.coefficient, quot.monomial.exponents)
        steps += 1
        if steps > step_budget:
            raise BudgetExceeded("division exceeded its step budget")
    size = sum(a.length for a in alphas)
    bound = certificate_bound(g, G)
    return DivisionCertificate(tuple(alphas), h, steps, size, bound)


def certificate_bound(g: ModuleElement, G: GroebnerBasis) -> Bound:
    """p * sum_{j<R} (1+C)^j with R = m*G_k(deg g), C = max generator length."""
    p = max(g.length, 1)
    if not G.generators:
        return Bound.of(p)
    c = max(1, max(f.length for f in G.generators))
    m = g.ambient.rank
    r = m * growth_function(g.ambient.nvars, g.degree)
    # geometric series 1 + (1+C) + ... + (1+C)^(R-1) = ((1+C)^R - 1)/C
    return Bound(((p, 1 + c, r), (-p, 1, 1)), c)


def verify_certificate(g: ModuleElement, cert: DivisionCertificate,
                       G: GroebnerBasis) -> bool:
    """Check a division certificate with plain ring arithmetic.

    Recomputes ``residue + sum_i alpha_i * f_i`` and compares it with ``g``,
    recounts ``size`` from the alphas and checks it against the closed-form
    bound recomputed for ``g``; nothing here runs the divider.
    """
    if len(cert.coefficients) != len(G.generators):
        return False
    total = cert.residue
    for alpha, f in zip(cert.coefficients, G.generators):
        total = total + f.mul_ring(alpha)
    bound = certificate_bound(g, G)
    return (total == g and cert.size == sum(a.length for a in cert.coefficients)
            and cert.bound == bound and cert.size <= bound)


# ---------------------------------------------------------------------------
# Laurent / torsion embedding.


def laurent_embed(F, ambient: Optional[Ambient] = None):
    """Embed Laurent-module generators into a polynomial ambient.

    Introduces an inverse variable for every infinite-order variable, shifts
    each generator to non-negative exponents by a unit monomial, and appends
    the unit relators ``t_i*s_i - 1`` (free) and ``t_i^(d_i) - 1`` (torsion)
    in every basis component.  Returns ``(poly_ambient, embedded_generators,
    embed)`` where ``embed`` maps further Laurent elements into the
    polynomial ambient the same way.
    """
    if ambient is None:
        if not F:
            raise ValueError("need an ambient when no generators are given")
        ambient = F[0].ambient
    if any(d < 1 and d != 0 for d in ambient.torsion):
        raise ValueError("torsion orders must be positive")
    free_idx = [i for i, d in enumerate(ambient.torsion) if d == 0]
    variables = tuple(ambient.variables) + tuple(
        ambient.variables[i] + INVERSE_SUFFIX for i in free_idx)
    poly = Ambient(
        variables=variables,
        torsion=(0,) * len(variables),
        rank=ambient.rank,
        basis_names=ambient.basis_names,
        laurent=False)
    pad = len(variables) - ambient.nvars

    def embed(g: ModuleElement) -> ModuleElement:
        if g.ambient != ambient:
            raise AmbientMismatch("element does not live in the Laurent ambient")
        if g.is_zero():
            return ModuleElement.zero(poly)
        shift = [0] * ambient.nvars
        for i in free_idx:
            low = min(t.monomial.exponents[i] for t in g.terms)
            if low < 0:
                shift[i] = -low
        raw = {}
        for t in g.terms:
            exps = tuple(e + s for e, s in zip(t.monomial.exponents, shift))
            raw[(exps + (0,) * pad, t.monomial.basis)] = t.coefficient
        return ModuleElement.from_dict(poly, raw)

    embedded = [embed(f) for f in F if not f.is_zero()]
    nv = poly.nvars
    for j, i in enumerate(free_idx):
        unit_exps = [0] * nv
        unit_exps[i] = 1
        unit_exps[ambient.nvars + j] = 1
        for b in range(1, ambient.rank + 1):
            embedded.append(ModuleElement.from_dict(poly, {
                (tuple(unit_exps), b): 1,
                ((0,) * nv, b): -1,
            }))
    for i, d in enumerate(ambient.torsion):
        if d:
            tor_exps = [0] * nv
            tor_exps[i] = d
            for b in range(1, ambient.rank + 1):
                embedded.append(ModuleElement.from_dict(poly, {
                    (tuple(tor_exps), b): 1,
                    ((0,) * nv, b): -1,
                }))
    return poly, embedded, embed
