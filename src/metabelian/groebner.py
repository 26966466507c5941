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
from dataclasses import dataclass
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


def _reduce(g: ModuleElement, gens, budget: list, what: str, alphas=None, rng=None):
    """Apply reduce_step to ``g`` modulo ``gens`` until it is irreducible.

    ``budget`` is a one-element list of steps left, shared across the calls
    of one construction; the step after it runs out raises BudgetExceeded
    naming ``what``.  With ``alphas`` (ring elements aligned with ``gens``)
    each quotient term is added to the alpha of the generator it used.
    """
    while True:
        out = reduce_step(g, gens, rng=rng)
        if out is None:
            return g
        g, idx, quot = out
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded(f"{what} exceeded its step budget")
        if alphas is not None:
            alphas[idx] = alphas[idx] + ModuleElement.from_term(
                alphas[idx].ambient, quot.coefficient, quot.monomial.exponents)


def normal_form(g: ModuleElement, G, rng=None, step_budget=DEFAULT_STEP_BUDGET):
    """Fixed point of reduce_step; equals NF(g) for a Groebner basis."""
    gens = G.generators if isinstance(G, GroebnerBasis) else list(G)
    return _reduce(g, gens, [step_budget], "normal form", rng=rng)


@dataclass(frozen=True)
class GroebnerBasis:
    """Auto-reduced strong basis; every generator has positive leading coefficient.

    ``origin`` keeps the user generators the basis was computed from.
    """

    ambient: Ambient
    generators: tuple[ModuleElement, ...]
    origin: tuple[ModuleElement, ...]

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


def _positive(f: ModuleElement) -> ModuleElement:
    return -f if f.leading_term().coefficient < 0 else f


def buchberger_strong(F, step_budget=DEFAULT_STEP_BUDGET) -> GroebnerBasis:
    """Strong Groebner basis of the submodule generated by ``F`` over ZZ.

    Pairs are processed smallest lcm first; both the S-polynomial (lcm of
    leading coefficients) and, when neither leading coefficient divides the
    other, the gcd-polynomial (Bezout combination) are reduced and kept when
    nonzero.  The result is tail-autoreduced so normal forms are canonical.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        return GroebnerBasis(ambient=None, generators=(), origin=())
    ambient = F[0].ambient
    for f in F:
        if f.ambient != ambient:
            raise AmbientMismatch("generators live in different ambients")
        _check_polynomial(f)

    what = "Groebner construction"
    budget = [step_budget]
    basis: list[ModuleElement] = []
    # ((sum(lcm), lcm), i, j); basis entries do not change until the queue
    # is empty, so the lcm stays valid.
    pairs: list[tuple[tuple, int, int]] = []

    def add_element(f: ModuleElement):
        f = _reduce(f, basis, budget, what)
        if f.is_zero():
            return
        basis.append(_positive(f))
        mj = basis[-1].leading_term().monomial
        for i, fi in enumerate(basis[:-1]):
            mi = fi.leading_term().monomial
            if mi.basis == mj.basis:
                lcm = tuple(max(a, b) for a, b in zip(mi.exponents, mj.exponents))
                pairs.append(((sum(lcm), lcm), i, len(basis) - 1))

    for f in F:
        add_element(f)

    while pairs:
        pairs.sort(key=lambda p: p[0])
        (_, lcm), i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        ti, tj = fi.leading_term(), fj.leading_term()
        qi = Monomial(tuple(l - e for l, e in zip(lcm, ti.monomial.exponents)))
        qj = Monomial(tuple(l - e for l, e in zip(lcm, tj.monomial.exponents)))
        ci, cj = ti.coefficient, tj.coefficient
        c = abs(ci * cj) // math.gcd(ci, cj)
        add_element(fi.scale_translate(c // ci, qi) - fj.scale_translate(c // cj, qj))
        d = math.gcd(ci, cj)
        if d != abs(ci) and d != abs(cj):
            a, b = _bezout(ci, cj)
            add_element(fi.scale_translate(a, qi) + fj.scale_translate(b, qj))

    # Tail auto-reduction until stable.
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            reduced = _reduce(basis[idx], basis[:idx] + basis[idx + 1:], budget, what)
            if reduced.is_zero():
                del basis[idx]
                changed = True
                break
            if reduced != basis[idx]:
                basis[idx] = _positive(reduced)
                changed = True
                break

    basis.sort(key=lambda f: f.leading_term().monomial.key())
    return GroebnerBasis(ambient=ambient, generators=tuple(basis), origin=tuple(F))


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
    budget = [step_budget]
    residue = _reduce(g, G.generators, budget, "division", alphas=alphas)
    size = sum(a.length for a in alphas)
    return DivisionCertificate(tuple(alphas), residue, step_budget - budget[0],
                               size, certificate_bound(g, G))


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
