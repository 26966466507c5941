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
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import count
from operator import add, le, neg, sub

from .bounds import Bound, _decimal
from .elements import INVERSE_SUFFIX, Ambient, ModuleElement, _product, _sum
from .errors import AmbientMismatch, BudgetExceeded
from .order import int_key, monomial_key

DEFAULT_STEP_BUDGET = 10 ** 6


def _check_polynomial(g: ModuleElement):
    """A polynomial ambient holds no negative exponent (``from_dict``), so
    the ambient alone tells whether ``g`` can be reduced."""
    if g.ambient.laurent:
        raise AmbientMismatch(
            "a Laurent ambient: embed its elements first (laurent_embed)")


def _reducible(coeff: int, lc: int) -> bool:
    return int_key(lc) <= int_key(coeff)


def _euclid(coeff: int, lc: int) -> tuple[int, int]:
    """q, r with coeff = q*lc + r and 0 <= r < |lc|."""
    r = coeff % abs(lc)
    q = (coeff - r) // lc
    return q, r


def _reduce_step(g: ModuleElement, F, rng=None):
    """One polynomial reduction step of ``g`` modulo the list ``F``.

    Returns ``(h, generator_index, (q, u))``, where ``h = g - q*x^u*F[idx]``,
    or ``None`` when ``g`` is irreducible.  Deterministically the largest
    reducible term is cancelled, preferring the generator leaving the
    smallest remainder; passing ``rng`` picks a random reducible (term,
    generator) pair instead, which is used by the confluence tests.  This is
    the one-step reference for the reduction kernel ``_reduce``.
    """
    leads = []
    for idx, f in enumerate(F):
        if not f.is_zero():
            lead = max(f._raw, key=monomial_key)
            leads.append((idx, lead, f._raw[lead]))
    raw = g._raw
    candidates = []
    for m in sorted(raw, key=monomial_key, reverse=True):
        exps, basis = m
        hits = []
        for idx, (lexps, lbasis), lc in leads:
            if (lbasis == basis and all(map(le, lexps, exps))
                    and _reducible(raw[m], lc)):
                q, r = _euclid(raw[m], lc)
                hits.append((r, idx, q, tuple(map(sub, exps, lexps))))
        if hits:
            if rng is None:
                candidates.append(min(hits))
                break  # descending order: the first hit is the largest term
            candidates.extend(hits)
    if not candidates:
        return None
    _, idx, q, u = candidates[0] if rng is None else candidates[
        rng.randrange(len(candidates))]
    return g - F[idx].scale_translate(q, u), idx, (q, u)


def _table(terms: dict):
    """``(lead exponents, lead basis, lead coefficient, tail)`` of a term
    dict: the lead is its largest monomial, the tail its other terms as
    ``(exponents, basis, coefficient)`` tuples in no particular order; None
    for zero."""
    if not terms:
        return None
    lead = max(terms, key=monomial_key)
    return (*lead, terms[lead],
            tuple((*m, c) for m, c in terms.items() if m != lead))


def _positive(terms: dict):
    """``(g, table of g)`` for the one term dict ``g = ±terms`` whose
    leading coefficient is positive; ``terms`` is nonzero."""
    table = _table(terms)
    lead, basis, lc, tail = table
    if lc > 0:
        return terms, table
    return ({m: -c for m, c in terms.items()},
            (lead, basis, -lc, tuple((e, b, -c) for e, b, c in tail)))


def _add_multiple(terms: dict, table, c: int, u: tuple):
    """``terms += c * u * f`` for the generator ``f`` of ``table``."""
    lead, basis, lc, tail = table
    for exps, b, coeff in ((lead, basis, lc),) + tail:
        key = (tuple(map(add, exps, u)), b)
        v = terms.get(key, 0) + c * coeff
        if v:
            terms[key] = v
        else:
            del terms[key]


class _Budget:
    """The steps ``left`` to one scope or one call, and ``what`` now spends
    them: the step after they run out raises BudgetExceeded naming it."""

    __slots__ = ("left", "what")

    def __init__(self, left: int, what: str = ""):
        self.left, self.what = left, what

    def spend(self, steps: int):
        self.left -= steps
        if self.left < 0:
            raise BudgetExceeded(f"{self.what} exceeded its step budget")


_scope: ContextVar = ContextVar("metabelian.scope", default=None)


@contextmanager
def scope(steps: int):
    """One budget of ``steps`` steps, yielded, for every basis construction,
    division and normal form inside the ``with`` block, in this thread or
    task.  Outside any scope each call gets ``DEFAULT_STEP_BUDGET`` steps
    of its own."""
    budget = _Budget(steps)
    token = _scope.set(budget)
    try:
        yield budget
    finally:
        _scope.reset(token)


def _open(what: str) -> _Budget:
    """The open scope's budget, or a fresh default one outside any scope,
    now spent by ``what``: read once per entry point, not once per step."""
    budget = _scope.get() or _Budget(DEFAULT_STEP_BUDGET)
    budget.what = what
    return budget


def _descending(key):
    """Heap entry for a monomial key: heapq pops the largest monomial first."""
    exps, basis = key
    return (-sum(exps), tuple(map(neg, exps)), basis, key)


def _reduce(terms: dict, tables, budget: _Budget, alphas=None) -> dict:
    """The residue of ``terms`` modulo the generators of ``tables``.

    ``terms`` maps ``(exponents, basis)`` to a nonzero coefficient and is
    consumed.  A max-heap of monomials gives the next term; a reducible
    term is reduced once, by the generator leaving the smallest remainder
    (ties to the lowest index).  That remainder is irreducible: a generator
    that could reduce it could reduce the term too, leaving a smaller
    remainder.  A reduction only changes terms below the one it reduces, so
    this is the fixed point of ``_reduce_step``, step for step, each step
    charged by ``budget.spend(1)``.  With ``alphas`` (the term dicts
    of ring elements, aligned with ``tables``) each quotient term is added
    to the alpha of the generator it used.  ``_divide`` first takes off the terms on basis vectors the basis
    kills outright (``_split_killed``), which this loop would reduce one
    step each with nothing left.
    """
    heap = [_descending(key) for key in terms]
    heapify(heap)
    residue = {}
    while heap:
        key = heappop(heap)[-1]
        c = terms.pop(key, 0)
        if not c:
            continue  # cancelled, or a duplicate heap entry
        exps, basis = key
        best = None
        for idx, table in enumerate(tables):
            if (table is None or table[1] != basis
                    or not all(map(le, table[0], exps))
                    or not _reducible(c, table[2])):
                continue
            q, r = _euclid(c, table[2])
            if best is None or r < best[0]:
                best = (r, idx, q)
        if best is not None:
            r, idx, q = best
            budget.spend(1)
            lead, _, _, tail = tables[idx]
            u = tuple(map(sub, exps, lead))
            for texps, b, coeff in tail:
                k = (tuple(map(add, texps, u)), b)
                v = terms.get(k)
                if v is None:
                    terms[k] = -q * coeff
                    heappush(heap, _descending(k))
                elif v == q * coeff:
                    del terms[k]
                else:
                    terms[k] = v - q * coeff
            if alphas is not None:
                alpha, k = alphas[idx], (u, None)
                v = alpha.get(k, 0) + q
                if v:
                    alpha[k] = v
                else:
                    del alpha[k]
            c = r
        if c:
            residue[key] = c
    return residue


def _split_killed(g: ModuleElement, G: "GroebnerBasis", budget: _Budget,
                  alphas=None):
    """``(terms, length, degree)``: the terms of ``g`` for ``_reduce``, after
    sending each term on a basis vector that ``G`` kills outright
    (``G._killed``) to its generator, and the length and degree of ``g``,
    all read in one pass over ``g``.

    A term ``c*x^u*e_b`` on such a ``b`` is one reduction step by ``1*e_b``:
    it is the only generator with a term on ``b``, so it is the only
    candidate in ``_reduce``'s tie rule; ``1`` precedes every nonzero ``c``
    in the integer order, so it reduces the term to remainder 0 with
    quotient ``c``; and its empty tail, like the other generators, adds no
    term on ``b``.  Each such term is charged one step and, with ``alphas``,
    becomes the term ``c*x^u`` of that generator's alpha, as in the heap.
    ``g`` is polynomial, so its degree is the largest exponent sum.
    """
    killed = G._killed
    rest, length, degree = {}, 0, 0
    for key, c in g._raw.items():
        exps, basis = key
        length += abs(c)
        d = sum(exps)
        if d > degree:
            degree = d
        idx = killed.get(basis)
        if idx is None:
            rest[key] = c
        elif alphas is not None:
            alphas[idx][exps, None] = c
    budget.spend(len(g._raw) - len(rest))
    return rest, length, degree


def _divide(g: ModuleElement, G: "GroebnerBasis", budget: _Budget,
            alphas=None):
    """``(residue, length, degree)``: the residue of ``g`` modulo ``G``
    (``_split_killed``, then ``_reduce``), after checking that ``g`` lives
    in the basis' polynomial ambient, and the length and degree of ``g``;
    ``budget`` and ``alphas`` are ``_reduce``'s."""
    if G.generators and g.ambient != G.ambient:
        raise AmbientMismatch("element and basis live in different ambients")
    _check_polynomial(g)
    terms, length, degree = _split_killed(g, G, budget, alphas)
    residue = ModuleElement._of(g.ambient, _reduce(terms, G._tables, budget, alphas))
    return residue, length, degree


def normal_form(g: ModuleElement, G: "GroebnerBasis") -> ModuleElement:
    """NF(g) modulo the basis ``G``: the fixed point of ``_reduce_step``,
    by the reduction ``divide_with_certificate`` makes, with no alphas."""
    return _divide(g, G, _open("normal form"))[0]


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

    @cached_property
    def _tables(self):
        """Reduction tables of the generators, built once per basis."""
        return [_table(f._raw) for f in self.generators]

    @cached_property
    def _killed(self) -> dict:
        """``{basis vector b: index of its generator}`` over the vectors the
        basis kills outright: one generator is exactly ``1*e_b`` (lead
        exponents 0, leading coefficient 1, empty tail) and no other nonzero
        generator has a term on ``b``.  Read off the tables, so a basis built
        by hand with ``-1*e_b``, ``2*e_b``, a duplicate ``1*e_b`` or another
        generator with a term on ``b`` kills nothing there.  Built on the
        first division or normal form, not by ``buchberger_strong``."""
        units, touched = {}, Counter()
        for idx, table in enumerate(self._tables):
            if table is None:
                continue
            lead, basis, lc, tail = table
            if lc == 1 and not tail and not any(lead):
                units[basis] = idx
            touched.update({basis, *(b for _, b, _ in tail)})
        return {b: idx for b, idx in units.items() if touched[b] == 1}

    @cached_property
    def _ring(self) -> Ambient:
        """The ring ambient of the division's alphas."""
        return self.ambient.ring()

    @cached_property
    def _max_length(self) -> int:
        """The largest generator length; 1 for no generators."""
        return max([f.length for f in self.generators], default=1)

    @cached_property
    def _max_degree(self) -> int:
        """The largest generator degree; 0 for no generators."""
        return max([f.degree for f in self.generators], default=0)

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
            "size": _decimal(self.size),
            "bound": self.bound.to_json(),
        }


def growth_function(k: int, n: int) -> int:
    """Number of monomials of degree <= n in k polynomial variables."""
    if k < 0 or n < 0:
        raise ValueError("growth function needs non-negative arguments")
    return math.comb(n + k, k)


def buchberger_strong(F) -> GroebnerBasis:
    """Strong Groebner basis of the submodule generated by ``F`` over ZZ.

    The nonzero generators are split into components that share no basis
    vector, each in input order: a generator with terms on several vectors
    joins their components.  ``_run`` runs each component once, on its
    vectors numbered from 1 in ascending order, and ``_runs`` keeps every
    run across calls, keyed by the component's terms alone.  That is the
    basis one run over all of ``F`` computes: a pair never spans two basis
    vectors, a term on ``e_b`` reduces only by generators led on ``e_b``,
    the tie rules keep each component's generators in their relative order
    and the numbering keeps the order of its vectors, so each component's
    run is the joint run's subsequence, step for step.  A run taken from
    ``_runs`` is charged its steps again, so the step budget runs out at
    the joint run's total; a run that raises is not kept.  The union is
    sorted by leading monomial, ``origin`` is ``F``.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        return GroebnerBasis(ambient=None, generators=(), origin=())
    _check_polynomial(F[0])
    ambient = F[0].ambient
    if any(f.ambient != ambient for f in F):
        raise AmbientMismatch("generators live in different ambients")

    parts: dict = {}  # basis vector -> the vectors of its component so far
    for f in F:
        vectors = {b for _, b in f._raw}
        vectors = vectors.union(*(parts[b] for b in vectors if b in parts))
        parts.update(dict.fromkeys(vectors, vectors))
    components: dict = {}
    for f in F:
        components.setdefault(min(parts[next(iter(f._raw))[1]]), []).append(f)
    budget = _open("Groebner construction")
    token = _scope.set(budget)  # where a miss in ``_runs`` finds it
    try:
        basis = []
        for b, group in components.items():
            basis += _run(ambient, sorted(parts[b]), group, budget)
    finally:
        _scope.reset(token)
    basis.sort(key=lambda entry: monomial_key(entry[1]))
    return GroebnerBasis(ambient=ambient, generators=tuple(f for f, _ in basis),
                         origin=tuple(F))


# The 256 runs used last, for the whole process: about 2.2 MB when full.
# Four for each of the 64 contexts ``module_context`` keeps; a many-groups
# context has at most three.
@lru_cache(maxsize=256)
def _runs(group: tuple) -> tuple:
    """``(basis, steps)`` of ``_strong`` over the generators whose term
    sets ``{(exponents, basis, coefficient)}`` are ``group``, charging the
    budget of the open scope."""
    budget = _scope.get()
    left = budget.left
    found = _strong([{(exps, b): c for exps, b, c in terms} for terms in group],
                    budget)
    return found, left - budget.left


def _run(ambient: Ambient, vectors: list, group, budget: _Budget) -> list:
    """``_strong`` of the component ``group`` through ``_runs``, on its
    basis ``vectors`` (ascending) numbered from 1, back on ``vectors`` in
    ``ambient``.  A hit leaves ``budget`` as it was and is charged its steps."""
    local = {b: i for i, b in enumerate(vectors, 1)}
    left = budget.left
    found, steps = _runs(tuple(
        frozenset((exps, local[b], c) for (exps, b), c in f._raw.items())
        for f in group))
    if budget.left == left:
        budget.spend(steps)
    return [(ModuleElement._of(ambient, {(exps, vectors[b - 1]): c
                                         for (exps, b), c in terms.items()}),
             (lead, vectors[b - 1]))
            for terms, (lead, b) in found]


def _strong(F, budget: _Budget) -> list:
    """The tail-autoreduced strong basis of the nonzero term dicts ``F``,
    which it consumes, as ``(term dict, (lead exponents, lead basis))`` in
    the order the run leaves them.

    Pairs are processed smallest lcm first; both the S-polynomial (lcm of
    leading coefficients) and, when neither leading coefficient divides the
    other, the gcd-polynomial (Bezout combination) are reduced and kept when
    nonzero.  The result is tail-autoreduced so normal forms are canonical.

    Buchberger's product criterion skips a pair of generators ``f = phi*e``
    and ``g = gamma*e`` whose terms all lie on one basis vector ``e``, whose
    leading coefficients are 1 and whose leading monomials share no
    variable: the S-polynomial is then ``phi'*g - gamma'*f`` (primes drop
    the leading term), a representation below the lcm, and unit leading
    coefficients form no gcd-polynomial.  A generator with terms on another
    basis vector has no such representation: ``x*e1 + e2`` and ``y*e1``
    leave ``y*e2``.
    """
    basis: list[dict] = []
    tables: list = []
    # heap of ((sum(lcm), lcm), insertion number, i, j): pops in the order of
    # a stable sort on the lcm key; basis entries do not change until the
    # queue is empty, so the lcm stays valid.
    pairs: list = []
    inserted = count()
    # per generator: leading coefficient 1 and every term on the lead's basis
    unit_single: list[bool] = []

    def add_element(terms: dict):
        f = _reduce(terms, tables, budget)
        if not f:
            return
        f, table = _positive(f)
        basis.append(f)
        tables.append(table)
        mj, bj, cj, tail = table
        unit_single.append(cj == 1 and all(b == bj for _, b, _ in tail))
        for i, (mi, bi, _, _) in enumerate(tables[:-1]):
            if bi != bj:
                continue
            lcm = tuple(map(max, mi, mj))
            if unit_single[i] and unit_single[-1] and lcm == tuple(map(add, mi, mj)):
                continue  # product criterion
            heappush(pairs, ((sum(lcm), lcm), next(inserted), i, len(tables) - 1))

    for f in F:
        add_element(f)

    while pairs:
        (_, lcm), _, i, j = heappop(pairs)
        ti, tj = tables[i], tables[j]
        qi, qj = tuple(map(sub, lcm, ti[0])), tuple(map(sub, lcm, tj[0]))
        ci, cj = ti[2], tj[2]
        c = abs(ci * cj) // math.gcd(ci, cj)
        s_poly: dict = {}
        _add_multiple(s_poly, ti, c // ci, qi)
        _add_multiple(s_poly, tj, -(c // cj), qj)
        add_element(s_poly)
        d = math.gcd(ci, cj)
        if d != abs(ci) and d != abs(cj):
            a, b = _bezout(ci, cj)
            gcd_poly: dict = {}
            _add_multiple(gcd_poly, ti, a, qi)
            _add_multiple(gcd_poly, tj, b, qj)
            add_element(gcd_poly)

    # Tail auto-reduction until stable.
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            reduced = _reduce(dict(basis[idx]),
                              tables[:idx] + tables[idx + 1:], budget)
            if not reduced:
                del basis[idx], tables[idx]
                changed = True
                break
            if reduced != basis[idx]:
                basis[idx], tables[idx] = _positive(reduced)
                changed = True
                break

    return [(f, table[:2]) for f, table in zip(basis, tables)]


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


def divide_with_certificate(g: ModuleElement, G: GroebnerBasis) -> DivisionCertificate:
    """Divide ``g`` by the basis, with coefficients aligned to its generators.

    Always cancels the largest reducible term; the bound field evaluates the
    chain |a_j| <= p(1+C)^(j-1) over at most m*G_k(deg g) steps with
    C = max generator length (``certificate_bound``).  One pass over ``g``
    reads its length and degree for the bound and sends the terms on a
    basis vector that the basis kills outright (one generator is ``1*e_b``,
    no other has a term on ``b``) to that generator's alpha: the heap would
    reduce each of them by ``1*e_b`` alone, in one step and with no new
    term, so the steps, alphas and residue are the heap's.  ``size`` is
    summed from the alphas' term dicts.
    """
    alphas = [{} for _ in G.generators]
    budget = _open("division")
    left = budget.left
    residue, length, degree = _divide(g, G, budget, alphas)
    size = sum(sum(map(abs, alpha.values())) for alpha in alphas)
    ring = G._ring if alphas else None
    coefficients = tuple(ModuleElement._of(ring, alpha) for alpha in alphas)
    return DivisionCertificate(coefficients, residue, left - budget.left, size,
                               _bound(length, degree, G, g.ambient))


def certificate_bound(g: ModuleElement, G: GroebnerBasis) -> Bound:
    """p * sum_{j<R} (1+C)^j with p = max(|g|, 1), R = m*G_k(deg g),
    C = max generator length."""
    return _bound(g.length, g.degree, G, g.ambient)


def _bound(length: int, degree: int, G: GroebnerBasis, ambient: Ambient) -> Bound:
    """``certificate_bound`` of an element of ``ambient`` with this length
    and degree."""
    p = max(length, 1)
    if not G.generators:
        return Bound.of(p)
    c = max(1, G._max_length)
    r = ambient.rank * growth_function(ambient.nvars, degree)
    # geometric series 1 + (1+C) + ... + (1+C)^(R-1) = ((1+C)^R - 1)/C
    return Bound(((p, 1 + c, r), (-p, 1, 1)), c)


def verify_certificate(g: ModuleElement, cert: DivisionCertificate,
                       G: GroebnerBasis) -> bool:
    """Check a division certificate with plain ring arithmetic.

    Recomputes ``residue + sum_i alpha_i * f_i`` and compares it with ``g``,
    recounts ``size`` from the alphas and checks it against the closed-form
    bound recomputed for ``g``; nothing here runs the divider.  An alpha
    outside the coefficient ring of ``g``, or with a basis part, is rejected.
    """
    if (len(cert.coefficients) != len(G.generators)
            or any(a.ambient != g.ambient.ring() for a in cert.coefficients)
            or any(b is not None for a in cert.coefficients for _, b in a._raw)):
        return False
    total = cert.residue.as_dict()
    for alpha, f in zip(cert.coefficients, G.generators):
        _sum(total, _product(f.as_dict(), alpha.as_dict(), tuple))
    bound = certificate_bound(g, G)
    return (ModuleElement.from_dict(cert.residue.ambient, total) == g
            and cert.size == sum(a.length for a in cert.coefficients)
            and cert.bound == bound and cert.size <= bound)


# ---------------------------------------------------------------------------
# Laurent / torsion embedding.


def laurent_embed(F, ambient: Ambient):
    """Embed Laurent-module generators ``F`` of ``ambient`` into a
    polynomial ambient.

    Introduces an inverse variable for every infinite-order variable, the
    j-th one's at position ``nvars + j``, shifts each generator to
    non-negative exponents by a unit monomial, and appends the unit relators ``t_i*s_i - 1`` (free) and ``t_i^(d_i) - 1`` (torsion)
    in every basis component.  Returns ``(poly_ambient, embedded_generators,
    embed)`` where ``embed`` maps further Laurent elements into the
    polynomial ambient the same way.
    """
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
        raw = g._raw
        shift = [0] * ambient.nvars
        for i in free_idx:
            shift[i] = max(0, -min((exps[i] for exps, _ in raw), default=0))
        tail = (0,) * pad
        return ModuleElement._of(poly, {
            (tuple(map(add, exps, shift)) + tail, basis): c
            for (exps, basis), c in raw.items()})

    embedded = [embed(f) for f in F if not f.is_zero()]
    nv, zero = poly.nvars, (0,) * poly.nvars
    # the lead monomials of t_i*s_i - 1 and then of t_i^(d_i) - 1
    units = [tuple(int(q in (i, ambient.nvars + j)) for q in range(nv))
             for j, i in enumerate(free_idx)]
    units += [tuple(d * (q == i) for q in range(nv))
              for i, d in enumerate(ambient.torsion) if d]
    embedded += [ModuleElement.from_dict(poly, {(u, b): 1, (zero, b): -1})
                 for u in units for b in range(1, ambient.rank + 1)]
    return poly, embedded, embed


def laurent_normal_form(g: ModuleElement, G: GroebnerBasis) -> ModuleElement:
    """The normal form of a Laurent element modulo ``G``, a basis in the
    ambient ``laurent_embed`` builds for ``g.ambient``, as a Laurent element.

    ``embed`` shifts an element by its own unit monomial, which keeps
    membership but not the class: ``a`` and ``t^-1*a`` would embed alike.
    Here ``t^-k`` becomes ``t__inv^k`` instead (the basis holds
    ``t*t__inv - 1``), so equal classes reduce to one residue, whose term
    ``t^i*t__inv^j`` is read back as ``t^(i - j)``.  An empty basis leaves
    ``g`` as it is."""
    if not G.generators:
        return g
    amb = g.ambient
    free_idx = [i for i, d in enumerate(amb.torsion) if d == 0]
    raw = {(tuple(max(e, 0) for e in exps)
            + tuple(max(-exps[i], 0) for i in free_idx), basis): c
           for (exps, basis), c in g._raw.items()}
    residue = normal_form(ModuleElement._of(G.ambient, raw), G)
    back = {}
    for (exps, basis), c in residue._raw.items():
        laurent = list(exps[:amb.nvars])
        for j, i in enumerate(free_idx):
            laurent[i] -= exps[amb.nvars + j]
        key = (tuple(laurent), basis)
        back[key] = back.get(key, 0) + c
    return ModuleElement.from_dict(amb, back)
