"""Deciding the word problem and assembling area certificates.

A word is trivial iff its exponent sums vanish and its ordered form lies in
the submodule generated by the relator vectors; membership is decided by
Groebner normal forms after embedding the Laurent ambient, and certified by
an exact division.  A brute-force enumerator over bounded combinations
serves as the independent oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .bounds import Bound, _json_int
from .collection import CostLedger, ordered_form, relator_module
from .elements import ModuleElement, _sum, monomial_word_degree
from .errors import ExponentSumError
from .groebner import (DivisionCertificate, GroebnerBasis, buchberger_strong,
                       divide_with_certificate, laurent_embed)
from .presentation import GroupWord, Presentation


@dataclass(frozen=True)
class ModuleContext:
    """Cached relator-submodule data for one presentation, with its
    constant K (``constant_k``)."""

    relator_vectors: tuple[ModuleElement, ...]
    basis: GroebnerBasis
    embed: callable
    k: Optional[int]


# The contexts of the last 64 presentations used.  A repeated file text
# parses to the same instance, found by identity; an equal presentation
# parsed from another text hits too, and the hit keeps the first key, so it
# is not held twice.  ``module_context.cache_info()`` counts hits and misses.
@lru_cache(maxsize=64)
def module_context(p: Presentation) -> ModuleContext:
    vectors = tuple(relator_module(p))
    _, embedded, embed = laurent_embed(list(vectors), p.module_ambient())
    return ModuleContext(vectors, buchberger_strong(embedded), embed,
                         constant_k(p))


# The floor K1 of the constant K.
_K1 = 2


def constant_k(p: Presentation) -> Optional[int]:
    """K = max(K1, K2^(2k)) with K2 = max over the tameness datum of
    (coefficient l1-norm) + 2; None without a tameness datum."""
    if p.tameness is None:
        return None
    lams = p.tameness.all_elements()
    if not lams:
        return None
    k2 = max(lam.length for lam in lams) + 2
    k = max(1, p.free_rank)
    return max(_K1, k2 ** (2 * k))


@dataclass(frozen=True)
class AreaCertificate:
    """A verdict and its witnesses.  ``ledger.absolute_total`` and
    ``witnessed_cost`` are areas over the given relators plus every
    commutator ``[x^u, y^v]`` of module-letter conjugates, each counted as
    one relation: ``[t^3*a*t^-3, a]`` in BS(1,2) has ``witnessed_cost`` 1."""

    word_length: int
    identity: bool
    ordered: Optional[ModuleElement]
    ledger: CostLedger
    membership: Optional[DivisionCertificate]
    assembly_bound: Optional[Bound]
    relative_bound: Optional[Bound]

    @property
    def witnessed_cost(self) -> int:
        size = self.membership.size if self.membership else 0
        return self.ledger.absolute_total + size

    @property
    def witnessed_relative(self) -> int:
        size = self.membership.size if self.membership else 0
        return self.ledger.relative_total + size

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "word_length": _json_int(self.word_length),
            "ordered_form": self.ordered.render()
            if self.ordered is not None else None,
            "ledger": self.ledger.to_json(),
            "membership": self.membership.to_json() if self.membership else None,
            "witnessed_cost": _json_int(self.witnessed_cost),
            "assembly_bound": self.assembly_bound.to_json()
            if self.assembly_bound is not None else None,
            "relative_bound": self.relative_bound.to_json()
            if self.relative_bound is not None else None,
        }


def _assembly_bound(n: int, K: Optional[int], basis: GroebnerBasis,
                    m: int, k: int) -> Optional[Bound]:
    """C^(n^(2k)) + (n + n^2)^2 C^(2n) + (n + n^2) (2C)^n + n^2, unexpanded."""
    if K is None:
        return None
    n = max(n, 1)
    P, Q = basis._max_length, basis._max_degree or 1
    C = max(K, 4 * max(m, 1) ** 2 * P ** 2 * Q * K)
    exponent = n ** (2 * k) if k > 0 else 1
    return Bound(((1, C, exponent), ((n + n ** 2) ** 2, C, 2 * n),
                  (n + n ** 2, 2 * C, n), (1, n, 2)))


def _relative_bound(n: int, size: int) -> Bound:
    """n^2 + (4n-3)(n+n^2) + (4n-3)^2 (n+n^2)^2 + s + s^3."""
    n = max(n, 1)
    return Bound(((1, n, 2), (4 * n - 3, n + n ** 2, 1),
                  ((4 * n - 3) ** 2, n + n ** 2, 2), (1, size, 1), (1, size, 3)))


def is_identity(w: GroupWord, p: Presentation) -> tuple[bool, AreaCertificate]:
    """Decide w = 1, returning the decision with its certificate.  A word
    off the kernel, whose nonzero t-exponent sums ``ordered_form`` refuses
    with ExponentSumError before it prices any conjugator, gets False and
    an empty certificate.  A kernel word's embedded vector is divided once
    (``divide_with_certificate``, whose one pass over it also reads the
    bound's length and degree); the basis and the constant K come from
    ``module_context``, built once per presentation."""
    n = w.length
    try:
        vector, ledger = ordered_form(w, p)
    except ExponentSumError:
        cert = AreaCertificate(n, False, None, CostLedger(), None, None, None)
        return False, cert
    ctx = module_context(p)
    membership = divide_with_certificate(ctx.embed(vector), ctx.basis)
    identity = membership.residue.is_zero()
    bound = _assembly_bound(n, ctx.k, ctx.basis, len(p.module_gens),
                            p.free_rank)
    rel = _relative_bound(n, membership.size)
    cert = AreaCertificate(n, identity, vector, ledger, membership, bound, rel)
    return identity, cert


# ---------------------------------------------------------------------------
# Independent oracle.


def _monomial_pool(ambient, max_degree: int):
    """All exponent vectors of degree <= max_degree (torsion within order),
    sorted; built coordinate by coordinate, so no prefix past it is kept."""
    pool = [((), 0)]
    for d in ambient.torsion:
        r = (range(0, min(d - 1, max_degree) + 1) if d
             else range(-max_degree, max_degree + 1))
        pool = [(e + (x,), deg + abs(x)) for e, deg in pool for x in r
                if deg + abs(x) <= max_degree]
    return sorted(e for e, _ in pool)


def _walk(products, total: int, max_mag: int, visit) -> bool:
    """Call ``visit`` on the term dict of every sum ``sum_i c_i products[i]``
    over increasing indices with ``1 <= |c_i| <= max_mag`` and
    ``sum_i |c_i| = total``; stop and return True once ``visit`` does.

    One dict is updated in place along the walk, so ``visit`` must copy what
    it keeps.
    """
    partial: dict = {}

    def search(start: int, remaining: int) -> bool:
        if remaining == 0:
            return visit(partial)
        for idx in range(start, len(products)):
            for mag in range(1, min(max_mag, remaining) + 1):
                for sign in (1, -1):
                    _sum(partial, products[idx], sign * mag)
                    if search(idx + 1, remaining - mag):
                        return True
                    _sum(partial, products[idx], -sign * mag)
        return False

    return search(0, total)


def brute_force_min_certificate(g: ModuleElement, gens, budget):
    """Exhaustive minimal certificate search; None means budget exhausted.

    Enumerates combinations sum_i alpha_i * gens_i with alpha monomials of
    degree <= budget[0], coefficients bounded by budget[1], in increasing
    total size, and returns the first total size reproducing g exactly.
    A negative budget part raises ValueError.
    """
    max_degree, max_coeff, max_size = budget
    if min(budget) < 0:
        raise ValueError("budget parts must be non-negative")
    gens = [f for f in gens if not f.is_zero()]
    target = g.as_dict()
    if not gens:
        return 0 if not target else None
    pool = _monomial_pool(gens[0].ambient, max_degree)
    products = [f.scale_translate(1, e).as_dict() for f in gens for e in pool]
    for size in range(0, max_size + 1):
        if _walk(products, size, max_coeff, target.__eq__):
            return size
    return None


# ---------------------------------------------------------------------------
# Module Dehn function estimation and growth profiles.


def module_dehn_upper(p: Presentation, n: int, sampler: str = "exhaustive",
                      samples: int = 200, seed: int = 0):
    """Certificate-size table over submodule elements of norm <= n.

    Returns a sorted list of rows ``(norm, max_certificate_size)``.
    """
    if n < 0:
        raise ValueError(f"module-dehn needs n >= 0, got n = {n}")
    if samples < 0:
        raise ValueError(f"module-dehn needs samples >= 0, got samples = {samples}")
    ctx = module_context(p)
    gens = [f for f in ctx.relator_vectors if not f.is_zero()]
    if not gens:
        return []
    ambient = gens[0].ambient
    word_degree: dict = {}
    found: dict[frozenset, tuple[int, int]] = {}  # sum -> (norm, size)

    def consider(raw: dict):
        """Certify the sum whose reduced term dict is ``raw``, once, if
        its norm is within ``n``; an element is built only then."""
        if not raw:
            return
        norm = 0
        for (exps, _), coeff in raw.items():
            wd = word_degree.get(exps)
            if wd is None:
                wd = word_degree[exps] = monomial_word_degree(ambient, exps)
            norm += abs(coeff) * (2 * wd + 1)
            if norm > n:
                return
        key = frozenset(raw.items())
        if key not in found:
            f = ModuleElement.from_dict(ambient, raw)
            cert = divide_with_certificate(ctx.embed(f), ctx.basis)
            found[key] = (norm, cert.size)

    if sampler == "exhaustive":
        pool = _monomial_pool(ambient, max_degree=max(0, (n - 1) // 2))
        products = [f.scale_translate(1, e).as_dict()
                    for f in gens for e in pool]
        for total in range(min(n, 4) + 1):
            _walk(products, total, total, consider)
    elif sampler == "random":
        rng = random.Random(seed)
        pool = _monomial_pool(ambient, max_degree=max(1, n // 2))
        for _ in range(samples):
            raw: dict = {}
            for _ in range(rng.randrange(1, 4)):
                f = gens[rng.randrange(len(gens))]
                exps = pool[rng.randrange(len(pool))]
                c = rng.choice([-2, -1, 1, 2])
                _sum(raw, f.scale_translate(c, exps)._raw)
            consider(raw)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    by_norm: dict[int, int] = {}
    for norm, size in found.values():
        by_norm[norm] = max(by_norm.get(norm, 0), size)
    return sorted(by_norm.items())


def random_identity_word(p: Presentation, n: int, rng: random.Random) -> GroupWord:
    """A random trivial word of about ``n`` letters.

    It is a product of at least one conjugate ``r^v`` of a relator or its
    inverse by a random t-word ``v`` of at most ``n // 2`` letters, so it is
    trivial by construction and its certificate sizes stay visible.  Without
    a non-empty relator it is the empty word.
    """
    relators = [r for r in p.relators if r.length]
    w = GroupWord(())
    while relators:
        r = rng.choice(relators)
        size = rng.randrange(n // 2 + 1) if p.t_names else 0
        v = GroupWord.from_letters(
            [(rng.choice(p.t_names), rng.choice([-1, 1])) for _ in range(size)])
        w = w * (r if rng.random() < 0.5 else r.inverse()).conjugate_by(v)
        if w.length >= n:
            break
    return w


def dehn_profile(p: Presentation, n_max: int, samples: int = 10, seed: int = 0,
                 witnesses=None):
    """Growth table rows (n, max witnessed cost, max certificate size, bound).

    Random trivial words of bounded length are sampled per row; hard-coded
    preset witness families may be passed as ``witnesses(n) -> [GroupWord]``.
    """
    if n_max < 2:
        raise ValueError("profile needs n_max >= 2")
    if samples < 0:
        raise ValueError(f"profile needs samples >= 0, got samples = {samples}")
    rng = random.Random(seed)
    ctx = module_context(p)
    rows = []
    for n in range(2, n_max + 1):
        max_cost = 0
        max_size = 0
        words = [random_identity_word(p, n, rng) for _ in range(samples)]
        if witnesses is not None:
            words.extend(witnesses(n))
        for w in words:
            ok, cert = is_identity(w, p)
            if not ok:
                raise AssertionError(f"profile word {w} is not an identity")
            max_cost = max(max_cost, cert.witnessed_cost)
            max_size = max(max_size, cert.membership.size)
        bound = _assembly_bound(n, ctx.k, ctx.basis, len(p.module_gens), p.free_rank)
        rows.append((n, max_cost, max_size, str(bound) if bound is not None else ""))
    return rows


def fit_power(ns, ys) -> float:
    """Least-squares exponent of y ~ n^rho on positive data."""
    pts = [(math.log(n), math.log(max(y, 1))) for n, y in zip(ns, ys) if n > 1]
    return _slope(pts)


def fit_exp(ns, ys) -> float:
    """Least-squares slope of ln(y) against n."""
    pts = [(float(n), math.log(max(y, 1))) for n, y in zip(ns, ys)]
    return _slope(pts)


def _slope(pts) -> float:
    if len(pts) < 2:
        return 0.0
    mean_x = sum(x for x, _ in pts) / len(pts)
    mean_y = sum(y for _, y in pts) / len(pts)
    num = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    den = sum((x - mean_x) ** 2 for x, y in pts)
    return num / den if den else 0.0
