"""Shared builders for randomized tests, and uncached reference renderers."""

import math
import random
import sys
from contextlib import contextmanager

from metabelian.bounds import Bound, _decimal, _json_int
from metabelian.elements import Ambient, ModuleElement
from metabelian.order import int_key, monomial_key
from metabelian.presentation import GroupWord, Presentation, exponent_sums
from metabelian.presets import PresetSpec, build

BS2 = build(PresetSpec("bs", n=2))
GAMMA = build(PresetSpec("baumslag_gamma"))
LAMPLIGHTER2 = build(PresetSpec("lamplighter", m=2))
FREE_ABELIAN = build(PresetSpec("free_abelian"))
WF11 = build(PresetSpec("wf", r=1, k=1))


def random_element(rng: random.Random, ambient: Ambient, max_degree=2,
                   max_coeff=3, max_terms=3) -> ModuleElement:
    raw = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = []
        for d in ambient.torsion:
            if d:
                exps.append(rng.randrange(0, d))
            elif ambient.laurent:
                exps.append(rng.randint(-max_degree, max_degree))
            else:
                exps.append(rng.randint(0, max_degree))
        basis = rng.randint(1, ambient.rank) if not ambient.is_ring() else None
        c = rng.randint(-max_coeff, max_coeff)
        key = (tuple(exps), basis)
        raw[key] = raw.get(key, 0) + c
    return ModuleElement.from_dict(ambient, raw)


def terms(g: ModuleElement) -> list:
    """The ``(monomial, coefficient)`` pairs of ``g``, largest monomial
    first; a monomial is a term dict key ``(exponents, basis)``."""
    raw = g.as_dict()
    return [(m, raw[m]) for m in sorted(raw, key=monomial_key, reverse=True)]


def term_key(monomial, coefficient):
    """Ascending key for a term: monomial, then coefficient under int_key."""
    return (monomial_key(monomial), int_key(coefficient))


def element_key(g: ModuleElement):
    """Ascending key for a whole element: its descending terms, keyed.

    Python's tuple order applies the recursive rule: equal leading terms
    are skipped, a strict prefix (the element that ran out of terms first)
    is smaller, which matches 0 being the least element.
    """
    return tuple(term_key(m, c) for m, c in terms(g))


def random_kernel_word(p, rng: random.Random, n: int) -> GroupWord:
    """A random freely reduced word with zero t-exponent sums."""
    names = list(p.module_gens) + list(p.t_names)
    letters = [(rng.choice(names), rng.choice([-1, 1])) for _ in range(n)]
    w = GroupWord.from_letters(letters)
    sums = exponent_sums(w, p)
    fix = []
    for name, s, d in zip(p.t_names, sums, p.torsion_orders):
        if d and s:
            fix.append((name, d - s))
        elif s:
            fix.append((name, -s))
    return w * GroupWord.from_letters(fix)


def render_ordered_word(vector: ModuleElement, p: Presentation) -> GroupWord:
    """The group word a_1^{lam_1}...a_m^{lam_m} realizing a module vector."""
    letters = []
    amb = vector.ambient
    ordered = terms(vector)
    for b in range(1, amb.rank + 1):
        name = amb.basis_names[b - 1]
        for (exps, basis), c in ordered:
            if basis != b:
                continue
            conj = []
            for i, e in enumerate(exps):
                if e:
                    conj.append((amb.variables[i], e))
            letters.extend((n, -e) for n, e in reversed(conj))
            letters.append((name, c))
            letters.extend(conj)
    return GroupWord.from_letters(letters)


@contextmanager
def int_max_str_digits(limit: int):
    """Python's int-to-str digit limit set to ``limit`` for the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def reference_bound_json(b: Bound) -> dict:
    """``b.to_json()`` rendered afresh: ``expression``, ``log2`` rounded to
    six decimals (past the float range, the integer midpoint of its exact
    span; None for a value of 0) and, for a bound of at most
    ``VALUE_MAX_BITS`` bits, ``value``."""
    log2 = b.log2()
    if log2 == math.inf:
        lo, hi = b._log2_span()
        log2 = _json_int(round(lo / 2 + hi / 2))
    elif log2 == -math.inf:
        log2 = None
    else:
        log2 = round(log2, 6)
    doc = {"expression": b.expression, "log2": log2}
    if b.is_short():
        doc["value"] = str(int(b))
    return doc


def reference_bound_str(b: Bound) -> str:
    """``str(b)`` rendered afresh: the decimal value of a short bound, else
    the closed form."""
    return str(int(b)) if b.is_short() else b.expression


def _reference_ring_text(monomials, raw: dict, names) -> str:
    parts = []
    for m in monomials:
        c = raw[m]
        body = "*".join([v if e == 1 else f"{v}^{_decimal(e)}"
                         for v, e in zip(names, m[0]) if e])
        mag = abs(c)
        if not body:
            body = _decimal(mag)
        elif mag != 1:
            body = f"{_decimal(mag)}*{body}"
        parts.append((" - " if c < 0 else " + ") + body)
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def reference_render(g: ModuleElement) -> str:
    """``render_element(g)`` with every monomial's text written afresh."""
    raw = g.as_dict()
    if not raw:
        return "0"
    amb = g.ambient
    order = sorted(raw, key=monomial_key, reverse=True)
    if amb.is_ring():
        return _reference_ring_text(order, raw, amb.variables)
    groups: dict = {}
    for m in order:
        groups.setdefault(m[1], []).append(m)
    parts = []
    for b in sorted(groups):
        monomials = groups[b]
        name = amb.basis_names[b - 1]
        text = _reference_ring_text(monomials, raw, amb.variables)
        if len(monomials) > 1:
            text = f"({text})*{name}"
        elif text in ("1", "-1"):
            text = text[:-1] + name
        else:
            text = f"{text}*{name}"
        parts.append(f" - {text[1:]}" if text[0] == "-" else f" + {text}")
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]
