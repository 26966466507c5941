"""Seeded request decks for the three workloads, with reference answers.

A deck is the list of requests one pass of the closed loop sends; a run
repeats it a fixed number of times.  Everything here is derived from the
seed with the benchmark's own ``random.Random``, and every expected verdict
comes from ``models`` or from the construction of the word, never from the
program.

Why each workload exists, and the layer it isolates:

* ``bs-certify``: BS(1,2) and BS(1,3) carry the only tameness datum among
  the presets, so this is where the closed-form bounds (integers of about
  9 * length^2 bits) and the certificate JSON dominate; division stays
  short.  Word lengths are spread evenly in log scale over [8, 512].
* ``multigen-identities``: identities in groups with two or more acting
  generators and no tameness datum.  Collection (the metabelian law
  ``[[x,y],[z,w]]``) and Groebner division (Z^2 commutators, ``wf`` action
  words with long reduction chains) do the work; bound arithmetic does none.
* ``many-groups``: every request carries its presentation as JSON text, so
  presentation parsing and Groebner construction (on a cold context cache)
  sit on the request path.  Pool popularity is Zipf-skewed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

from models import model_for, nontrivial_letter, wf_names
from words import commutator, conjugate, inverse, length, product, render, t_sums

# Longest bs-certify word.  The assembly bound has about 9 * n^2 bits for a
# word of length n: 2.4M bits and 0.1 s at n = 512, but 155M bits and 59 s
# at n = 4121, so longer words would make a run's memory and time unbounded.
MAX_BS_LENGTH = 512
MIN_BS_LENGTH = 8
# many-groups words stay short so that the request path is parsing and
# Groebner construction, not collection.
MAX_MANY_LENGTH = 24

# multigen-identities: a third of the deck, 144 words, covers the Z^2 grid once.
DECK_SIZE = {"bs-certify": 384, "multigen-identities": 432, "many-groups": 400}
# Nominal seconds of one pass over the deck on a 2-vCPU x86 host at the
# parent commit when other tenants load it (many-groups: one pass in a fresh
# interpreter, so with a cold context cache, plus that interpreter's start).
# A run makes about --seconds / PASS_SECONDS passes.
PASS_SECONDS = {"bs-certify": 4.5, "multigen-identities": 5.0, "many-groups": 3.75}


@dataclass(frozen=True)
class Request:
    word: str                 # word text in the DSL
    fixture: int              # index into the workload's fixtures
    expected: bool            # reference verdict
    length: int
    kind: str


class Group:
    """Generator names, relators and reference model of one fixture."""

    def __init__(self, fixture):
        p = fixture.presentation
        self.params = fixture.params
        self.module = list(p.module_gens)
        self.t_names = list(p.free_gens) + [name for name, _ in p.torsion_gens]
        self.orders = [0] * len(p.free_gens) + [d for _, d in p.torsion_gens]
        self.relators = [list(r.letters) for r in p.relators]
        self.model = model_for(fixture.params)
        self.bump = nontrivial_letter(fixture.params)

    def balanced(self, letters):
        """Append the t-letters that make every exponent sum vanish."""
        fix = []
        for name, s, d in zip(self.t_names, t_sums(letters, self.t_names), self.orders):
            s = s % d if d else s
            if s:
                fix.append((name, -s))
        return product(letters, fix)

    def random_word(self, rng, target):
        """A freely reduced word of ``target`` letters over all generators.

        Acting letters follow a walk that drifts back to exponent sum zero,
        so balancing the sums afterwards adds few letters.
        """
        names = self.module + self.t_names
        sums = dict.fromkeys(self.t_names, 0)
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
        return out

    def zero_sum_word(self, rng, target):
        return self.balanced(self.random_word(rng, max(1, target - 2)))

    def relator_product(self, rng, target, pieces, conjugator=None):
        """A product of conjugated relators r^v, one of the trivial kinds."""
        conjugator = conjugator or self.random_word
        short = [r for r in self.relators if length(r) <= max(1, target // pieces)]
        short = short or [min(self.relators, key=length)]
        out = []
        for _ in range(pieces):
            r = rng.choice(short)
            if rng.random() < 0.5:
                r = inverse(r)
            v_len = max(0, (target // pieces - length(r)) // 2)
            out = product(out, conjugate(r, conjugator(rng, v_len)))
        return out

    def metabelian_law(self, rng, factor_lengths):
        """[[x,y],[z,w]] for random factors, redrawn while it reduces freely
        to the empty word."""
        letters = []
        while not letters:
            x, y, z, w = (self.random_word(rng, n) for n in factor_lengths)
            letters = commutator(commutator(x, y), commutator(z, w))
        return letters

    def perturbed(self, rng, letters):
        """Insert the non-trivial letter (or its inverse) at a random place.

        ``x y`` trivial gives ``x g y = (x g x^-1)(x y)``, a conjugate of g."""
        cut = rng.randint(0, len(letters))
        return product(letters[:cut], [(self.bump, rng.choice((1, -1)))], letters[cut:])


def _request(group, index, letters, kind, intended):
    """Fix the reference verdict of a constructed word.

    ``intended`` is True or False for words trivial or non-trivial by
    construction, None for random words.  The model image must agree with
    the construction (a homomorphism maps trivial words to the identity; a
    non-trivial image certifies non-triviality).  A random word is decided by
    a faithful model, or by a non-identity image; otherwise no reference
    exists and None is returned.
    """
    trivial = group.model.is_trivial(letters)
    if intended is None:
        if trivial and not group.model.faithful:
            return None
    elif intended != trivial:
        raise AssertionError(f"{kind} word {render(letters)} contradicts its model")
    return Request(render(letters), index, trivial, length(letters), kind)


def _strata(rng, count):
    """One point in each of ``count`` equal strata of [0, 1), in random
    order: every seed's deck covers the range evenly, so the mix of lengths,
    and with it the run's cost and its slowest requests, barely depends on
    the seed."""
    order = list(range(count))
    rng.shuffle(order)
    return [(k + rng.random()) / count for k in order]


def bs_word(rng, target):
    """A zero t-sum BS word of exactly ``target`` letters (at least 2).

    The t-depth visits about sqrt(target) random levels within +-log2(target)
    and returns to 0, with an ``a`` power at every level.  Long words thus
    have few, large module terms: collection stays cheap and the closed-form
    bounds dominate, as they do on the ``t^k a t^-k a^-(n^k)`` witnesses.
    """
    depth = max(1, target.bit_length() - 3)
    levels, prev = [], 0
    for _ in range(max(1, math.isqrt(target) // 2)):
        level = rng.choice([d for d in range(-depth, depth + 1) if d != prev])
        # t-letters of the path 0 -> levels -> level -> 0, plus one a-letter
        # at each of its stops
        path = [0] + levels + [level, 0]
        if sum(abs(b - a) for a, b in zip(path, path[1:])) + len(path) > target:
            break
        levels.append(level)
        prev = level
    if levels and levels[-1] == 0:
        levels.pop()
    steps = [b - a for a, b in zip([0] + levels, levels + [0])] if levels else []
    a_total = target - sum(abs(s) for s in steps)
    cuts = sorted(rng.sample(range(1, a_total), len(steps)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [a_total])]
    letters = [("a", rng.choice((1, -1)) * parts[0])]
    for step, part in zip(steps, parts[1:]):
        letters += [("t", step), ("a", rng.choice((1, -1)) * part)]
    return letters


def bs_certify(groups, rng, size):
    """BS(1,2) and BS(1,3) words, log-spread lengths, half of them trivial."""
    deck = []
    kinds = ("witness", "witness+", "relators", "relators+", "commutator", "random")
    # i % 12 picks the kind and the group; each of these 12 cells gets its
    # own stratified lengths
    cells = 2 * len(kinds)
    points = [_strata(rng, -(-size // cells)) for _ in range(cells)]
    for i in range(size):
        q = points[i % cells][i // cells]
        index = (i // len(kinds)) % 2
        group, n = groups[index], groups[index].params["n"]
        # one letter is left for the perturbation of the "+" kinds
        target = round(MIN_BS_LENGTH * ((MAX_BS_LENGTH - 1) / MIN_BS_LENGTH) ** q)
        kind = kinds[i % len(kinds)]
        if kind.startswith("witness"):
            k = 1
            while n ** (k + 1) + 2 * k + 3 <= target - 1:
                k += 1
            witness = [("t", k), ("a", 1), ("t", -k), ("a", -n ** k)]
            v_len = (target - 1 - length(witness)) // 2
            letters = conjugate(witness, bs_word(rng, v_len) if v_len >= 2 else [])
        elif kind.startswith("relators"):
            letters = group.relator_product(
                rng, target - 1, rng.randint(1, 4),
                lambda rng, v_len: bs_word(rng, v_len) if v_len >= 2 else [])
        elif kind == "commutator":
            letters = commutator(bs_word(rng, target // 4), bs_word(rng, target // 4))
        else:
            letters = bs_word(rng, target - 1)
        if kind.endswith("+"):
            letters = group.perturbed(rng, letters)
        intended = None if kind == "random" else not kind.endswith("+")
        if length(letters) > MAX_BS_LENGTH:
            raise AssertionError(f"{kind} word of length {length(letters)} exceeds the cap")
        deck.append(_request(group, index, letters, kind, intended))
    return deck


def _poly_power(coeffs, n):
    out = [1]
    for _ in range(n):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(coeffs):
                nxt[i + j] += x * y
        out = nxt
    return out


def action_word(group, n):
    """a1^(u1^n) * (a1^(f^n))^-1 with (a1^c)^(t1^e) for each term c*t1^e of f^n:
    trivial because u1 acts on a1 as f(t1)."""
    a, u, t, _ = wf_names(group.params["r"], group.params["k"], group.params["torsion_orders"])
    f_side = []
    for e, c in enumerate(_poly_power(group.params["fs"][0], n)):
        f_side = product(f_side, conjugate([(a[0], c)], [(t[0], e)]))
    return product(conjugate([(a[0], 1)], [(u[0], n)]), inverse(f_side))


# multigen-identities fixtures: 0 wf(r=1,k=2), 1 baumslag_gamma, 2 free_abelian,
# 3 wf(r=1,k=1) with f = 1 + t + t^2.  Law factors stay short in wf(k=2):
# two-letter factors cost up to 0.1 s per word, three-letter ones up to 0.6 s.
_LAW_FACTORS = {0: (1, 2), 1: (2, 3), 2: (3, 4)}
# Z^2 commutators [t1^a, t2^b] divide in about a*b steps; wf action words
# a1^(u1^n) * (a1^(f^n))^-1 in about n^2.
_Z2_MAX = 12
_ACTION_MAX = 8


def _shuffled_cycle(rng, options, count):
    """``count`` items cycling through seed-shuffled copies of ``options``:
    every option appears equally often, whatever the seed."""
    out = []
    while len(out) < count:
        block = list(options)
        rng.shuffle(block)
        out += block
    return out[:count]


def product_grid(low, high, repeat):
    return list(itertools.product(range(low, high + 1), repeat=repeat))


def multigen_identities(groups, rng, size):
    kinds = ("law", "z2", "law", "action", "law", "z2")
    counts = Counter(kinds[i % len(kinds)] for i in range(size))
    laws = {index: iter(_shuffled_cycle(rng, product_grid(*_LAW_FACTORS[index], 4), size))
            for index in _LAW_FACTORS}
    cells = iter(_shuffled_cycle(rng, product_grid(1, _Z2_MAX, 2), counts["z2"]))
    powers = iter(_shuffled_cycle(rng, range(1, _ACTION_MAX + 1), counts["action"]))
    deck = []
    for i in range(size):
        kind = kinds[i % len(kinds)]
        if kind == "law":
            index = (i // 2) % 3
            letters = groups[index].metabelian_law(rng, next(laws[index]))
        elif kind == "z2":
            index = 2
            a, b = next(cells)
            letters = commutator([("t1", a)], [("t2", b)])
        else:
            index = 0 if (i // len(kinds)) % 2 else 3
            letters = action_word(groups[index], next(powers))
        deck.append(_request(groups[index], index, letters, kind, True))
    return deck


def zipf_counts(pool_size, size, s=1.0):
    """Requests per pool entry: proportional to 1/rank^s, at least two each,
    so every presentation misses the context cache once and then hits."""
    weights = [1 / (rank + 1) ** s for rank in range(pool_size)]
    spare = size - 2 * pool_size
    total = sum(weights)
    counts = [2 + int(spare * w / total) for w in weights]
    for rank in range(size - sum(counts)):
        counts[rank % pool_size] += 1
    return counts


def many_groups(groups, rng, size):
    kinds = ("relators", "perturbed", "law", "random")
    slots = []
    for index, count in enumerate(zipf_counts(len(groups), size)):
        start = rng.randrange(len(kinds))
        slots += [(index, kinds[(start + j) % len(kinds)]) for j in range(count)]
    rng.shuffle(slots)
    deck = []
    for index, kind in slots:
        group = groups[index]
        request = None
        while request is None:
            if kind == "relators":
                letters = group.relator_product(rng, MAX_MANY_LENGTH - 4, rng.randint(1, 2))
                intended = True
            elif kind == "perturbed":
                letters = group.perturbed(
                    rng, group.relator_product(rng, MAX_MANY_LENGTH - 6, 1))
                intended = False
            elif kind == "law":
                letters = group.metabelian_law(rng, [1, 1, 1, rng.randint(1, 2)])
                intended = True
            else:
                letters = group.zero_sum_word(rng, rng.randint(6, MAX_MANY_LENGTH - 4))
                intended = None
            if length(letters) <= MAX_MANY_LENGTH:
                request = _request(group, index, letters, kind, intended)
        deck.append(request)
    return deck


BUILDERS = {"bs-certify": bs_certify, "multigen-identities": multigen_identities,
            "many-groups": many_groups}


def make_deck(workload, fixtures, seed):
    rng = random.Random(f"{workload}/{seed}")
    groups = [Group(f) for f in fixtures]
    return BUILDERS[workload](groups, rng, DECK_SIZE[workload])
