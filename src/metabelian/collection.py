"""Collection of words in the module kernel into ordered form, with costs.

One scan splits a word into module-letter conjugates and a pure-T tail and
prices normalizing each conjugator into an ordered monomial; the tail is
rewritten into commutator conjugates (which the commutator table turns
into module letters) by gathering its condensed t-syllables index by index,
and all conjugates are sorted into the canonical vector, charging the
ledger per relation class:

* r1: commutator introductions/eliminations (one per tail replacement, two
  per emitted pair during conjugator normalization),
* r2: one per adjacent transposition of conjugates,
* module relations: relator applications, including torsion power wraps,
* free steps: free-group manipulations (cost zero in every total).

The relative totals re-price each transposition at ``4*d - 3`` where ``d``
is the word length of the conjugator quotient, the commutation price in the
metabelian variety.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import ModuleElement, monomial_word_degree
from .errors import ExponentSumError
from .presentation import (GroupWord, Presentation, _condense, _inverse,
                           exponent_sums)


@dataclass
class CostLedger:
    r1_commutators: int = 0
    r2_commutations: int = 0
    module_relations: int = 0
    free_steps: int = 0
    rel_r2_merge: int = 0      # relative re-pricing of the final sort
    rel_r2_normalize: int = 0  # relative re-pricing of emission cancellations

    @property
    def absolute_total(self) -> int:
        return self.r1_commutators + self.r2_commutations + self.module_relations

    @property
    def relative_total(self) -> int:
        return (self.r1_commutators + self.module_relations
                + self.rel_r2_merge + self.rel_r2_normalize)

    def to_json(self) -> dict:
        return {
            "r1_commutators": self.r1_commutators,
            "r2_commutations": self.r2_commutations,
            "module_relations": self.module_relations,
            "free_steps": self.free_steps,
            "absolute_total": self.absolute_total,
            "relative_total": self.relative_total,
        }


# Sign cases for one adjacent swap t_j^delta * t_s^eps -> t_s^eps * t_j^delta * c^g,
# c = [t_s, t_j]; values are (sign of c, local conjugator letters in s/j slots).
_SWAP_CASES = {
    (1, 1): (-1, ()),
    (1, -1): (1, (("j", -1),)),
    (-1, 1): (1, (("s", -1),)),
    (-1, -1): (-1, (("j", -1), ("s", -1))),
}


def split_conjugates(w: GroupWord, p: Presentation):
    """Free rewrite w = prod_i b_i^{v_i} * tail with v_i the inverse prefix.

    Items keep the letter multiplicity: ``(coeff, basis_index, v)`` stands
    for ``coeff`` copies of the same conjugate.  Costs nothing.
    """
    basis_of = p._basis_indexes
    prefix: list[tuple[str, int]] = []
    items = []
    for name, exp in w.letters:
        basis = basis_of.get(name)
        if basis is not None:
            v = GroupWord.from_letters(tuple((n, -e) for n, e in reversed(prefix)))
            items.append((exp, basis, v))
        else:
            prefix.append((name, exp))
    tail = GroupWord.from_letters(prefix)
    return items, tail


def _collect_units(tail: GroupWord, p: Presentation):
    """Gather the t-syllables of a zero-sum tail index by index, recording
    commutator emissions.

    Returns ``(emissions, blocks)`` where emissions are
    ``(sign, s, j, conjugator)`` in the order they appear in the rewritten
    word, each conjugator a freely condensed tuple of letters
    ``(name, exp)``, and blocks are the gathered front powers
    ``(var_index, net_exp)``.  Freely,
    ``tail = prod(blocks) * prod(emissions as [t_s,t_j]^(sign*conj))``.

    The working word is kept condensed.  Each step moves the next syllable
    ``t_i^a`` of the smallest index down to the front one unit at a time;
    each unit emits one commutator per unit it crosses, whose conjugator is
    the swap template followed by the letters to the right of the moved
    unit: the rest of the crossed syllable, the syllables after it, the
    units of ``t_i^a`` not yet moved and the word after ``t_i^a``.
    """
    names, index = p.t_names, p._t_positions
    word = list(_condense(tail.letters))
    emissions = []
    blocks = []
    while word:
        i = min(index[n] for n, _ in word)
        name = names[i]
        front = 1 if word[0][0] == name else 0
        pos = next((q for q in range(front, len(word))
                    if word[q][0] == name), None)
        if pos is None:
            blocks.append((i, word[0][1]))
            word = word[1:]
            continue
        a = word[pos][1]
        eps = 1 if a > 0 else -1
        middle, rest = word[front:pos], word[pos + 1:]
        for k in range(1, abs(a) + 1):
            right = [(name, a - k * eps)] + rest if k < abs(a) else rest
            for m in range(len(middle) - 1, -1, -1):
                other, b = middle[m]
                delta = 1 if b > 0 else -1
                sign, template = _SWAP_CASES[(eps, delta)]
                head = [(name if slot == "s" else other, e)
                        for slot, e in template]
                after = middle[m + 1:] + right
                for crossed in range(abs(b)):
                    emissions.append((sign, i, index[other], _condense(
                        head + [(other, delta * crossed)] + after)))
        word = list(_condense(word[:front] + [(name, a)] + middle + rest))
    emissions.reverse()
    return emissions, blocks


def _tail_items(tail: GroupWord, p: Presentation, ledger=None):
    """Module-letter conjugates ``(sign, basis, conjugator letters)`` of a
    zero-sum tail, charged to ``ledger`` when one is given."""
    emissions, blocks = _collect_units(tail, p)
    basis_of = p._basis_indexes
    items = [(sign, basis_of[p.commutator_gen(s, j)], conj)
             for sign, s, j, conj in emissions]
    for var, net in blocks:
        if net == 0:
            continue
        d = p.torsion_orders[var]
        if d == 0 or net % d != 0:
            raise ExponentSumError(
                f"tail leaves a nonzero block {p.t_names[var]}^{net}")
        if ledger is not None:
            ledger.module_relations += abs(net) // d
    if ledger is not None:
        ledger.r1_commutators += len(items)
    return items


def commutator_collect(tail: GroupWord, p: Presentation, ledger=None):
    """Rewrite a zero-sum tail into module-letter conjugates via the table.

    Charges one r1 per commutator replacement and one module relation per
    torsion power eliminated; free-generator front blocks cancel freely.
    """
    sums = exponent_sums(tail, p)
    if any(sums):
        raise ExponentSumError(f"tail {tail} has nonzero exponent sums {sums}")
    ledger = ledger if ledger is not None else CostLedger()
    items = [(sign, basis, GroupWord.from_letters(conj))
             for sign, basis, conj in _tail_items(tail, p, ledger)]
    return items, ledger


def _length(e: int, d: int) -> int:
    """Word length of t^e for a generator of order d (0: infinite)."""
    if d:
        e %= d
        return min(e, d - e)
    return abs(e)


def _run_price(base: int, start: int, n: int, d: int) -> int:
    """Sum of ``max(1, 4*(base + _length(e, d)) - 3)`` over
    ``start <= e < start + n``, in closed form: an arithmetic series on a
    free coordinate, where the ``max`` binds only at ``base + e = 0``, and
    whole cycles plus fewer than ``d`` terms on a torsion one."""
    if not d:
        return (n * (4 * (base + start) - 3) + 2 * n * (n - 1)
                + 4 * (n > 0 and base + start == 0))

    def price(e):
        return max(1, 4 * (base + _length(e, d)) - 3)
    cycles, extra = divmod(n, d)
    return (cycles * sum(map(price, range(d)))
            + sum(map(price, range(start, start + extra))))


def _price_conjugator(letters, p: Presentation, ledger: CostLedger):
    """Charge ``ledger`` for normalizing a freely condensed conjugator,
    given as its syllables ``(name, exp)``, into its ordered exponent vector.

    Each unit of a syllable t_s^exp (sign eps) is pushed left past every
    unit of t_j (j > s) already in the ordered word, emitting one commutator
    conjugate per unit crossed.  Emission pairs cancel around the conjugated
    letter: two r1 to turn the pair into module letters plus one commutation
    each, priced relatively by the length of the emission's conjugator.
    That conjugator is the swap template of ``_SWAP_CASES`` (t_s^-1 when
    eps < 0, t_j^-1 when the crossed unit is negative) followed by the units
    already crossed.  It reads only exponents j > s, which pushing t_s
    leaves alone, so every unit of the syllable pays the same: the syllable
    is charged once, times ``|exp|``, and the crossings of each t_j are
    priced together by ``_run_price``.  The same reason makes pricing the
    syllable unit by unit charge the same sums.  Torsion exponents wrap
    into [0, order) at one module relation per wrap.  The vector itself is
    the conjugator's wrapped exponent sums, which ``_conjugates`` reads
    without this.
    """
    index, torsion = p._t_positions, p.torsion_orders
    nvars = len(torsion)
    exps = [0] * nvars
    for name, exp in letters:
        s = index[name]
        base = 1 if exp < 0 else 0  # the template letter t_s^-1
        units = rel = 0
        for j in range(nvars - 1, s, -1):
            b, d = exps[j], torsion[j]
            if b:
                # the conjugator's t_j exponent runs over 0..b-1 when the
                # crossed units are positive and over -1..b when negative
                rel += _run_price(base, 0 if b > 0 else 1, abs(b), d)
                units += abs(b)
                base += _length(b, d)
        n = abs(exp)
        ledger.r1_commutators += 2 * units * n
        ledger.r2_commutations += units * n
        ledger.rel_r2_normalize += rel * n
        exps[s] += exp
    for e, d in zip(exps, torsion):
        if d and not 0 <= e < d:
            ledger.module_relations += abs(e // d)


def _merge_price(amb, a_exps, b_exps) -> int:
    diff = tuple(x - y for x, y in zip(a_exps, b_exps))
    return max(1, 4 * monomial_word_degree(amb, diff) - 3)


def ordered_form(w: GroupWord, p: Presentation):
    """Full pipeline: split, collect the tail, normalize, sort; returns
    the module vector and the CostLedger.  ``_conjugates`` reads the
    conjugates and prices their conjugators in one scan of the word."""
    ledger = CostLedger()
    sequence = _conjugates(w, p, ledger)
    _charge_merge(sequence, p.module_ambient(), ledger)
    return _vector(sequence, p), ledger


def _module_vector(w: GroupWord, p: Presentation) -> ModuleElement:
    """The module vector of a kernel word, with nothing priced."""
    return _vector(_conjugates(w, p), p)


def _conjugates(w: GroupWord, p: Presentation, ledger=None):
    """The module-letter conjugates ``(coeff, basis, exponents)`` of a
    kernel word, in the order the free rewrite puts them.

    A module letter's conjugator is the inverse of the t-letters before it,
    so its exponents are the negated running exponent sums, torsion
    wrapped; an emission's are its conjugator's wrapped sums.  The t-letters
    seen so far are kept freely condensed on a stack, the tail at the end.
    Given a ``ledger``, each conjugator is priced into it as it is met, a
    module letter's from the inverse of the stack; without one nothing is.
    """
    t_pos, basis_of, torsion = p._t_positions, p._basis_indexes, p.torsion_orders
    sums = [0] * len(torsion)
    conj = tuple(sums)
    sequence, stack, unknown = [], [], None
    for name, exp in w.letters:
        basis = basis_of.get(name)
        if basis is not None:
            if conj is None:
                conj = tuple(-s % d if d else -s for s, d in zip(sums, torsion))
            sequence.append((exp, basis, conj))
            if ledger is not None:
                _price_conjugator(_inverse(stack), p, ledger)
            continue
        i = t_pos.get(name)
        if i is None:
            unknown = unknown or name
            continue
        sums[i] += exp
        conj = None
        if stack and stack[-1][0] == name:
            exp += stack.pop()[1]
        if exp:
            stack.append((name, exp))
    sums = _wrapped(sums, torsion)
    if any(sums):
        raise ExponentSumError(f"word has nonzero t-exponent sums {sums}")
    if unknown is not None:
        raise KeyError(unknown)
    if ledger is not None:
        ledger.free_steps += len(sequence) + 1
    if not stack:
        return sequence
    for sign, basis, conj in _tail_items(GroupWord(tuple(stack)), p, ledger):
        exps = [0] * len(torsion)
        for name, e in conj:
            exps[t_pos[name]] += e
        sequence.append((sign, basis, _wrapped(exps, torsion)))
        if ledger is not None:
            _price_conjugator(conj, p, ledger)
    return sequence


def _wrapped(exps, torsion) -> tuple[int, ...]:
    return tuple(e % d if d else e for e, d in zip(exps, torsion))


def _vector(sequence, p: Presentation) -> ModuleElement:
    raw: dict = {}
    for coeff, basis, exps in sequence:
        key = (exps, basis)
        raw[key] = raw.get(key, 0) + coeff
    return ModuleElement.from_dict(p.module_ambient(), raw)


def _charge_merge(sequence, amb, ledger: CostLedger):
    """Transposition charges for gathering conjugates into ordered form.

    Opposite conjugates of the same monomial are cancelled greedily first
    (cheapest pair each round, paying one transposition per unit crossed),
    then the remainder is sorted, paying one transposition per strictly
    inverted pair of unit conjugates (``_inversion_charge``).

    Each opposite pair keeps ``[units, rel]``, the units it crosses and
    their relative price, summed once up to each item's furthest opposite
    partner.  Cancelling ``m`` units at item q lowers exactly the pairs
    around q of another monomial, by ``m`` units and ``m`` crossings of q.
    Signs never flip, so pairs only go away, and zeroed items stay in place,
    so the index order of the rest is kept.  Equal monomials cross at equal
    prices, so prices are kept per pair of monomials.
    """
    from .order import monomial_key

    items = [[coeff, basis, exps] for coeff, basis, exps in sequence if coeff]
    monos: dict = {}
    mono = [monos.setdefault(exps, len(monos)) for _, _, exps in items]
    exps_of = list(monos)
    ids: dict = {}
    group = [ids.setdefault((basis, exps), len(ids)) for _, basis, exps in items]
    memo: dict = {}

    def price(m, n):
        key = (m, n) if m < n else (n, m)
        if key not in memo:
            memo[key] = _merge_price(amb, exps_of[m], exps_of[n])
        return memo[key]

    last = {(group[b], c > 0): b for b, (c, _, _) in enumerate(items)}
    pairs = {}
    for a, (ca, _, _) in enumerate(items):
        units = rel = 0
        for b in range(a + 1, last.get((group[a], ca < 0), a) + 1):
            c = items[b][0]
            if group[b] != group[a]:
                units += abs(c)
                rel += abs(c) * price(mono[a], mono[b])
            elif (c > 0) != (ca > 0):
                pairs[a, b] = [units, rel]

    while pairs:
        units, rel, i, j = min(
            (u * (m := min(abs(items[a][0]), abs(items[b][0]))), r * m, a, b)
            for (a, b), (u, r) in pairs.items())
        ledger.r2_commutations += units
        ledger.rel_r2_merge += rel
        m = min(abs(items[i][0]), abs(items[j][0]))
        for q in (i, j):
            items[q][0] -= m if items[q][0] > 0 else -m
        for (a, b), cost in list(pairs.items()):
            if not (items[a][0] and items[b][0]):
                del pairs[a, b]
                continue
            for q in (i, j):
                if a < q < b and group[a] != group[q]:
                    cost[0] -= m
                    cost[1] -= m * price(mono[b], mono[q])

    # ordered form puts e1 first and larger monomials first within a basis
    rest = [(abs(c), (-basis, monomial_key(exps)), exps, m)
            for (c, basis, exps), m in zip(items, mono) if c]
    units, rel = _inversion_charge(rest, amb.torsion, price)
    ledger.r2_commutations += units
    ledger.rel_r2_merge += rel


_BLOCK = 16  # _inversion_charge prices this many items or fewer pair by pair


def _inversion_charge(items, torsion, price):
    """``(units, rel)`` for sorting ``items`` ``(weight, key, exps,
    monomial id)`` by falling key: over the pairs a < b with key_a < key_b,
    the sum of ``w_a*w_b`` and of ``w_a*w_b*price(m_a, m_b)``.

    With d the length of exps_a - exps_b, the price is 4d - 3 except 1 at
    d = 0, i.e. at equal exponents on another basis, so the sum is
    ``4*sum(w_a*w_b*d) - 3*sum(w_a*w_b) + 4*sum over equal exponents of
    w_a*w_b``, and d sums one term per coordinate: |x_a - x_b| on a free
    one and the cyclic distance on a torsion one.

    Up to ``_BLOCK`` items are priced pair by pair.  Longer sequences merge
    adjacent items of equal key into one, as their pair is not inverted and
    the sums are bilinear in the weights, and split into maximal runs of
    strictly rising or strictly falling key.  A falling run holds no
    inverted pair and a rising run only inverted pairs, which
    ``_rising_charge`` sums in closed form.  Neighbouring runs, each in key
    order, then merge bottom-up (``_merge_charge``).
    """
    if len(items) <= _BLOCK:
        units = rel = 0
        for a, (wa, ka, _, ma) in enumerate(items):
            for wb, kb, _, mb in items[a + 1:]:
                if ka < kb:
                    units += wa * wb
                    rel += wa * wb * price(ma, mb)
        return units, rel
    # groups [key rank, weight, monomial id, exps, free spots]: keys and
    # the values of each free coordinate are ranked once per call
    order = {key: r for r, key in enumerate(sorted({it[1] for it in items}))}
    groups = []
    for w, key, exps, m in items:
        key = order[key]
        if groups and groups[-1][0] == key:
            groups[-1][1] += w
        else:
            groups.append([key, w, m, exps])
    # a coordinate on which every item agrees adds nothing to any distance
    first = groups[0][3]
    spread = [i for i in range(len(torsion))
              if any(g[3][i] != first[i] for g in groups)]
    free = [i for i in spread if not torsion[i]]
    cyclic = [(i, torsion[i]) for i in spread if torsion[i]]
    ranks = [{x: r for r, x in enumerate(sorted({g[3][i] for g in groups}), 1)}
             for i in free]
    for g in groups:
        g.append(tuple((rank[g[3][i]], g[3][i]) for i, rank in zip(free, ranks)))
    units = rel = 0
    runs, start, n = [], 0, len(groups)
    while start < n:
        end = start + 1
        if end < n and groups[start][0] < groups[end][0]:
            while end < n and groups[end - 1][0] < groups[end][0]:
                end += 1
            run = groups[start:end]
            more_units, more_rel = _rising_charge(run, free, cyclic)
            units, rel = units + more_units, rel + more_rel
        else:
            while end < n and groups[end - 1][0] > groups[end][0]:
                end += 1
            run = groups[start:end]
            run.reverse()
        runs.append(run)
        start = end
    trees = [([0] * (len(rank) + 1), [0] * (len(rank) + 1), len(rank) + 1)
             for rank in ranks]
    while len(runs) > 1:
        merged = []
        for q in range(1, len(runs), 2):
            more_units, more_rel = _merge_charge(runs[q - 1], runs[q], cyclic,
                                                 trees)
            units, rel = units + more_units, rel + more_rel
            merged.append(sorted(runs[q - 1] + runs[q]))
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return units, rel


def _rising_charge(run, free, cyclic):
    """``(units, rel)`` of ``_inversion_charge`` over a run of groups of
    strictly rising key, every pair of which is inverted: ``(W^2 - sum
    w^2) / 2`` units, distances by prefix sums over the sorted values of a
    free coordinate and over the pairs of residues of a torsion one, and
    equal exponents counted per monomial."""
    total = squares = 0
    same: dict = {}
    for _, w, m, *_ in run:
        total += w
        squares += w * w
        same[m] = same.get(m, 0) + w
    units = (total * total - squares) // 2
    equal = (sum(s * s for s in same.values()) - squares) // 2
    dist = 0
    for i in free:
        below = below_moment = 0
        for x, w in sorted((g[3][i], g[1]) for g in run):
            dist += w * (x * below - below_moment)
            below += w
            below_moment += w * x
    for i, d in cyclic:
        table: dict = {}
        for g in run:
            r = g[3][i] % d
            table[r] = table.get(r, 0) + g[1]
        residues = list(table.items())
        for a, (r, wr) in enumerate(residues):
            for s, ws in residues[a + 1:]:
                dist += wr * ws * _length(r - s, d)
    return units, 4 * dist - 3 * units + 4 * equal


def _merge_charge(left, right, cyclic, trees):
    """``(units, rel)`` of ``_inversion_charge`` over the pairs of a left
    and a right run of groups, both in key order: each right group meets
    the left groups of smaller key, inserted as the scan passes them.  A
    free coordinate's distances are read off Fenwick trees of the inserted
    weights and weighted values, indexed by the value's rank over the whole
    sequence and cleared of this merge's inserts at the end; a torsion
    coordinate's off a table of inserted weight per residue."""
    units = rel = total = k = 0
    sums = [0] * len(trees)
    tables = [[0] * d for _, d in cyclic]
    same: dict = {}
    last = len(left)
    for key, wb, mb, y, spots in right:
        while k < last and left[k][0] < key:
            _, wa, ma, x, places = left[k]
            total += wa
            same[ma] = same.get(ma, 0) + wa
            f = 0
            for (r, xa), (weights, moment, size) in zip(places, trees):
                v = wa * xa
                sums[f] += v
                f += 1
                while r < size:
                    weights[r] += wa
                    moment[r] += v
                    r += r & -r
            for (i, d), table in zip(cyclic, tables):
                table[x[i] % d] += wa
            k += 1
        if not total:
            continue
        dist = 0
        for (r, yf), (weights, moment, _), moments in zip(spots, trees, sums):
            below = below_moment = 0
            r -= 1
            while r:
                below += weights[r]
                below_moment += moment[r]
                r &= r - 1
            dist += moments - 2 * below_moment - yf * (total - 2 * below)
        for (i, d), table in zip(cyclic, tables):
            dist += sum(w * _length(r - y[i], d)
                        for r, w in enumerate(table) if w)
        units += total * wb
        rel += wb * (4 * dist - 3 * total + 4 * same.get(mb, 0))
    for g in left[:k]:
        for (r, _), (weights, moment, size) in zip(g[4], trees):
            while r < size and weights[r]:
                weights[r] = moment[r] = 0
                r += r & -r
    return units, rel

