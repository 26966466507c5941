"""Collection of words in the module kernel into ordered form, with costs.

One scan splits a word into module-letter conjugates and a pure-T tail and
decides the kernel; only then is normalizing each conjugator into an
ordered monomial priced.  The tail is rewritten into commutator conjugates
(which the commutator table turns into module letters) by gathering its
condensed t-syllables index by index, and all conjugates are sorted into
the canonical vector, charging the ledger per relation class:

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
from operator import sub
from typing import NamedTuple

from .bounds import _json_int
from .elements import ModuleElement, monomial_word_degree, power_length
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
            "r1_commutators": _json_int(self.r1_commutators),
            "r2_commutations": _json_int(self.r2_commutations),
            "module_relations": _json_int(self.module_relations),
            "free_steps": _json_int(self.free_steps),
            "absolute_total": _json_int(self.absolute_total),
            "relative_total": _json_int(self.relative_total),
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


class _Crossing(NamedTuple):
    """One gathered syllable ``t_var^power`` (named ``name``) moved to the
    front past the ``middle`` syllables, ``rest`` the letters after it.

    Its emissions form a block of ``|power|`` rows.  Row ``k`` holds the
    emissions of the ``k``-th unit moved, one per unit of the middle it
    crosses; each conjugator is a template head (the swap template, the
    rest of the crossed syllable and the syllables after it) followed by
    ``t_var^(power - k*eps)``, the units not yet moved (``eps`` the sign of
    ``power``), and ``rest``.  A head does not depend on ``k``, so row k's
    exponent vectors are row 1's shifted by ``-(k-1)*eps`` at ``var``.
    Swapping ``t_j^delta * t_s^eps`` emits ``[t_s, t_j]`` with sign
    ``-eps*delta`` and the swap template ``t_j^-1`` when ``delta < 0``,
    then ``t_s^-1`` when ``eps < 0``.
    """
    var: int
    name: str
    power: int
    middle: tuple
    rest: tuple

    def template(self, index) -> list:
        """One row's emissions ``(sign, j, head)`` in the order of the
        rewritten word: the middle syllables first to last, the units of
        each last to first, so each syllable's exponents run in one
        coordinate."""
        eps = 1 if self.power > 0 else -1
        row = []
        for m, (other, b) in enumerate(self.middle):
            delta = 1 if b > 0 else -1
            head = [(other, -1)] * (delta < 0) + [(self.name, -1)] * (eps < 0)
            after = list(self.middle[m + 1:])
            row += [(-eps * delta, index[other],
                     head + [(other, delta * crossed)] + after)
                    for crossed in range(abs(b) - 1, -1, -1)]
        return row

    def conjugator(self, head, k: int) -> tuple:
        """The freely condensed conjugator of a template head in row k."""
        left = self.power - k * (1 if self.power > 0 else -1)
        return _condense(head + [(self.name, left)] + list(self.rest))

    def emissions(self, index) -> list:
        """``(sign, var, j, conjugator)`` row by row, row ``|power|`` first,
        as they appear in the rewritten word."""
        template = self.template(index)
        return [(sign, self.var, j, self.conjugator(head, k))
                for k in range(abs(self.power), 0, -1)
                for sign, j, head in template]


def _collect_units(word, p: Presentation, ledger: CostLedger) -> list:
    """Gather the condensed t-syllables ``(name, exp)`` of a zero-sum tail
    index by index, recording one crossing block per gathered syllable.

    Returns the ``_Crossing`` blocks in the order their emissions appear in
    the rewritten word.  Freely, ``tail = prod(front powers) * prod(the
    emissions of each crossing as [t_s,t_j]^(sign*conjugator))``.  A front
    power ``t_i^net`` is a multiple of its torsion order, charged to
    ``ledger`` at one module relation per torsion power; the caller charges
    one r1 per emission.

    Each step moves the next syllable ``t_i^a`` of the smallest index down
    to the front past the middle syllables, one unit at a time; each unit
    emits one commutator per unit it crosses, a row of the crossing block,
    and the word is condensed again once per syllable.
    """
    names, index = p.t_names, p._t_positions
    crossings = []
    while word:
        i = min(index[n] for n, _ in word)
        name = names[i]
        front = 1 if word[0][0] == name else 0
        pos = next((q for q in range(front, len(word))
                    if word[q][0] == name), None)
        if pos is None:
            ledger.module_relations += abs(word[0][1]) // p.torsion_orders[i]
            word = word[1:]
            continue
        a = word[pos][1]
        middle, rest = tuple(word[front:pos]), tuple(word[pos + 1:])
        crossings.append(_Crossing(i, name, a, middle, rest))
        word = _condense([*word[:front], (name, a), *middle, *rest])
    crossings.reverse()
    return crossings


def commutator_collect(tail: GroupWord, p: Presentation, ledger=None):
    """Rewrite a zero-sum tail into module-letter conjugates via the table.

    Charges one r1 per commutator replacement and one module relation per
    torsion power eliminated; free-generator front blocks cancel freely.
    Returns one item ``(sign, basis, conjugator)`` per emission, the
    crossing blocks expanded.
    """
    sums = exponent_sums(tail, p)
    if any(sums):
        raise ExponentSumError(f"tail {tail} has nonzero exponent sums {sums}")
    ledger = ledger if ledger is not None else CostLedger()
    basis_of = p._basis_indexes
    items = [(sign, basis_of[p.commutator_gen(s, j)], GroupWord.from_letters(conj))
             for crossing in _collect_units(tail.letters, p, ledger)
             for sign, s, j, conj in crossing.emissions(p._t_positions)]
    ledger.r1_commutators += len(items)
    return items, ledger


def _run_price(base: int, start: int, n: int, d: int) -> int:
    """Sum of ``max(1, 4*(base + power_length(e, d)) - 3)`` over
    ``start <= e < start + n`` on a coordinate of torsion order ``d``:
    whole cycles plus fewer than ``d`` terms."""
    def price(e):
        return max(1, 4 * (base + power_length(e, d)) - 3)
    cycles, extra = divmod(n, d)
    return (cycles * sum(map(price, range(d)))
            + sum(map(price, range(start, start + extra))))


def _price_conjugator(letters, p: Presentation, ledger: CostLedger):
    """Charge ``ledger`` for normalizing a freely condensed conjugator,
    given as its syllables ``(name, exp)``, into its ordered exponent
    vector.

    Each unit of a syllable t_s^exp (sign eps) is pushed left past every
    unit of t_j (j > s) already in the ordered word, emitting one commutator
    conjugate per unit crossed.  Emission pairs cancel around the conjugated
    letter: two r1 to turn the pair into module letters plus one commutation
    each, priced relatively by the length of the emission's conjugator.
    That conjugator is the swap template of ``_Crossing`` (t_j^-1 when the
    crossed unit is negative, then t_s^-1 when eps < 0) followed by the units
    already crossed.  It reads only exponents j > s, which pushing t_s
    leaves alone, so every unit of the syllable pays the same: the syllable
    is charged once, times ``|exp|``.  The crossings of each t_j are priced
    together: an arithmetic series, inline, on a free coordinate, where the
    ``max`` binds only at a zero length, and ``_run_price`` on a torsion
    one.  The same reason makes pricing the syllable unit by unit charge
    the same sums.  The later positions of each name come from the
    presentation's ``_later`` table; the charges add up in locals and the
    ledger is written once.  Torsion exponents wrap into [0, order) at one
    module relation per wrap.  Returns the conjugator's exponent sums,
    unwrapped: its vector is their wrap.
    """
    later = p._later
    exps = [0] * len(p.torsion_orders)
    units = rel = 0
    for name, exp in letters:
        s, crossed = later[name]
        base = 1 if exp < 0 else 0  # the template letter t_s^-1
        count = price = 0
        for j, d in crossed:
            b = exps[j]
            if not b:
                continue
            # the conjugator's t_j exponent runs over 0..b-1 when the
            # crossed units are positive and over -1..b when negative
            if d:
                price += _run_price(base, 0 if b > 0 else 1, abs(b), d)
                count += abs(b)
                base += power_length(b, d)
            elif b > 0:
                price += b * (4 * base - 3) + 2 * b * (b - 1) + 4 * (not base)
                count += b
                base += b
            else:
                price += 2 * b * (b + 1) - b * (4 * base + 1)
                count -= b
                base -= b
        n = exp if exp > 0 else -exp
        units += count * n
        rel += price * n
        exps[s] += exp
    wraps = 0
    for i, d in p._cyclic:
        e = exps[i]
        if not 0 <= e < d:
            wraps += abs(e // d)
    ledger.r1_commutators += 2 * units
    ledger.r2_commutations += units
    ledger.rel_r2_normalize += rel
    ledger.module_relations += wraps
    return exps


def _merge_price(amb, a_exps, b_exps) -> int:
    return max(1, 4 * monomial_word_degree(amb, map(sub, a_exps, b_exps)) - 3)


def ordered_form(w: GroupWord, p: Presentation):
    """The module vector of a kernel word and the CostLedger of collecting
    it.  ``_conjugates`` reads the word once; a word off the kernel is
    refused with ExponentSumError before anything is priced."""
    ledger = CostLedger()
    sequence, block = _conjugates(w, p, ledger)
    _charge_merge(sequence, p.module_ambient(), ledger, block)
    return _vector(sequence, p), ledger


def relator_module(p: Presentation) -> list[ModuleElement]:
    """Module vectors of all relators, aligned with ``p.relators``; they
    generate the relation submodule.  A relator whose t-letters condense to
    nothing has no tail: its vector is summed from ``_scan``'s conjugates,
    and nothing is priced.  Any other relator goes through ``_conjugates``,
    which prices into a scratch ledger that nothing reads; only torsion
    powers and a few relators of a handful of syllables have a tail."""
    vectors = []
    for r in p.relators:
        sequence, _, top = _scan(r, p)
        if top is not None:
            sequence = _conjugates(r, p, CostLedger())[0]
        vectors.append(_vector(sequence, p))
    return vectors


def _scan(w: GroupWord, p: Presentation):
    """Read a word once and price nothing: its module-letter conjugates
    ``(coeff, basis, exponents)`` in word order, their prefixes, the top
    of the tail.

    A conjugator is the inverse of the t-letters before its module letter,
    so its exponents are the negated running exponent sums, kept as a list
    whose torsion coordinates are reduced in place only when a module
    letter after a t-letter needs the tuple.  The t-letters are kept freely
    condensed as linked nodes ``(name, exp, below)``: a prefix is the top
    node when its letter is met, or None, and is not copied.

    Raises ExponentSumError when the t-exponent sums do not vanish, then
    KeyError for an unknown name.  A stack that ends empty sums to zero,
    so its sums are not checked.
    """
    t_pos, basis_of, torsion = p._t_positions, p._basis_indexes, p.torsion_orders
    cyclic = p._cyclic
    neg = [0] * len(torsion)
    conj = tuple(neg)
    sequence, prefixes, top, unknown = [], [], None, None
    for name, exp in w.letters:
        basis = basis_of.get(name)
        if basis is not None:
            if conj is None:
                for i, d in cyclic:
                    neg[i] %= d
                conj = tuple(neg)
            sequence.append((exp, basis, conj))
            prefixes.append(top)
            continue
        i = t_pos.get(name)
        if i is None:
            unknown = unknown or name
            continue
        neg[i] -= exp
        conj = None
        if top is not None and top[0] == name:
            exp += top[1]
            top = top[2]
        if exp:
            top = (name, exp, top)
    if top is not None:
        sums = tuple((-e) % d if d else -e for e, d in zip(neg, torsion))
        if any(sums):
            raise ExponentSumError(f"word has nonzero t-exponent sums {sums}")
    if unknown is not None:
        raise KeyError(unknown)
    return sequence, prefixes, top


def _unwind(node):
    """``(name, -exp)`` from ``node`` down: the inverse of its stack."""
    while node is not None:
        name, exp, node = node
        yield name, -exp


def _conjugates(w: GroupWord, p: Presentation, ledger: CostLedger):
    """The module-letter conjugates ``(coeff, basis, exponents)`` of a
    kernel word, in the order the free rewrite puts them, and the one
    crossing block that is the whole sequence, or None.

    ``_scan`` decides the kernel before anything is priced into ``ledger``.
    Then each module letter's conjugator is priced from its unwound prefix;
    an empty prefix costs nothing.  The tail is gathered by
    ``_collect_units``; ``_price_crossing`` prices each crossing block, its
    sums giving the block's first row, an emission's exponents its
    conjugator's wrapped sums.

    The block ``(rows, var, shift, n, coordinate, stride)``, the one
    sequence ``_block_charge`` takes, is given only for a word with no
    module letter whose tail makes one crossing of two or more rows past a
    middle of one syllable: ``rows`` rows of one template, row r's exponents
    the first row's shifted by ``r*shift`` at ``var``, and the template
    ``n`` conjugates of one sign and one basis whose exponents step by
    ``stride`` in ``coordinate``, a later t-letter than ``var``.
    """
    sequence, prefixes, top = _scan(w, p)
    for prefix in prefixes:
        if prefix is not None:
            _price_conjugator(_unwind(prefix), p, ledger)
    ledger.free_steps += len(sequence) + 1
    if top is None:
        return sequence, None
    t_pos, basis_of = p._t_positions, p._basis_indexes
    wrap = p.module_ambient().wrap
    block, module_letters = None, len(sequence)
    crossings = _collect_units(_inverse(list(_unwind(top))), p, ledger)
    lone = (not module_letters and len(crossings) == 1
            and len(crossings[0].middle) == 1)
    for crossing in crossings:
        var, rows = crossing.var, abs(crossing.power)
        template = crossing.template(t_pos)
        sums = _price_crossing(crossing, template, p, ledger)
        for (sign, j, _), exps in zip(template, sums):
            sequence.append((sign, basis_of[p.commutator_gen(var, j)],
                             wrap(exps)))
        if rows > 1:
            shift = 1 if crossing.power > 0 else -1
            if lone:
                (other, b), = crossing.middle
                block = (rows, var, shift, abs(b), t_pos[other],
                         -1 if b > 0 else 1)
            row = sequence[-len(template):]
            for r in range(1, rows):
                for sign, basis, exps in row:
                    sequence.append((sign, basis, wrap(
                        exps[:var] + (exps[var] + r * shift,) + exps[var + 1:])))
    ledger.r1_commutators += len(sequence) - module_letters
    return sequence, block


def _join(head, tail) -> list:
    """The freely condensed product of two condensed syllable sequences:
    only the junction condenses, cascading while its syllables cancel."""
    h, t = len(head), 0
    while h and t < len(tail) and head[h - 1][0] == tail[t][0]:
        exp = head[h - 1][1] + tail[t][1]
        if exp:
            return [*head[:h - 1], (tail[t][0], exp), *tail[t + 1:]]
        h, t = h - 1, t + 1
    return [*head[:h], *tail[t:]]


def _price_crossing(crossing: _Crossing, template, p: Presentation,
                    ledger: CostLedger):
    """Charge ``ledger`` for normalizing the conjugators of a crossing
    block, pricing three rows with ``_price_conjugator``, and return the
    exponent sums of row ``|power|``, the first in word order, one list per
    template head: ``conjugator(head, |power|)`` condenses to the head then
    ``rest``.

    Each template head is condensed once, and each priced row's tail,
    ``t_var^(power - k*eps)`` then ``rest`` (just ``rest`` in row
    ``|power|``), is built once; a row's conjugator is the head joined onto
    the tail, condensed only across the junction (``_join``), which is
    ``conjugator(head, k)``.

    ``t_var`` has the lowest index in the block's conjugators, so a row
    k < |power|, a template head then ``t_var^(power - k*eps)`` then the
    rest, pays the same as row 1 except for that syllable, whose units
    each pay what the head's letters make them cross, and for the wraps of
    ``var``, whose exponent is the same in every conjugator of a row.  So
    the r1, r2 and relative charges fall by ``row 1 - row 2`` per row, and
    the module relations are row 1's less its wraps of ``var`` plus each
    row's.  The last row loses the syllable, and its neighbours may
    condense, so it is priced on its own.
    """
    power, name, rest = crossing.power, crossing.name, crossing.rest
    rows, eps = abs(power), 1 if power > 0 else -1
    heads = [_condense(head) for _, _, head in template]

    def price_row(k, into):
        left = power - k * eps
        tail = ((name, left), *rest) if left else rest
        return [_price_conjugator(_join(head, tail), p, into) for head in heads]

    sums = price_row(rows, ledger)
    if rows == 1:
        return sums
    first, second = CostLedger(), CostLedger()
    x = price_row(1, first)[0][crossing.var]
    if rows > 2:
        price_row(2, second)
    n, fall = rows - 1, (rows - 1) * (rows - 2) // 2
    for field in ("r1_commutators", "r2_commutations", "rel_r2_normalize"):
        one, two = getattr(first, field), getattr(second, field)
        setattr(ledger, field, getattr(ledger, field) + n * one - fall * (one - two))
    ledger.module_relations += n * first.module_relations
    d = p.torsion_orders[crossing.var]
    if d:
        wraps = [abs((x - k * eps) // d) for k in range(n)]
        ledger.module_relations += len(heads) * (sum(wraps) - n * wraps[0])
    return sums


def _vector(sequence, p: Presentation) -> ModuleElement:
    # ``_conjugates`` wraps every exponent tuple and keys each term by a
    # basis of the ambient, so the keys need none of ``from_dict``'s checks
    raw: dict = {}
    for coeff, basis, exps in sequence:
        key = (exps, basis)
        raw[key] = raw.get(key, 0) + coeff
    return ModuleElement._of(p.module_ambient(),
                             {key: c for key, c in raw.items() if c})


def _charge_merge(sequence, amb, ledger: CostLedger, block):
    """Transposition charges for gathering conjugates into ordered form.

    When the sequence is the lone crossing block of ``_conjugates``
    (``block``) and holds more than ``_BLOCK`` conjugates, as for a
    commutator of two powers, ``_block_charge`` counts its sort by
    difference before any table is built: a lone block is one crossing with
    no module letter, so its conjugates share one sign and one basis and
    nothing cancels.  Any other sequence, or a block it cannot count, is
    cancelled and then sorted.

    Opposite conjugates of the same monomial are cancelled greedily by
    ``_cancel``: the cheapest pair each round, paying one transposition
    per unit crossed, found in one pass per round over pair records.  Each
    item lists its opposite partners going right only up to its first unit
    partner, since a farther one crosses at least the same units at no
    lower price and loses the tie on position, so it cannot be the
    cheapest while that partner lives.  Then ``_inversion_charge`` sorts
    the remainder, paying one transposition per strictly inverted pair of
    unit conjugates.  Equal monomials cross at equal prices, so both read
    prices from ``rows``, one dict per monomial id keyed by the other
    monomial's id.  ``fill(m, n)`` computes a price by ``_merge_price`` and
    writes it into both rows; a price is at least 1, so ``rows[m].get(n) or
    fill(m, n)`` reads one, computing it the first time either row lacks it.
    """
    if block is not None and len(sequence) > _BLOCK:
        charge = _block_charge(sequence, *block, amb.torsion)
        if charge is not None:
            ledger.r2_commutations += charge[0]
            ledger.rel_r2_merge += charge[1]
            return
    items = [[coeff, basis, exps] for coeff, basis, exps in sequence]
    monos: dict = {}
    mono = [monos.setdefault(exps, len(monos)) for _, _, exps in items]
    ids: dict = {}
    group = [ids.setdefault((basis, exps), len(ids)) for _, basis, exps in items]
    exps_of = list(monos)
    rows = [{} for _ in exps_of]

    def fill(m, n):
        price = rows[m][n] = rows[n][m] = _merge_price(amb, exps_of[m],
                                                       exps_of[n])
        return price
    units, rel = _cancel(items, group, mono, rows, fill)
    # ordered form puts e1 first and larger monomials first within a basis;
    # monomial_key without a call per conjugate
    sort_units, sort_rel = _inversion_charge(
        [(abs(c), (-basis, (sum(map(abs, exps)), exps)), exps, m)
         for (c, basis, exps), m in zip(items, mono) if c],
        amb.torsion, rows, fill)
    ledger.r2_commutations += units + sort_units
    ledger.rel_r2_merge += rel + sort_rel


def _cancel(items, group, mono, rows, fill):
    """Cancel opposite conjugates ``[coeff, basis, exps]`` of one group
    (basis and monomial) greedily, zeroing or lowering ``items``'
    coefficients in place; returns ``(units, rel)``, the units crossed and
    their relative price.

    Each round cancels ``m = min(|c_a|, |c_b|)`` units at the pair a < b
    whose ``(units*m, rel*m, a, b)`` is least, where ``units`` and ``rel``
    sum ``|c_q|`` and ``|c_q|`` times the merge price of ``mono[a]`` and
    ``mono[q]`` (read from ``rows``, see ``_charge_merge``) over the items
    q of other groups between a and b; it pays ``units*m`` and ``rel*m``.
    Signs never flip, so pairs only go away, and zeroed items stay in
    place, so the index order of the rest is kept.  Cancelling ``m`` units
    at item q lowers exactly the pairs of another group that span q, by
    ``m`` units and ``m`` crossings of q.

    Pair records ``[a, b, units, rel, stop]`` list each item a's partners
    going right only up to the first unit partner ``b1``, the first with
    ``min(|c_a|, |c_b1|) = 1`` (``stop`` marks it).  A farther partner b
    has ``m >= 1`` and spans every item that ``(a, b1)`` spans, so its key
    is at least ``(a, b1)``'s and it loses the tie on b: it cannot be
    picked while ``b1`` lives.  When ``b1`` is zeroed and a is not, the
    listing goes on from ``b1`` with its ``[units, rel]``, which ``b1``'s
    own cancellation left unchanged, as it is in a's group.  Unit
    coefficients thus list O(k) pairs for a group of k items, not O(k^2).

    One pass per round over the records drops those with a zeroed end,
    lowers the spanning pairs of other groups by the cancellation just made,
    reading each price from the cancelled monomial's row, and finds the
    next least key.  ``extend`` reads the row of a's monomial.
    """
    size = [abs(c) for c, _, _ in items]
    up = [c > 0 for c, _, _ in items]
    last = {(g, u): q for q, (g, u) in enumerate(zip(group, up))}
    pairs = []

    def extend(a, b, units, rel):
        """Append a's partners right of b, from ``[units, rel]`` at b."""
        g, sa, sign, ma = group[a], size[a], up[a], mono[a]
        row = rows[ma]
        for q in range(b + 1, last.get((g, not sign), a) + 1):
            c = size[q]
            if not c:
                continue
            if group[q] != g:
                units += c
                mq = mono[q]
                rel += c * (row.get(mq) or fill(ma, mq))
            elif up[q] != sign:
                stop = c == 1 or sa == 1
                pairs.append([a, q, units, rel, stop])
                if stop:
                    return

    for a in range(len(items)):
        extend(a, a, 0, 0)
    units = rel = m = 0
    i = j = gi = mi = -1
    cancelled = None
    while True:
        best = None
        kept = []
        # extend() appends to pairs while the loop runs: the new records
        # belong to gi, which no cancellation of this round lowers
        for record in pairs:
            a, b, u, r, stop = record
            sa, sb = size[a], size[b]
            if not sa:
                continue
            if not sb:
                if stop:
                    extend(a, b, u, r)
                continue
            if (a < i < b or a < j < b) and group[a] != gi:
                k = m * ((a < i < b) + (a < j < b))
                u = record[2] = u - k
                ma = mono[a]
                r = record[3] = r - k * (cancelled.get(ma) or fill(ma, mi))
            kept.append(record)
            n = sa if sa < sb else sb
            key = u * n
            if best is not None:
                if key > best_units:
                    continue
                if key == best_units:
                    key_rel = r * n
                    if key_rel > best_rel or key_rel == best_rel and (
                            a > best[0] or a == best[0] and b > best[1]):
                        continue
            best, best_units, best_rel, best_m = (a, b), key, r * n, n
        if best is None:
            break
        pairs = kept
        units += best_units
        rel += best_rel
        (i, j), m = best, best_m
        gi, mi = group[i], mono[i]
        cancelled = rows[mi]
        size[i] -= m
        size[j] -= m
    for item, c, u in zip(items, size, up):
        item[0] = c if u else -c
    return units, rel


def _row_sums(lo: int, hi: int, rows: int):
    """``(sum(rows - r), sum((rows - r) * r))`` over ``lo <= r <= hi``."""
    n = hi - lo + 1
    s1 = (lo + hi) * n // 2
    s2 = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6
    return rows * n - s1, rows * s1 - s2


def _block_charge(block, rows, var, shift, n, coordinate, stride, torsion):
    """``(units, rel)`` of ``_inversion_charge`` over the pairs of a
    crossing block of unit conjugates ``(coeff, basis, exps)`` of one sign
    and one basis (see ``_conjugates``), or None when they cannot be
    counted by difference.

    Each row is one progression of ``n`` conjugates stepping by ``stride``
    in ``coordinate``, and row r's exponents are the first row's shifted by
    ``r*shift`` at ``var``, another coordinate.  The pair of the u-th
    conjugate of row r and the u2-th of row ``r + g`` differs by
    ``v*stride`` at ``coordinate``, ``v = u - u2``, and by ``-g*shift`` at
    ``var``; ``(rows - g)*(n - |v|)`` pairs share it (for ``g = 0`` only
    ``v < 0``).  Inside one closed orthant of both coordinates the degree
    difference is ``alpha*v - beta*g``, ``alpha`` and ``beta`` the signs
    that ``stride`` and ``shift`` take in the degree, so for each v the
    inverted gaps ``g >= 1`` run from or up to the gap where it is 0, and
    are summed in closed form; the pair's distance is ``|v| + g``.

    None when a varying coordinate crosses 0 or is torsion, as a wrapped
    progression's ends do not bound it.
    """
    if rows > 1 and torsion[var] or n > 1 and torsion[coordinate]:
        return None
    first = block[0][2]
    x, y = first[var], first[coordinate]
    x2, y2 = x + (rows - 1) * shift, y + (n - 1) * stride
    if x * x2 < 0 or y * y2 < 0:
        return None
    alpha = stride if y + y2 > 0 else -stride
    beta = shift if x + x2 > 0 else -shift
    top = rows - 1
    units = rel = 0
    for v in range(1 - n, n):
        pairs, d = n - abs(v), abs(v)
        if v < 0 < alpha:
            units += rows * pairs
            rel += rows * pairs * (4 * d - 3)
        # at equal degree the first differing coordinate decides
        tie = shift > 0 if var < coordinate else v * stride < 0
        edge = alpha * beta * v
        if beta > 0:
            lo, hi = max(1, edge + (not tie)), top
        else:
            lo, hi = 1, min(top, edge - (not tie))
        if lo <= hi:
            w1, w2 = _row_sums(lo, hi, rows)
            units += pairs * w1
            rel += pairs * ((4 * d - 3) * w1 + 4 * w2)
    return units, rel


_BLOCK = 16  # _inversion_charge prices this many items or fewer pair by pair


def _inversion_charge(items, torsion, rows, fill):
    """``(units, rel)`` for sorting ``items`` ``(weight, key, exps,
    monomial id)`` by falling key: over the pairs a < b with key_a < key_b,
    the sum of ``w_a*w_b`` and of ``w_a*w_b`` times the merge price of
    ``m_a`` and ``m_b``, read from ``rows`` (see ``_charge_merge``).

    With d the length of exps_a - exps_b, the price is 4d - 3 except 1 at
    d = 0, i.e. at equal exponents on another basis, so the sum is
    ``4*sum(w_a*w_b*d) - 3*sum(w_a*w_b) + 4*sum over equal exponents of
    w_a*w_b``, and d sums one term per coordinate: |x_a - x_b| on a free
    one and the cyclic distance on a torsion one.

    Up to ``_BLOCK`` items are priced pair by pair.  More merge bottom-up
    from runs of one item each, every pair meeting once, at the merge of
    the two runs that hold it.
    """
    if len(items) <= _BLOCK:
        units = rel = 0
        for a, (wa, ka, _, ma) in enumerate(items):
            row = rows[ma]
            for wb, kb, _, mb in items[a + 1:]:
                if ka < kb:
                    units += wa * wb
                    rel += wa * wb * (row.get(mb) or fill(ma, mb))
        return units, rel
    groups = _groups(items)
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
    trees = [([0] * (len(rank) + 1), [0] * (len(rank) + 1), len(rank) + 1)
             for rank in ranks]
    units = rel = 0
    runs = [[g] for g in groups]
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


def _groups(items):
    """Groups ``[key rank, weight, monomial id, exps]``, one per item; keys
    are ranked once."""
    order = {key: r for r, key in enumerate(sorted({it[1] for it in items}))}
    return [[order[key], w, m, exps] for w, key, exps, m in items]


def _merge_charge(left, right, cyclic, trees):
    """``(units, rel)`` of ``_inversion_charge`` over the pairs of a left
    and a right run of groups, both in key order: each right group meets
    the left groups of strictly smaller key, inserted as the scan passes
    them, so groups of equal key pay nothing.  A free coordinate's
    distances are read off Fenwick trees of the inserted weights and
    weighted values, indexed by the value's rank over the whole sequence
    and cleared of this merge's inserts at the end; a torsion coordinate's
    off a table of inserted weight per residue."""
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
            dist += sum(w * power_length(r - y[i], d)
                        for r, w in enumerate(table) if w)
        units += total * wb
        rel += wb * (4 * dist - 3 * total + 4 * same.get(mb, 0))
    for g in left[:k]:
        for (r, _), (weights, moment, size) in zip(g[4], trees):
            while r < size and weights[r]:
                weights[r] = moment[r] = 0
                r += r & -r
    return units, rel

