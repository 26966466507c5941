"""Presentations of metabelian groups given as a module extension of T.

A presentation lists module generators, infinite-order t-generators,
torsion t-generators with their orders, relator words with zero exponent
sum in every t-generator, a commutator table assigning a module generator
to each pair of t-generators, and an optional tameness datum (finite sets
of centralizer / co-centralizer ring elements).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Optional

from .elements import (_TOO_DEEP, INVERSE_SUFFIX, Ambient, ModuleElement,
                       _Tokens, parse_element)
from .errors import ParseError

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WORD_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|\^|\*|\[|\]|\(|\)|,|\-)")
# One syllable ``name^int``, spaced as the tokenizer allows.  Neither ``\s``
# nor a syllable holds ``*``, so a text is a flat product ``name^int*name*...``
# exactly when each of its ``*``-separated parts is a syllable.
_SYLLABLE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)(?:\s*\^\s*(?:(-)\s*)?(\d+))?\s*")
# The most syllables a rule of the word grammar may return, counted before
# condensing: powers, commutators and conjugations grow a word faster than
# its text, so a short text could otherwise ask for any amount of memory.
_MAX_SYLLABLES = 10 ** 6
# The most parts a syllable table keeps (``_scan``); a full table is emptied
# before its next entry, also inside one word, so words with ever new
# exponents cannot grow it.
_MAX_PARTS = 256


def _condense(letters):
    out = []
    for name, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return tuple(out)


def _inverse(letters) -> list:
    return [(n, -e) for n, e in reversed(letters)]


@dataclass(frozen=True)
class GroupWord:
    """Freely condensed word: adjacent letters carry distinct generator names."""

    letters: tuple[tuple[str, int], ...]

    @staticmethod
    def from_letters(letters) -> "GroupWord":
        return GroupWord(_condense(letters))

    @property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple(_inverse(self.letters)))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord.from_letters(self.letters + other.letters)

    def conjugate_by(self, v: "GroupWord") -> "GroupWord":
        """x^v = v^-1 x v."""
        return v.inverse() * self * v

    def render(self) -> str:
        if not self.letters:
            return "1"
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self.letters)

    def __str__(self) -> str:
        return self.render()


def commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    """``x^-1 y^-1 x y``, condensed once: free reduction is confluent."""
    return GroupWord(_condense(_inverse(x.letters) + _inverse(y.letters)
                               + list(x.letters) + list(y.letters)))


@dataclass(frozen=True)
class TamenessDatum:
    centralizer: tuple[ModuleElement, ...]
    co_centralizer: tuple[ModuleElement, ...]

    def all_elements(self):
        return self.centralizer + self.co_centralizer


@dataclass(frozen=True)
class Presentation:
    module_gens: tuple[str, ...]
    free_gens: tuple[str, ...]
    torsion_gens: tuple[tuple[str, int], ...]
    relators: tuple[GroupWord, ...]
    commutator_table: tuple[tuple[tuple[str, str], str], ...] = ()
    tameness: Optional[TamenessDatum] = None

    # -- derived structure ---------------------------------------------------
    # Derived once per instance: a cached value lives in the instance's
    # ``__dict__``, outside the fields that ``==``, ``hash`` and ``replace``
    # read, so an equal presentation built again derives its own.

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash over every field, taken once: each context
        cache lookup hashes the presentation, relators and all."""
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    def __getstate__(self) -> dict:
        # a str hashes differently in another process
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @cached_property
    def t_names(self) -> tuple[str, ...]:
        return self.free_gens + tuple(n for n, _ in self.torsion_gens)

    @cached_property
    def torsion_orders(self) -> tuple[int, ...]:
        return (0,) * len(self.free_gens) + tuple(d for _, d in self.torsion_gens)

    @property
    def free_rank(self) -> int:
        return len(self.free_gens)

    @cached_property
    def _module_ambient(self) -> Ambient:
        return Ambient(self.t_names, self.torsion_orders,
                       len(self.module_gens), self.module_gens, laurent=True)

    def module_ambient(self) -> Ambient:
        return self._module_ambient

    def ring_ambient(self) -> Ambient:
        return self._module_ambient.ring()

    @cached_property
    def _t_positions(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.t_names)}

    @cached_property
    def _later(self) -> dict[str, tuple[int, tuple[tuple[int, int], ...]]]:
        """``name -> (i, ((j, order), ...))``: the position of a t-generator
        and each later position with its torsion order, last first, the
        letters a unit of it crosses while a conjugator is ordered."""
        orders = self.torsion_orders
        return {n: (i, tuple((j, orders[j])
                             for j in range(len(orders) - 1, i, -1)))
                for i, n in enumerate(self.t_names)}

    @cached_property
    def _cyclic(self) -> tuple[tuple[int, int], ...]:
        """``(position, order)`` of each torsion t-generator."""
        return tuple((i, d) for i, d in enumerate(self.torsion_orders) if d)

    @cached_property
    def _basis_indexes(self) -> dict[str, int]:
        return {n: b for b, n in enumerate(self.module_gens, 1)}

    @cached_property
    def _commutator_gens(self) -> dict[tuple[int, int], str]:
        """``(i, j) -> generator`` over the table's pairs of known names; the
        first row of a pair wins."""
        pos, gens = self._t_positions, {}
        for (a, b), gen in self.commutator_table:
            if a in pos and b in pos:
                gens.setdefault((pos[a], pos[b]), gen)
        return gens

    @cached_property
    def _names(self) -> frozenset[str]:
        """Every generator name a word over this presentation may use."""
        return frozenset(self.module_gens + self.t_names)

    @cached_property
    def _syllables(self) -> dict:
        """The syllable table (``_scan``) of every word read over this
        presentation, its file's relators first."""
        return {}

    def t_index(self, name: str) -> int:
        try:
            return self._t_positions[name]
        except KeyError:
            raise KeyError(f"unknown t-generator {name!r}") from None

    def commutator_gen(self, i: int, j: int) -> str:
        """Module generator realizing the commutator of t-generators i < j."""
        try:
            return self._commutator_gens[i, j]
        except KeyError:
            raise KeyError(f"commutator table misses the pair "
                           f"({self.t_names[i]}, {self.t_names[j]})") from None

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        doc = {
            "module_generators": list(self.module_gens),
            "free_generators": list(self.free_gens),
            "torsion_generators": [{"name": n, "order": d}
                                   for n, d in self.torsion_gens],
            "commutator_table": [{"pair": [a, b], "equals": g}
                                 for (a, b), g in self.commutator_table],
            "relators": [w.render() for w in self.relators],
        }
        if self.tameness is not None:
            doc["lambda"] = {
                "centralizer": [e.render() for e in self.tameness.centralizer],
                "co_centralizer": [e.render()
                                   for e in self.tameness.co_centralizer],
            }
        return doc

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2)


# ---------------------------------------------------------------------------
# Word DSL.


class _WordParser(_Tokens):
    """word := factor ('*' factor)*; factor := atom ('^' exponent)?;
    exponent := integer | name | '(' word ')'; atom := name | '1' |
    '[' word ',' word ']' | '(' word ')'.  Nested conjugation needs
    explicit parentheses.  Every rule returns a syllable list; ``parse``
    condenses it once.  A rule whose list would pass ``_MAX_SYLLABLES`` is
    refused before the list is built."""

    def __init__(self, text: str, names):
        super().__init__(text, _WORD_TOKEN, "unexpected end of word",
                         "expected an integer")
        self.names = names

    def parse(self) -> GroupWord:
        return GroupWord.from_letters(self.done(self.word()))

    def word(self) -> list:
        w = self.factor()
        while self.peek() == "*":
            self.next()
            f = self.factor()
            _room(len(w) + len(f))
            w += f
        return w

    def factor(self) -> list:
        w = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.peek()
            if tok == "(":
                self.next()
                v = self.word()
                self.expect(")")
                _room(2 * len(v) + len(w))
                w = _inverse(v) + w + v
            elif tok == "-" or (tok is not None and tok.isdigit()):
                e = self.integer()
                base = _condense(w)
                # A one-syllable base scales its exponent, so a^-N stays
                # one syllable for any N, and an empty base stays empty;
                # any other base is repeated.
                if len(base) <= 1:
                    w = [(n, x * e) for n, x in base]
                elif len(base) * abs(e) > _MAX_SYLLABLES:
                    raise ParseError(f"power {e} repeats a word of "
                                     f"{len(base)} syllables too often")
                else:
                    w = list(base if e > 0 else _inverse(base)) * abs(e)
            elif tok is not None and _NAME.fullmatch(tok):
                nm, pos = self.next()
                self._check_name(nm, pos)
                _room(len(w) + 2)
                w = [(nm, -1)] + w + [(nm, 1)]
            else:
                raise ParseError("expected an exponent after '^'")
            if self.peek() == "^":
                raise ParseError(
                    "nested conjugation needs parentheses, e.g. a^(t*s)")
        return w

    def atom(self) -> list:
        tok, pos = self.next()
        if tok == "(":
            w = self.word()
            self.expect(")")
            return w
        if tok == "[":
            x = self.word()
            self.expect(",", "expected ',' in commutator")
            y = self.word()
            self.expect("]")
            _room(2 * (len(x) + len(y)))
            return _inverse(x) + _inverse(y) + x + y
        if tok == "1":
            return []
        if _NAME.fullmatch(tok):
            self._check_name(tok, pos)
            return [(tok, 1)]
        raise ParseError(f"unexpected token {tok!r}", pos)

    def _check_name(self, name: str, pos: int):
        if self.names is not None and name not in self.names:
            raise ParseError(f"unknown generator {name!r}", pos)


def _room(size: int):
    """Refuse a rule result of ``size`` syllables past ``_MAX_SYLLABLES``."""
    if size > _MAX_SYLLABLES:
        raise ParseError(f"the word expands to {size} syllables, "
                         f"more than {_MAX_SYLLABLES}")


def parse_word(text: str, p: Optional[Presentation] = None) -> GroupWord:
    """A flat product of known names in one split scan, each part read
    through the syllable table of ``p`` (a table of its own without ``p``);
    any other text, and every error, through the grammar."""
    names, table = (None, {}) if p is None else (p._names, p._syllables)
    try:
        return _word(text, names, table)
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None


def _word(text: str, names, table) -> GroupWord:
    """``_scan`` of ``text`` through ``table``, else the grammar."""
    word = _scan(text, names, table)
    return word if word is not None else _WordParser(text, names).parse()


def _syllable(part: str, names):
    """The letter ``(name, exp)`` of a part ``name^int`` whose name ``names``
    allows (None allows any); False for any other part."""
    m = _SYLLABLE.fullmatch(part)
    if m is None:
        return False
    name, sign, digits = m.groups()
    if names is not None and name not in names:
        return False
    try:
        exp = (-int(digits) if sign else int(digits)) if digits else 1
    except ValueError:  # too long for int(): the grammar reports where
        return False
    return name, exp


def _scan(text: str, names, table):
    """The word of a flat product of known names, read in one pass; None
    for any other text.  ``table`` maps the parts already read to their
    ``_syllable``, holds at most ``_MAX_PARTS`` of them and lives for one
    presentation, or for one word read without one."""
    letters = []
    for part in text.split("*"):
        letter = table.get(part)
        if letter is None:
            if len(table) >= _MAX_PARTS:
                table.clear()
            letter = table[part] = _syllable(part, names)
        if not letter:
            return None
        name, exp = letter
        if not exp:
            continue
        # free reduction as in ``_condense``
        if letters and letters[-1][0] == name:
            merged = letters.pop()[1] + exp
            if merged:
                letters.append((name, merged))
        else:
            letters.append(letter)
    return GroupWord(tuple(letters))


def exponent_sums(w: GroupWord, p: Presentation) -> tuple[int, ...]:
    """Image of the word in T as an exponent vector (torsion reduced)."""
    index = p._t_positions
    sums = [0] * len(index)
    for name, exp in w.letters:
        if name in index:
            sums[index[name]] += exp
    return p.module_ambient().wrap(sums)


# ---------------------------------------------------------------------------
# Presentation files.


def _list(doc: dict, key: str, kind=str) -> list:
    """``doc[key]`` (default empty), checked to be a list of ``kind``."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise ParseError(f"{key!r} must be a list of "
                         f"{'strings' if kind is str else 'objects'}")
    return value


def parse_presentation(text: str | bytes | bytearray) -> Presentation:
    """The presentation a file's text describes.  The last 64 ``str`` texts
    are kept (``functools.lru_cache``; ``parse_presentation.cache_info()``
    and ``cache_clear()``), so a repeated text returns the same instance,
    derived tables built.  ``bytes`` and ``bytearray`` are read each time,
    and a text that raises leaves no entry."""
    try:
        return (_parse_text if isinstance(text, str) else _parse)(text)
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None


def _parse(text) -> Presentation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:  # bytes in no encoding json detects
        raise ParseError(f"presentation bytes do not decode: {exc}") from None
    except ValueError:  # an integer longer than int() converts
        raise ParseError("invalid JSON: an integer literal is too long") from None
    if not isinstance(doc, dict):
        raise ParseError("presentation file must be a JSON object")

    module_gens = tuple(_list(doc, "module_generators"))
    free_gens = tuple(_list(doc, "free_generators"))
    torsion_gens = []
    for t in _list(doc, "torsion_generators", dict):
        name, order = t.get("name"), t.get("order")
        if type(order) is not int:
            raise ParseError(f"torsion generator {name!r} needs an integer 'order'")
        torsion_gens.append((name, order))
    torsion_gens = tuple(torsion_gens)
    names = list(module_gens) + list(free_gens) + [n for n, _ in torsion_gens]
    for n in names:
        if not isinstance(n, str) or not _NAME.fullmatch(n):
            raise ParseError(f"invalid generator name {n!r}")
        if n.endswith(INVERSE_SUFFIX):
            raise ParseError(f"generator name {n!r} collides with inverse variables")
    if len(set(names)) != len(names):
        raise ParseError("generator names must be distinct")
    for n, d in torsion_gens:
        if d < 2:
            raise ParseError(f"torsion generator {n!r} needs order >= 2")

    table, targets = [], {}
    for row in _list(doc, "commutator_table", dict):
        pair, gen = row.get("pair"), row.get("equals")
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(n, str) for n in pair)):
            raise ParseError(f"commutator table pair {pair!r} must list two names")
        pair = tuple(pair)
        if gen not in module_gens:
            raise ParseError(f"commutator table target {gen!r} is not a module generator")
        if targets.setdefault(pair, gen) != gen:
            raise ParseError(f"commutator table gives the pair {pair} two targets")
        table.append((pair, gen))

    p = Presentation(module_gens=module_gens, free_gens=free_gens,
                     torsion_gens=torsion_gens, relators=(),
                     commutator_table=tuple(table))

    t_names = p.t_names
    for i in range(len(t_names)):
        for j in range(i + 1, len(t_names)):
            if (t_names[i], t_names[j]) not in targets:
                raise ParseError(
                    f"commutator table misses the pair ({t_names[i]}, {t_names[j]})")
    for pair, _ in p.commutator_table:
        if pair[0] not in t_names or pair[1] not in t_names:
            raise ParseError(f"commutator table pair {pair} uses unknown generators")
        if p.t_index(pair[0]) >= p.t_index(pair[1]):
            raise ParseError(f"commutator table pair {pair} must be ordered (i < j)")

    # The relators are the first words read through the file's table.
    names, table = p._names, p._syllables
    relators = []
    for rtext in _list(doc, "relators"):
        w = _word(rtext, names, table)
        sums = exponent_sums(w, p)
        if any(sums):
            raise ParseError(
                f"relator {rtext!r} has nonzero t-exponent sum {sums}")
        relators.append(w)

    tameness = None
    lam = doc.get("lambda")
    if lam is not None and not isinstance(lam, dict):
        raise ParseError("'lambda' must be an object of centralizer and "
                         "co_centralizer lists")
    if lam:
        ring = p.ring_ambient()

        def _parse_all(key):
            out = []
            for etext in _list(lam, key):
                e = parse_element(etext, ring)
                if e.is_zero():
                    raise ParseError("tameness datum elements must be nonzero")
                out.append(e)
            return tuple(out)

        tameness = TamenessDatum(centralizer=_parse_all("centralizer"),
                                 co_centralizer=_parse_all("co_centralizer"))

    # ``p`` is built once: the relators and the datum were read through its
    # derived tables, and these two fields, which no derived table reads, are
    # set before ``p`` leaves this function.
    object.__setattr__(p, "relators", tuple(relators))
    object.__setattr__(p, "tameness", tameness)
    return p


_parse_text = lru_cache(maxsize=64)(_parse)
parse_presentation.cache_info = _parse_text.cache_info
parse_presentation.cache_clear = _parse_text.cache_clear
