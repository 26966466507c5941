"""Reduced elements of free modules over integer (Laurent) polynomial rings.

An element is a dict of terms ``c * x1^e1...xk^ek * e_b``, one per monomial,
keyed ``(exponents, basis)``, with no zero coefficients.  Ring elements
(module rank one, no basis vector) use the same class with ``basis=None``
keys; ``Ambient.ring()`` gives the coefficient-ring ambient of a module
ambient.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from operator import add
from typing import Optional

from .bounds import _decimal
from .errors import AmbientMismatch, ParseError
from .order import monomial_key

# The name suffix of the variable that stands for a Laurent variable's
# inverse once ``laurent_embed`` makes a Laurent ambient polynomial.
INVERSE_SUFFIX = "__inv"


@dataclass(frozen=True)
class Ambient:
    """Variable names, torsion orders (0 = infinite), rank and basis names.

    ``laurent=True`` allows negative exponents and keeps torsion exponents
    reduced into [0, order); the polynomial ambients used by the Groebner
    engine set ``laurent=False``, never wrap and hold no negative exponent.
    """

    variables: tuple[str, ...]
    torsion: tuple[int, ...]
    rank: int
    basis_names: Optional[tuple[str, ...]] = None
    laurent: bool = True

    def __post_init__(self):
        if len(self.torsion) != len(self.variables):
            raise ValueError("torsion orders must align with variables")
        if any(d < 0 or d == 1 for d in self.torsion):
            raise ValueError("torsion orders must be 0 (infinite) or >= 2")
        if self.basis_names is None:
            if self.rank != 1:
                raise ValueError("a ring ambient (no basis names) has rank 1")
        elif len(self.basis_names) != self.rank:
            raise ValueError("basis names must align with rank")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def ring(self) -> "Ambient":
        """The coefficient-ring ambient (rank one, no basis vectors)."""
        return Ambient(self.variables, self.torsion, 1, None, self.laurent)

    def is_ring(self) -> bool:
        return self.basis_names is None

    def wrap(self, exponents) -> tuple[int, ...]:
        """Reduce torsion exponents into [0, order) when in Laurent mode."""
        if not self.laurent or not any(self.torsion):
            return tuple(exponents)
        return tuple(e % d if d else e for e, d in zip(exponents, self.torsion))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None


def _sum(g: dict, h: dict, c: int = 1) -> dict:
    """``g += c * h`` on term dicts ``{(exponents, basis): coefficient}``,
    dropping the terms that cancel; returns ``g``."""
    for key, v in h.items():
        v = g.get(key, 0) + c * v
        if v:
            g[key] = v
        else:
            g.pop(key, None)
    return g


def _product(g: dict, h: dict, wrap) -> dict:
    """The product of two term dicts, at most one of which has basis
    vectors.  ``wrap`` builds each product's exponent tuple: ``Ambient.wrap``
    reduces torsion exponents, ``tuple`` leaves them to ``from_dict``."""
    out: dict = {}
    for (u, b), c in h.items():
        for (e, d), x in g.items():
            key = (wrap(map(add, e, u)), b or d)
            out[key] = out.get(key, 0) + c * x
    return {key: c for key, c in out.items() if c}


_set = object.__setattr__


class ModuleElement:
    """A reduced element, kept as its term dict ``{(exponents, basis):
    coefficient}``: no zero coefficients, torsion exponents wrapped.

    ``from_dict``, ``zero`` and ``parse_element`` build elements.  Elements
    are immutable.
    """

    __slots__ = ("ambient", "_raw", "_hash")

    @staticmethod
    def _of(ambient: Ambient, raw: dict) -> "ModuleElement":
        """The element of the reduced term dict ``raw``, which it keeps."""
        g = object.__new__(ModuleElement)
        _set(g, "ambient", ambient)
        _set(g, "_raw", raw)
        _set(g, "_hash", None)
        return g

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ModuleElement.from_dict, (self.ambient, self._raw)

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.ambient == other.ambient and self._raw == other._raw

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash((self.ambient, frozenset(self._raw.items()))))
        return self._hash

    def __repr__(self):
        raw = self._raw
        terms = {m: raw[m] for m in sorted(raw, key=monomial_key, reverse=True)}
        return f"ModuleElement.from_dict({self.ambient!r}, {terms!r})"

    @staticmethod
    def zero(ambient: Ambient) -> "ModuleElement":
        return ModuleElement._of(ambient, {})

    @staticmethod
    def from_dict(ambient: Ambient, raw: dict) -> "ModuleElement":
        """The element of a term dict: torsion exponents are wrapped, and
        terms that merge to zero or have a zero coefficient are dropped.
        AmbientMismatch is raised on a key whose exponent tuple has not
        ``ambient.nvars`` entries, on a basis other than None in a ring
        ambient or an int in 1..rank in a module ambient, and on a negative
        exponent in a polynomial ambient (``laurent=False``)."""
        nvars, ring, rank = ambient.nvars, ambient.is_ring(), ambient.rank
        for exps, basis in raw:
            fits = (basis is None if ring
                    else type(basis) is int and 0 < basis <= rank)
            if not fits or len(exps) != nvars:
                raise AmbientMismatch(
                    f"a term key does not fit the ambient of {nvars} "
                    f"variables and rank {rank}")
        if ambient.laurent and any(ambient.torsion):
            merged: dict[tuple, int] = {}
            for (exps, basis), coeff in raw.items():
                if coeff:
                    key = (ambient.wrap(exps), basis)
                    merged[key] = merged.get(key, 0) + coeff
            raw = merged
        raw = {key: c for key, c in raw.items() if c}
        if not ambient.laurent and any(min(e, default=0) < 0 for e, _ in raw):
            raise AmbientMismatch("negative exponent in a polynomial ambient")
        return ModuleElement._of(ambient, raw)

    def is_zero(self) -> bool:
        return not self._raw

    def as_dict(self) -> dict:
        return dict(self._raw)

    def _check_ambient(self, other: "ModuleElement"):
        if self.ambient != other.ambient:
            raise AmbientMismatch("elements of different ambients")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_ambient(other)
        return ModuleElement._of(self.ambient, _sum(self.as_dict(), other._raw))

    def __neg__(self) -> "ModuleElement":
        return ModuleElement._of(self.ambient,
                                 {key: -c for key, c in self._raw.items()})

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_ambient(other)
        return ModuleElement._of(self.ambient,
                                 _sum(self.as_dict(), other._raw, -1))

    def scale_translate(self, c: int, u: tuple) -> "ModuleElement":
        """Return ``c * x^u * self`` reduced; ``u`` is an exponent tuple."""
        if len(u) != self.ambient.nvars:
            raise AmbientMismatch("translation monomial over wrong variable set")
        return ModuleElement.from_dict(self.ambient, _product(
            self._raw, {(u, None): c}, tuple))

    def mul_ring(self, lam: "ModuleElement") -> "ModuleElement":
        """Multiply by an element of the coefficient ring ``ambient.ring()``."""
        if lam.ambient != self.ambient.ring():
            raise AmbientMismatch("ring multiplier must live in the coefficient ring")
        return ModuleElement.from_dict(self.ambient, _product(
            self._raw, lam._raw, tuple))

    @property
    def length(self) -> int:
        return sum(map(abs, self._raw.values()))

    @property
    def degree(self) -> int:
        return max((sum(map(abs, e)) for e, _ in self._raw), default=0)

    def render(self) -> str:
        return render_element(self)

    def __str__(self) -> str:
        return self.render()


def power_length(e: int, d: int) -> int:
    """Word length of t^e for a generator of order d (0: infinite): |e|,
    or the shorter way around the cycle."""
    if d:
        e %= d
        return min(e, d - e)
    return abs(e)


def monomial_word_degree(ambient: Ambient, exponents) -> int:
    """Group-word length of the ordered word realizing an exponent vector,
    the sum of ``power_length`` over its coordinates."""
    return sum(map(power_length, exponents, ambient.torsion))


# ---------------------------------------------------------------------------
# Canonical text format, e.g. "(t^2 - 2*t)*a1 + 3*a2".

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|\^|\*|\+|\-|\(|\))")


# Monomial texts kept by ``_monomial_text``: about 0.9 MB when full.
_MONOMIAL_TEXTS = 4096


@lru_cache(maxsize=_MONOMIAL_TEXTS)
def _monomial_text(names, exponents) -> str:
    """``t1^2*t2^-1``: the variables of ``names`` at ``exponents``; empty
    for the unit monomial."""
    return "*".join([v if e == 1 else f"{v}^{_decimal(e)}"
                     for v, e in zip(names, exponents) if e])


def _ring_text(monomials, raw: dict, names) -> str:
    """The ring part of the terms of ``raw`` at ``monomials``, in that order;
    an integer past the int-to-str digit limit is written too."""
    parts = []
    for m in monomials:
        c = raw[m]
        body = _monomial_text(names, m[0])
        mag = abs(c)
        if not body:
            body = _decimal(mag)
        elif mag != 1:
            body = f"{_decimal(mag)}*{body}"
        parts.append((" - " if c < 0 else " + ") + body)
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def render_element(g: ModuleElement) -> str:
    """Canonical text; variables and basis names come from the ambient.

    The term dict is sorted once, in descending monomial order, and each
    basis vector's terms, in that order, render as one ring element.
    """
    raw = g._raw
    if not raw:
        return "0"
    amb = g.ambient
    order = sorted(raw, key=monomial_key, reverse=True)
    if amb.is_ring():
        return _ring_text(order, raw, amb.variables)

    groups: dict = {}
    for m in order:
        groups.setdefault(m[1], []).append(m)
    parts = []
    for b in sorted(groups):
        monomials = groups[b]
        name = amb.basis_names[b - 1]
        text = _ring_text(monomials, raw, amb.variables)
        if len(monomials) > 1:
            text = f"({text})*{name}"
        elif text in ("1", "-1"):
            text = text[:-1] + name  # a unit coefficient keeps its sign only
        else:
            text = f"{text}*{name}"
        parts.append(f" - {text[1:]}" if text[0] == "-" else f" + {text}")
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


# The message of a RecursionError in a reader (deep brackets in a word, an
# element or a file's JSON), raised as a ParseError at the reader's entry.
_TOO_DEEP = "nesting is too deep"


class _Tokens:
    """Token cursor shared by the element and the word parser.

    Each parser passes its token pattern, its end-of-text message and its
    message for a malformed integer.
    """

    def __init__(self, text: str, pattern, end_message: str,
                 integer_message: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = pattern.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0
        self.end_message = end_message
        self.integer_message = integer_message

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError(self.end_message)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, token: str, message: Optional[str] = None):
        tok, pos = self.next()
        if tok != token:
            raise ParseError(message or f"expected {token!r}", pos)

    def done(self, result):
        """``result``, once every token has been read."""
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ParseError(f"unexpected token {tok!r}", pos)
        return result

    def integer(self) -> int:
        tok, pos = self.next()
        sign = 1
        if tok == "-":
            sign = -1
            tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError(self.integer_message, pos)
        return sign * _literal(tok, pos)


def _literal(digits: str, pos: int) -> int:
    """The value of the integer token ``digits`` at ``pos``; a literal longer
    than ``int`` converts (``sys.get_int_max_str_digits()``) is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long",
                         pos) from None


class _ElementParser(_Tokens):
    """Every rule returns a term dict, zero-free with torsion exponents
    wrapped, so a product sees a factor that wraps to zero as zero; ``parse``
    builds the one element."""

    def __init__(self, text: str, ambient: Ambient):
        super().__init__(text, _TOKEN, "unexpected end of input",
                         "expected an integer exponent")
        self.ambient = ambient

    def parse(self) -> ModuleElement:
        raw = self.done(self.element())
        if not self.ambient.is_ring() and any(b is None for _, b in raw):
            raise ParseError("module element text must attach every term to "
                             "a basis name")
        return ModuleElement.from_dict(self.ambient, raw)

    def element(self) -> dict:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        g = _sum({}, self.addend(), sign)
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            _sum(g, self.addend(), -1 if op == "-" else 1)
        return g

    def addend(self) -> dict:
        g = self.factor()
        while self.peek() == "*":
            self.next()
            h = self.factor()
            if any(b for _, b in g) and any(b for _, b in h):
                raise ParseError("cannot multiply two module elements")
            g = _product(g, h, self.ambient.wrap)
        return g

    def factor(self) -> dict:
        tok, pos = self.next()
        amb = self.ambient
        zero = (0,) * amb.nvars
        if tok == "(":
            g = self.element()
            self.expect(")")
            return g
        if tok.isdigit():
            c = _literal(tok, pos)
            return {(zero, None): c} if c else {}
        if tok == "-":
            return _sum({}, self.factor(), -1)
        if not tok[0].isalpha() and tok[0] != "_":
            raise ParseError(f"unexpected token {tok!r}", pos)
        exp = 1
        if self.peek() == "^":
            self.next()
            exp = self.integer()
        if not amb.is_ring() and tok in amb.basis_names:
            if exp != 1:
                raise ParseError(f"basis vector {tok!r} cannot carry an exponent", pos)
            return {(zero, amb.basis_names.index(tok) + 1): 1}
        if tok in amb.variables:
            j = amb.var_index(tok)
            return {(amb.wrap(exp if i == j else 0 for i in range(amb.nvars)),
                     None): 1}
        raise ParseError(f"unknown name {tok!r}", pos)


def parse_element(text: str, ambient: Ambient) -> ModuleElement:
    """Parse canonical element text, ring or module depending on the ambient."""
    try:
        return _ElementParser(text, ambient).parse()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
