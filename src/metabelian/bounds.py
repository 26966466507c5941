"""Closed-form bounds: exact integers kept as sums of powers.

The paper states its area bounds in closed form, for instance
``C^(n^(2k)) + (n + n^2)^2 C^(2n) + ...``; expanded, such a bound has
millions of digits.  A ``Bound`` keeps the form ``(sum_i c_i b_i^e_i) / d``
and answers ``bit_length()``, ``log2()`` and comparisons exactly.  Short
bounds are expanded outright; longer ones are decided from a padded
floating-point interval on log2 of every power and expanded only when that
interval cannot decide.  A bound with a power whose log2 is past the float
range is decided on intervals of fractions, exact in the exponents, and is
never expanded: where they cannot decide, a ``ValueError`` says so.

A bound's JSON document ``{expression, log2[, value]}`` is rendered once per
closed form and kept in a bounded process-wide cache (``_document``), which
``str()`` reads too; its ``log2`` is a finite number, an integer past the
float range, or None for a value of 0.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache

# Bounds of at most this many bits carry their decimal value in ``str()`` and
# JSON; longer ones render as their closed form alone.  Bounds whose terms
# stay within it are cheaper to expand than to bracket with floats.
VALUE_MAX_BITS = 1024

# Relative slack on every float log2.  math.log2, one product and one sum
# round by a few units in the last place (about 1e-16 relative each).
_REL_PAD = 1e-12


def _expand(terms) -> int:
    """The exact value of ``sum c * b**e``: the only place a power is
    expanded; a term with ``c = 0`` is not, whatever its power."""
    return sum(c * b ** e for c, b, e in terms if c)


def _normalize(terms) -> dict:
    """Merge terms into ``{(odd base, exponent, power of two): coefficient}``.

    Powers of two are split out of bases and coefficients, so that terms such
    as ``4^n`` and ``2^(2n)`` merge and cancel exactly.
    """
    out: dict = {}
    for c, b, e in terms:
        if c == 0 or (b == 0 and e > 0):
            continue
        if e == 0:
            b = 1
        s = (b & -b).bit_length() - 1
        odd = b >> s
        v = (c & -c).bit_length() - 1
        key = (odd, e if odd > 1 else 0, s * e + v)
        out[key] = out.get(key, 0) + (c >> v)
    return {k: c for k, c in out.items() if c}


def _sum_span(spans):
    """An interval containing log2 of the sum of numbers with the given spans."""
    if len(spans) < 2:
        return spans[0] if spans else None
    top_lo = max(lo for lo, _ in spans)
    top_hi = max(hi for _, hi in spans)
    lo = top_lo + math.log2(sum(2.0 ** (lo - top_lo) for lo, _ in spans))
    # The floor of 2^-1000 keeps far smaller terms from vanishing in the sum.
    hi = top_hi + math.log2(sum(2.0 ** max(hi - top_hi, -1000.0) for _, hi in spans))
    pad = _REL_PAD * (1.0 + abs(lo) + abs(hi))
    return lo - pad, hi + pad


def _parts(terms):
    """Spans of log2 of the positive and of the negative part of the sum of
    ``c * b^e * 2^t`` over ``(c, b, e, t)``; None for an empty part.
    Raises ``OverflowError`` when a term's log2 is past the float range."""
    pos, neg = [], []
    for c, b, e, t in terms:
        if c == 0 or (b == 0 and e > 0):
            continue
        a = math.log2(abs(c))
        # an exponent or a shift too large for a float raises OverflowError
        x = e * math.log2(b) if b > 1 and e else 0.0
        mid = a + x + t
        if mid == math.inf:
            raise OverflowError("log2 of a bound term is past the float range")
        pad = _REL_PAD * (1.0 + abs(a) + x + abs(t))
        (pos if c > 0 else neg).append((mid - pad, mid + pad))
    return _sum_span(pos), _sum_span(neg)


def _exact_parts(terms):
    """``_parts`` for terms whose log2 may be past the float range: spans of
    Fractions, exact in the exponents and shifts, padded for the float
    log2 of each coefficient and base.  A part's span runs from its largest
    term's low end to its largest high end plus log2 of its term count."""
    # only bounds past the float range need fractions: not imported at start
    from fractions import Fraction

    parts = ([], [])
    for c, b, e, t in terms:
        if c == 0 or (b == 0 and e > 0):
            continue
        a = Fraction(math.log2(abs(c)))
        x = e * Fraction(math.log2(b)) if b > 1 and e else Fraction(0)
        pad = Fraction(_REL_PAD) * (1 + a + x)
        parts[c < 0].append((a + x + t - pad, a + x + t + pad))
    return tuple((max(lo for lo, _ in spans),
                  max(hi for _, hi in spans) + (len(spans) - 1).bit_length())
                 if spans else None for spans in parts)


def _out_of_reach():
    raise ValueError("the sign of a bound past the float range is out of "
                     "reach: its positive and negative parts are too close")


def _sign(terms, exact=None) -> int:
    """The sign of ``sum c * b**e``, read from float intervals where they
    decide; otherwise ``exact()`` when given, else the expanded sum's."""
    norm = _normalize(terms)
    parts = [(c, odd, e, two) for (odd, e, two), c in norm.items()]
    try:
        pos, neg = _parts(parts)
    except OverflowError:
        # past the float range a sum is never expanded
        pos, neg = _exact_parts(parts)
        exact = _out_of_reach
    if neg is None:
        return 1 if pos else 0
    if pos is None:
        return -1
    if pos[0] > neg[1]:
        return 1
    if neg[0] > pos[1]:
        return -1
    if exact is not None:
        return exact()
    value = _expand((c << two, odd, e) for (odd, e, two), c in norm.items())
    return (value > 0) - (value < 0)


def _decimal(n: int) -> str:
    """``str(n)``, also for an int longer than Python's int-to-str digit
    limit (``sys.get_int_max_str_digits``), which is left as it is: such an
    int is split at a power of ten into halves converted on their own."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).rjust(k, "0")


def _json_int(n: int):
    """``n`` for ``json.dumps``: the int itself, or its decimal string
    (``_decimal``) when it has more digits than ``str`` converts."""
    limit = sys.get_int_max_str_digits()
    if not limit or n.bit_length() < 3 * limit or abs(n) < 10 ** limit:
        return n  # 2^(3*limit) < 10^limit: short ints skip the power
    return _decimal(n)


def _render_term(c: int, b: int, e: int) -> str:
    if e == 0 or b == 1:
        return _decimal(c)
    power = _decimal(b) if e == 1 else f"{_decimal(b)}^{_decimal(e)}"
    return power if c == 1 else f"{_decimal(c)}*{power}"


class Bound:
    """An exact integer ``(sum_i c_i * b_i^e_i) / d``.

    ``terms`` holds the ``(c, b, e)`` integer triples of the closed form
    (``b, e >= 0``, any sign of ``c``) and ``divisor`` the positive integer
    ``d``, which must divide the sum (checked on residues, no power is
    expanded; ValueError otherwise); a float or a string raises TypeError.
    Comparisons against ints and other bounds, ``bit_length()`` and ``hash()``
    agree with ``int(bound)``, which expands the powers.  ``str()`` and
    ``to_json()`` read one document per closed form; a bound below zero has
    no ``log2``, so both raise ``ValueError`` for it.
    """

    __slots__ = ("terms", "divisor", "_span", "_value")

    def __init__(self, terms, divisor: int = 1):
        index = operator.index
        self.terms = tuple((index(c), index(b), index(e)) for c, b, e in terms)
        self.divisor = index(divisor)
        if self.divisor < 1 or any(b < 0 or e < 0 for _, b, e in self.terms):
            raise ValueError("bounds need non-negative bases and exponents "
                             "and a positive divisor")
        d = self.divisor
        if d > 1 and sum(c * pow(b, e, d) for c, b, e in self.terms) % d:
            raise ValueError("the divisor of a bound must divide its sum")
        self._span = None
        self._value = None

    @staticmethod
    def of(value: int) -> "Bound":
        return Bound(((value, 1, 1),))

    @property
    def expression(self) -> str:
        text = ""
        for c, b, e in self.terms:
            part = _render_term(abs(c), b, e)
            if not text:
                text = part if c >= 0 else f"-{part}"
            else:
                text += f" - {part}" if c < 0 else f" + {part}"
        text = text or "0"
        return text if self.divisor == 1 else f"({text})/{_decimal(self.divisor)}"

    def __int__(self) -> int:
        if self._value is None:
            self._value = _expand(self.terms) // self.divisor
        return self._value

    def _log2_span(self):
        """An interval containing log2(int(self)), or None: use int(self).

        None stands for bounds short enough to expand at once, for values
        <= 0, and for sums whose negative part nearly cancels the positive.
        A bound with a term past the float range has a span of Fractions
        (``_exact_parts``), or raises ``ValueError`` where it would need
        int(self).
        """
        if self._span is None:
            span = None
            size = max((abs(c).bit_length() + e * b.bit_length()
                        for c, b, e in self.terms), default=0)
            if size > VALUE_MAX_BITS:
                try:
                    pos, neg = _parts((c, b, e, 0) for c, b, e in self.terms)
                except OverflowError:
                    span = self._exact_span()
                else:
                    if neg is None:
                        span = pos
                    elif pos is not None and neg[1] < pos[0] - 1:
                        # pos - neg, the subtracted part at most half of pos
                        span = (pos[0] + math.log2(1.0 - 2.0 ** (neg[1] - pos[0])),
                                pos[1] + math.log2(1.0 - 2.0 ** (neg[0] - pos[1])))
                    if span is not None:
                        shift = math.log2(self.divisor)
                        pad = _REL_PAD * (1.0 + abs(shift) + abs(span[0]))
                        span = (span[0] - shift - pad, span[1] - shift + pad)
            self._span = (span,)
        return self._span[0]

    def _exact_span(self):
        """``_log2_span`` of a bound with a term past the float range, from
        its normalized terms, so that powers of two stay exact."""
        from fractions import Fraction

        pos, neg = _exact_parts((c, odd, e, two) for (odd, e, two), c
                                in _normalize(self.terms).items())
        if pos is None or neg is not None and neg[1] >= pos[0] - 1:
            raise ValueError("log2 of a bound past the float range is out of "
                             "reach: its negative part is not below half its "
                             "positive part")
        lo, hi = pos
        if neg is not None:
            # pos - neg, the subtracted part at most half of pos
            gap = float(max(neg[1] - lo, -2000))
            lo += Fraction(math.log2(1.0 - 2.0 ** gap)) - Fraction(_REL_PAD)
        shift = Fraction(math.log2(self.divisor))
        pad = Fraction(_REL_PAD) * (1 + shift)
        return lo - shift - pad, hi - shift + pad

    def log2(self) -> float:
        """log2 of the value; inf for a value past the float range."""
        span = self._log2_span()
        if span is not None:
            mid = (span[0] + span[1]) / 2
            try:
                return float(mid)
            except OverflowError:
                return math.inf
        value = int(self)
        return math.log2(value) if value else -math.inf

    def bit_length(self) -> int:
        span = self._log2_span()
        if span is None or span[1] - span[0] > 1:
            if span is not None and not isinstance(span[0], float):
                # a span of Fractions: the bound is past the float range
                raise ValueError("the bit length of a bound past the float "
                                 "range is out of reach: its log2 is known "
                                 "to within more than one bit only")
            return int(self).bit_length()
        top = math.floor(span[1])
        if math.floor(span[0]) == top:
            return top + 1
        # 2^(top-1) <= self < 2^(top+1); compare with 2^top symbolically.
        above = _sign(self.terms + ((-self.divisor, 2, top),)) >= 0
        return top + 1 if above else top

    def is_short(self) -> bool:
        # A wide interval far above the cut needs no exact bit length.
        span = self._log2_span()
        if span is not None and span[0] >= VALUE_MAX_BITS:
            return False
        return self.bit_length() <= VALUE_MAX_BITS

    def __str__(self) -> str:
        doc = _document(self.terms, self.divisor)
        return doc.get("value", doc["expression"])

    def __repr__(self) -> str:
        return f"Bound({self.expression!r})"

    def to_json(self) -> dict:
        doc = dict(_document(self.terms, self.divisor))
        if type(doc["log2"]) is int:  # past the float range: at the current limit
            doc["log2"] = _json_int(doc["log2"])
        return doc

    def _compare(self, other) -> int:
        if isinstance(other, Bound):
            if (self.terms, self.divisor) == (other.terms, other.divisor):
                return 0
            return _sign(tuple((c * other.divisor, b, e) for c, b, e in self.terms)
                         + tuple((-c * self.divisor, b, e) for c, b, e in other.terms))
        # Undecided by the floats, the value is expanded once and kept.
        return _sign(self.terms + ((-other * self.divisor, 1, 1),),
                     lambda: (int(self) > other) - (int(self) < other))

    def _test(self, other, op):
        if not isinstance(other, (Bound, int)):
            return NotImplemented
        return op(self._compare(other), 0)

    def __eq__(self, other):
        return self._test(other, operator.eq)

    def __lt__(self, other):
        return self._test(other, operator.lt)

    def __le__(self, other):
        return self._test(other, operator.le)

    def __gt__(self, other):
        return self._test(other, operator.gt)

    def __ge__(self, other):
        return self._test(other, operator.ge)

    def __hash__(self):
        # hash(int) reduces modulo a prime, so the powers reduce the same way.
        m = sys.hash_info.modulus
        if self.divisor % m == 0:
            return hash(int(self))
        r = sum(c * pow(b, e, m) for c, b, e in self.terms) * pow(self.divisor, -1, m) % m
        if self._compare(0) >= 0:
            return r
        r = -((m - r) % m)
        return -2 if r == -1 else r


@lru_cache(maxsize=1024)
def _document(terms, divisor) -> dict:
    """``{expression, log2[, value]}`` of the closed form ``terms / divisor``.

    Keyed by the closed form, not by the value: ``4`` and ``2^2`` are equal
    bounds with texts of their own.  Callers copy the dict or only read it;
    an int ``log2`` is kept as it is, for ``to_json`` to pass through
    ``_json_int`` on each call.
    """
    b = Bound(terms, divisor)
    log2 = b.log2()
    if log2 == math.inf:
        # past the float range: the integer midpoint of the exact span
        lo, hi = b._log2_span()
        log2 = round(lo / 2 + hi / 2)
    elif log2 == -math.inf:
        log2 = None  # a zero value: strict JSON has no -Infinity
    else:
        log2 = round(log2, 6)
    doc = {"expression": b.expression, "log2": log2}
    if b.is_short():
        doc["value"] = str(int(b))
    return doc
