"""Words as lists of letters ``(generator, exponent)``, kept freely reduced.

The benchmark builds and renders its inputs with these helpers, so the
program under test only ever sees the word text.
"""

from __future__ import annotations


def condense(letters):
    """Merge adjacent powers of one generator and drop zero exponents."""
    out = []
    for name, exp in letters:
        if not exp:
            continue
        if out and out[-1][0] == name:
            merged = out.pop()[1] + exp
            if merged:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return out


def inverse(letters):
    return [(name, -exp) for name, exp in reversed(letters)]


def product(*words):
    return condense([letter for w in words for letter in w])


def commutator(x, y):
    """[x, y] = x^-1 y^-1 x y."""
    return product(inverse(x), inverse(y), x, y)


def conjugate(x, v):
    """x^v = v^-1 x v."""
    return product(inverse(v), x, v)


def length(letters) -> int:
    return sum(abs(exp) for _, exp in letters)


def render(letters) -> str:
    """The word DSL text, e.g. ``t^3*a*t^-3*a^-8``; ``1`` for the empty word."""
    if not letters:
        return "1"
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in letters)


def t_sums(letters, t_names):
    sums = dict.fromkeys(t_names, 0)
    for name, exp in letters:
        if name in sums:
            sums[name] += exp
    return [sums[name] for name in t_names]
