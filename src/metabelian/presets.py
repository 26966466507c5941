"""Constructors for the example groups and the norm-growth engine."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elements import Ambient, ModuleElement
from .presentation import (GroupWord, Presentation, TamenessDatum, commutator,
                           parse_element)
from .wordproblem import fit_exp

PRESET_NAMES = ("bs", "lamplighter", "zwrz", "baumslag_gamma", "wf",
                "free_abelian")


@dataclass(frozen=True)
class PresetSpec:
    name: str
    n: int = 2                       # bs: the power in a^t = a^n
    m: int = 2                       # lamplighter: module torsion
    r: int = 1                       # wf: module rank
    k: int = 1                       # wf: number of acting pairs (u_i, t_i)
    fs: tuple[tuple[int, ...], ...] = ()   # wf: coefficients (1, c_1, ..., 1)
    torsion_orders: tuple[int, ...] = ()   # wf: extra finite-order t generators

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}")
        if self.name == "bs" and self.n <= 1:
            raise ValueError("bs needs n >= 2")
        if self.name == "lamplighter" and self.m < 2:
            raise ValueError("lamplighter needs module torsion m >= 2")
        if self.name == "wf":
            if self.r < 1 or self.k < 1:
                raise ValueError("wf needs module rank r >= 1 and k >= 1 acting pairs")
            fs = self.fs or tuple((1, 1) for _ in range(self.k))
            object.__setattr__(self, "fs", fs)
            if len(fs) != self.k:
                raise ValueError("need one action polynomial per pair")
            for coeffs in fs:
                if len(coeffs) < 2 or coeffs[0] != 1 or coeffs[-1] != 1:
                    raise ValueError(
                        "action polynomials must be 1 + ... + t^d with d >= 1")
            if any(d < 2 for d in self.torsion_orders):
                raise ValueError(f"wf torsion orders must be >= 2, got "
                                 f"{','.join(map(str, self.torsion_orders))}")


def _word(letters) -> GroupWord:
    return GroupWord.from_letters(letters)


def build(spec: PresetSpec) -> Presentation:
    """The presentation of a preset group."""
    if spec.name == "bs":
        ring = Ambient(("t",), (0,), 1, None, laurent=True)
        # t a t^-1 a^-n, so t*a = (1/n)*a and n*t centralizes the module
        return Presentation(
            module_gens=("a",),
            free_gens=("t",),
            torsion_gens=(),
            relators=(_word((("t", 1), ("a", 1), ("t", -1), ("a", -spec.n))),),
            commutator_table=(),
            tameness=TamenessDatum(
                centralizer=(parse_element(f"{spec.n}*t", ring),),
                co_centralizer=(parse_element(f"{spec.n}*t^-1", ring),)))
    if spec.name == "lamplighter":
        return Presentation(
            module_gens=("a",),
            free_gens=("t",),
            torsion_gens=(),
            relators=(_word((("a", spec.m),)),
                      commutator(_word((("a", 1),)),
                                 _word((("t", -1), ("a", 1), ("t", 1))))),
            commutator_table=())
    if spec.name == "zwrz":
        return Presentation(
            module_gens=("a",),
            free_gens=("t",),
            torsion_gens=(),
            relators=(commutator(_word((("a", 1),)),
                                 _word((("t", -1), ("a", 1), ("t", 1)))),),
            commutator_table=())
    if spec.name == "baumslag_gamma":
        s, t, a = _word((("s", 1),)), _word((("t", 1),)), _word((("a", 1),))
        return Presentation(
            module_gens=("a", "b"),
            free_gens=("s", "t"),
            torsion_gens=(),
            relators=(
                commutator(a, a.conjugate_by(t)),
                commutator(s, t),
                _word((("s", -1), ("a", 1), ("s", 1), ("a", -1),
                       ("t", -1), ("a", -1), ("t", 1)))),
            commutator_table=((("s", "t"), "b"),))
    if spec.name == "free_abelian":
        return Presentation(
            module_gens=("c",),
            free_gens=("t1", "t2"),
            torsion_gens=(),
            relators=(_word((("c", 1),)),),
            commutator_table=((("t1", "t2"), "c"),))
    if spec.name == "wf":
        return _build_wf(spec)
    raise ValueError(f"unknown preset {spec.name!r}")


def _wf_names(spec: PresetSpec):
    a_names = tuple(f"a{i + 1}" for i in range(spec.r))
    u_names = tuple(f"u{j + 1}" for j in range(spec.k))
    t_names = tuple(f"t{j + 1}" for j in range(spec.k))
    tor_names = tuple(f"t{spec.k + j + 1}" for j in range(len(spec.torsion_orders)))
    return a_names, u_names, t_names, tor_names


def _build_wf(spec: PresetSpec) -> Presentation:
    a_names, u_names, t_names, tor_names = _wf_names(spec)
    free = u_names + t_names
    torsion = tuple(zip(tor_names, spec.torsion_orders))
    all_t = free + tor_names
    module = a_names + ("z",)

    table = tuple(((all_t[i], all_t[j]), "z")
                  for i in range(len(all_t)) for j in range(i + 1, len(all_t)))

    relators: list[GroupWord] = [_word((("z", 1),))]
    for name, order in torsion:
        relators.append(_word(((name, order),)))
    for i, a in enumerate(a_names):
        for j, u in enumerate(u_names):
            relators.append(_action_relator(a, u, t_names[j], spec.fs[j]))
    # conjugate commutativity inside the exponent box (the t-part only)
    box = _exponent_box(t_names + tor_names,
                        [len(f) - 1 for f in spec.fs] + [d - 1 for d in
                                                         spec.torsion_orders])
    conjugates = [_word(((a, 1),)).conjugate_by(_word(x))
                  for a in a_names for x in box]
    relators += [commutator(x, y) for q, x in enumerate(conjugates)
                 for y in conjugates[q + 1:]]
    return Presentation(
        module_gens=module,
        free_gens=free,
        torsion_gens=torsion,
        relators=tuple(relators),
        commutator_table=table)


def _action_relator(a: str, u: str, t: str, coeffs) -> GroupWord:
    """a^u times the inverse of prod_e (a^{c_e})^{t^e}."""
    action = _word(((u, -1), (a, 1), (u, 1)))
    f_side = GroupWord(())
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        f_side = f_side * _word(((t, -e), (a, c), (t, e)))
    return action * f_side.inverse()


def _exponent_box(names, limits):
    """Ordered words t1^e1...tl^el with 0 <= e_i <= limit_i."""
    out = [()]
    for name, limit in zip(names, limits):
        out = [w + ((name, e),) if e else w for w in out
               for e in range(0, limit + 1)]
    return out


def witness_family(spec: PresetSpec):
    """Hard-coded identity-word families indexed by the family parameter.

    bs: t^n a t^-n a^(-m^n); wf: the commutator probe [a1^(u1^n), a1] plus
    the action form a1^(u1^n) * (a1^(f1^n))^(-1) whose membership
    certificate grows with the norms |f1^n|.
    """
    if spec.name == "bs":
        def family(n: int):
            return [_word((("t", n), ("a", 1), ("t", -n), ("a", -spec.n ** n)))]
        return family
    if spec.name == "free_abelian":
        def family(n: int):
            return [commutator(_word((("t1", n),)), _word((("t2", n),)))]
        return family
    if spec.name == "wf":
        a_names, u_names, t_names, _ = _wf_names(spec)
        a, u, t = a_names[0], u_names[0], t_names[0]
        ring = Ambient((t,), (0,), 1, None, laurent=True)
        f1 = ModuleElement.from_dict(
            ring, {((e,), None): c for e, c in enumerate(spec.fs[0])})

        def family(n: int):
            probe = commutator(_word(((a, 1),)).conjugate_by(_word(((u, n),))),
                               _word(((a, 1),)))
            power = f1
            for _ in range(n - 1):
                power = power.mul_ring(f1)
            f_side = GroupWord(())
            for ((e,), _), c in sorted(power.as_dict().items()):
                f_side = f_side * _word(((t, -e), (a, c), (t, e)))
            action = _word(((u, -n), (a, 1), (u, n))) * f_side.inverse()
            return [probe, action]
        return family

    def family(n: int):
        return []
    return family


def norm_growth(f: ModuleElement, N: int):
    """Norms |f^n| for n = 1..N and the fitted growth base.

    ``f`` must be a one-variable ring element of the shape
    1 + c_1 t + ... + t^d with d >= 1, and ``N >= 2``: one norm fits no
    base.
    """
    if N < 2:
        raise ValueError(f"norm growth fits a base to N >= 2 norms, got N = {N}")
    _check_growth_shape(f)
    norms = []
    power = f
    for _ in range(N):
        norms.append(power.length)
        power = power.mul_ring(f)
    xs = list(range(1, N + 1))
    alpha = math.exp(fit_exp(xs, norms))
    if alpha <= 1.0:
        raise ValueError("growth base must exceed 1 for this polynomial shape")
    return norms, alpha


def _check_growth_shape(f: ModuleElement):
    if not f.ambient.is_ring() or f.ambient.nvars != 1:
        raise ValueError("need a ring element in a single variable")
    coeffs = {e: c for ((e,), _), c in f.as_dict().items()}
    if any(e < 0 for e in coeffs):
        raise ValueError("growth polynomials cannot have negative exponents")
    d = max(coeffs, default=0)
    if d < 1 or coeffs.get(0) != 1 or coeffs.get(d) != 1:
        raise ValueError("growth polynomials have the shape 1 + ... + t^d, d >= 1")

