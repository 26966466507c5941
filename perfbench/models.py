"""Reference answers: homomorphisms from the preset groups into groups where
equality is decided by direct computation.

* BS(1,n) acts faithfully on Q by affine maps, ``t -> x*n`` and ``a -> x+1``.
* Z^2 embeds in the positive rationals under multiplication, ``t1 -> 2*x``
  and ``t2 -> 3*x`` (unique factorisation), with ``c`` trivial.
* The lamplighter group Z_m wr Z and Z wr Z act faithfully on lamp
  configurations: ``t`` moves the cursor, ``a`` adds one at the cursor.
* Baumslag's Gamma and the ``wf`` groups map onto affine groups over Q
  (module letters to translations, acting letters to scalings, torsion and
  commutator letters to the identity).  These images are not faithful, so
  they only certify that a word is non-trivial; trivial words in these groups
  are trivial by construction (relator products, the metabelian law, Z^2
  being abelian).

A model is a homomorphism only when every relator maps to the identity;
``test_models.py`` checks that for every preset the benchmark uses.  None of
this calls the program under test.
"""

from __future__ import annotations

from fractions import Fraction

ONE = Fraction(1)
IDENTITY = (ONE, Fraction(0))


def _compose(f, g):
    """f o g for affine maps (lam, mu): x -> lam*x + mu."""
    return (f[0] * g[0], f[0] * g[1] + f[1])


def _invert(f):
    return (1 / f[0], -f[1] / f[0])


def _power(f, e: int):
    if e < 0:
        f, e = _invert(f), -e
    lam, mu = f
    if lam == 1:
        return (ONE, mu * e)
    if mu == 0:
        return (lam ** e, mu)
    out = IDENTITY
    while e:
        if e & 1:
            out = _compose(out, f)
        f = _compose(f, f)
        e >>= 1
    return out


class AffineModel:
    """Letters act on Q as affine maps; a word is the composition of its
    letters' maps (the rightmost letter applies first)."""

    def __init__(self, images: dict, faithful: bool):
        self.images = images
        self.faithful = faithful

    def evaluate(self, letters):
        out = IDENTITY
        for name, exp in letters:
            out = _compose(out, _power(self.images[name], exp))
        return out

    def is_trivial(self, letters) -> bool:
        return self.evaluate(letters) == IDENTITY


class LampModel:
    """The lamplighter walk: ``cursor^e`` moves by e, ``lamp^e`` adds e to the
    lamp under the cursor, modulo ``modulus`` (0 for integer lamps)."""

    faithful = True

    def __init__(self, lamp: str, cursor: str, modulus: int):
        self.lamp = lamp
        self.cursor = cursor
        self.modulus = modulus

    def evaluate(self, letters):
        pos = 0
        lamps: dict[int, int] = {}
        for name, exp in letters:
            if name == self.cursor:
                pos += exp
            elif name == self.lamp:
                value = lamps.get(pos, 0) + exp
                if self.modulus:
                    value %= self.modulus
                lamps[pos] = value
            else:
                raise KeyError(f"unknown generator {name!r}")
        return pos, {p: v for p, v in lamps.items() if v}

    def is_trivial(self, letters) -> bool:
        pos, lamps = self.evaluate(letters)
        return pos == 0 and not lamps


def _scale(lam):
    return (Fraction(lam), Fraction(0))


TRANSLATE = (ONE, ONE)


def wf_names(r: int, k: int, torsion_orders):
    """Generator names of ``wf``: module a1..ar and z, acting pairs
    (u_j, t_j), then the finite-order t_{k+1}, ..."""
    a = [f"a{i + 1}" for i in range(r)]
    u = [f"u{j + 1}" for j in range(k)]
    t = [f"t{j + 1}" for j in range(k)]
    tor = [f"t{k + j + 1}" for j in range(len(torsion_orders))]
    return a, u, t, tor


def model_for(params: dict):
    """The reference model of the preset described by ``params``."""
    name = params["name"]
    if name == "bs":
        return AffineModel({"t": _scale(params["n"]), "a": TRANSLATE}, True)
    if name == "lamplighter":
        return LampModel("a", "t", params["m"])
    if name == "zwrz":
        return LampModel("a", "t", 0)
    if name == "free_abelian":
        return AffineModel({"t1": _scale(2), "t2": _scale(3), "c": IDENTITY}, True)
    if name == "baumslag_gamma":
        # a^s = a * a^t forces 1/s = 1 + 1/t on translations
        return AffineModel({"a": TRANSLATE, "b": IDENTITY,
                            "t": _scale(2), "s": _scale(Fraction(2, 3))}, False)
    if name == "wf":
        a, u, t, tor = wf_names(params["r"], params["k"], params["torsion_orders"])
        images = {x: TRANSLATE for x in a}
        images["z"] = IDENTITY
        images.update((x, IDENTITY) for x in tor)
        for j, coeffs in enumerate(params["fs"]):
            tau = Fraction(j + 2)
            # a^u = prod_e (a^c_e)^(t^e): translation by 1/phi equals
            # sum_e c_e * tau^-e
            images[t[j]] = _scale(tau)
            images[u[j]] = _scale(1 / sum(c * tau ** -e for e, c in enumerate(coeffs)))
        return AffineModel(images, False)
    raise ValueError(f"no reference model for preset {name!r}")


def nontrivial_letter(params: dict):
    """A generator whose image is not the identity: a module letter when the
    module is non-zero, else (Z^2) an acting letter."""
    name = params["name"]
    if name == "free_abelian":
        return "t1"
    if name == "wf":
        return "a1"
    return "a"
