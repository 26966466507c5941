"""Differential tests: ``is_identity`` against faithful models of the groups.

BS(1,n) acts faithfully on Q by affine maps (``t -> n*x``, ``a -> x + 1``);
Z_m wr Z and Z wr Z act faithfully on lamp configurations (``t`` moves the
cursor, ``a`` adds one to the lamp under it).  The groups with two or more
acting letters (Baumslag's Gamma, free_abelian, ``wf`` with k = 1 and 2) act
on Q too, their acting letters scaling by rational points ``P/Q`` of distinct
primes near 10^9; ``test_rational_point_models`` says why those models are
faithful.  A word is trivial exactly when its image is the identity, so these
models decide the word problem without collection or Groebner bases.  A
basis that generated too much would accept a non-trivial word here, one that
generated too little would reject a relator product.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from metabelian.presentation import GroupWord, commutator, exponent_sums
from metabelian.presets import PresetSpec, build
from metabelian.wordproblem import is_identity

IDENTITY = (Fraction(1), Fraction(0))
TRANSLATE = (Fraction(1), Fraction(1))


def _compose(f, g):
    """f o g for affine maps (lam, mu): x -> lam*x + mu."""
    return (f[0] * g[0], f[0] * g[1] + f[1])


def _power(f, e):
    if e < 0:
        f, e = (1 / f[0], -f[1] / f[0]), -e
    out = IDENTITY
    for _ in range(e):
        out = _compose(out, f)
    return out


def _scale(lam):
    return (Fraction(lam), Fraction(0))


def affine(images, exact=None):
    """Letters act on Q as the affine maps ``images``; the rightmost letter
    applies first.  ``exact``, a module letter and an acting letter, asks
    each word to lie where ``test_rational_point_models`` proves the model
    faithful."""
    def trivial(letters):
        if exact is not None:
            assert _exact(letters, *exact), letters
        out = IDENTITY
        for name, exp in letters:
            out = _compose(out, _power(images[name], exp))
        return out == IDENTITY
    return trivial


def affine_model(n):
    """BS(1,n) on Q."""
    return affine({"t": _scale(n), "a": TRANSLATE})


def lamp_model(modulus):
    """Lamps in Z_modulus (Z for modulus 0) along Z, one cursor."""
    def trivial(letters):
        pos, lamps = 0, {}
        for name, exp in letters:
            if name == "t":
                pos += exp
            else:
                lamps[pos] = lamps.get(pos, 0) + exp
                if modulus:
                    lamps[pos] %= modulus
        return pos == 0 and not any(lamps.values())
    return trivial


# (P, Q) per acting variable: tau = P/Q, four distinct primes
POINTS = ((1000000007, 1000000009), (1000000021, 1000000033))
BELOW_PRIMES = 10 ** 9


def _tau(j):
    return Fraction(*POINTS[j])


def gamma_model():
    """Gamma: a^s = a * a^t makes s scale by tau/(tau + 1); b = [s, t] is
    killed."""
    tau = _tau(0)
    return affine({"a": TRANSLATE, "b": IDENTITY, "t": _scale(tau),
                   "s": _scale(tau / (tau + 1))}, exact=("a", "s"))


def free_abelian_model():
    """Z^2 in the positive rationals; c = [t1, t2] is killed."""
    return affine({"c": IDENTITY, "t1": _scale(_tau(0)),
                   "t2": _scale(_tau(1))})


def wf_model(k):
    """wf(r=1, k): a1^u_j = a1 * a1^t_j makes u_j scale by
    tau_j/(tau_j + 1), as s does in Gamma; z is killed."""
    images = {"a1": TRANSLATE, "z": IDENTITY}
    for j in range(k):
        tau = _tau(j)
        images[f"t{j + 1}"] = _scale(tau)
        images[f"u{j + 1}"] = _scale(tau / (tau + 1))
    return affine(images, exact=("a1", "u1") if k == 1 else None)


def _exact(letters, module, acting):
    """Whether ``m * 2^J`` stays below the primes: m the module letter's
    total |exponent|, J the span of the acting letter's exponent sums over
    the prefixes that end before a module letter."""
    m = total = 0
    seen = []
    for name, exp in letters:
        if name == module:
            m += abs(exp)
            seen.append(total)
        elif name == acting:
            total += exp
    return not seen or m * 2 ** (max(seen) - min(seen)) < BELOW_PRIMES


GROUPS = [
    (PresetSpec("bs", n=2), affine_model(2)),
    (PresetSpec("bs", n=3), affine_model(3)),
    (PresetSpec("bs", n=5), affine_model(5)),
    (PresetSpec("lamplighter", m=2), lamp_model(2)),
    (PresetSpec("lamplighter", m=3), lamp_model(3)),
    (PresetSpec("zwrz"), lamp_model(0)),
    (PresetSpec("baumslag_gamma"), gamma_model()),
    (PresetSpec("free_abelian"), free_abelian_model()),
    (PresetSpec("wf", k=1), wf_model(1)),
    (PresetSpec("wf", k=2), wf_model(2)),
]
IDS = ["bs-2", "bs-3", "bs-5", "lamplighter-2", "lamplighter-3", "zwrz",
       "gamma", "free_abelian", "wf-k1", "wf-k2"]
MULTI = GROUPS[6:]

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _words(names, max_size, exps=(-2, -1, 1, 2)):
    letter = st.tuples(st.sampled_from(names), st.sampled_from(exps))
    return st.lists(letter, max_size=max_size).map(GroupWord.from_letters)


def _balance(w, p, off=0):
    """w times the powers of the acting letters that zero its exponent
    sums, the last one ``off`` short."""
    sums = dict.fromkeys(p.t_names, 0)
    for name, e in w.letters:
        if name in sums:
            sums[name] += e
    sums[p.t_names[-1]] -= off
    return w * GroupWord.from_letters([(t, -s) for t, s in sums.items()])


@st.composite
def kernel_words(draw, p, max_size=10):
    """A random word over all letters, sometimes times a module letter
    conjugated by a word in the acting letters, then the acting powers that
    zero its exponent sums."""
    w = draw(_words(p.module_gens + p.t_names, max_size))
    if draw(st.booleans()):
        a = GroupWord.from_letters([(draw(st.sampled_from(p.module_gens)),
                                     draw(st.sampled_from((-1, 1))))])
        w = w * a.conjugate_by(draw(_words(p.t_names, 3)))
    return _balance(w, p)


@st.composite
def relator_products(draw, p):
    """R1 * noise * R2, each R a product of conjugates of relators^(+-1).

    The R are trivial, so the verdict is that of the noise, a short random
    kernel word: trivial when it is empty, mostly non-trivial otherwise.
    """
    def product():
        out = GroupWord(())
        for _ in range(draw(st.integers(1, 2))):
            r = draw(st.sampled_from(p.relators))
            if draw(st.booleans()):
                r = r.inverse()
            out = out * r.conjugate_by(draw(_words(p.module_gens + p.t_names, 3)))
        return out
    return product() * draw(kernel_words(p, max_size=4)) * product()


@st.composite
def law_words(draw, p):
    """``[[x, y], [z, w]]`` of short words over all letters, trivial in
    every metabelian group, times a word one unit off the kernel or not."""
    x, y, z, w = (draw(_words(p.module_gens + p.t_names, 2, (-1, 1)))
                  for _ in range(4))
    law = commutator(commutator(x, y), commutator(z, w))
    return law * _balance(draw(_words(p.t_names, 2)), p, draw(st.integers(0, 1)))


@pytest.mark.parametrize("spec,trivial", GROUPS, ids=IDS)
def test_model_kills_relators(spec, trivial):
    p = build(spec)
    assert all(trivial(r.letters) for r in p.relators)
    assert not any(trivial([(t, 1)]) for t in p.t_names)
    assert spec.name == "free_abelian" or not trivial([(p.module_gens[0], 1)])


@pytest.mark.parametrize("spec,trivial", GROUPS, ids=IDS)
def test_random_words_agree(spec, trivial):
    p = build(spec)

    @SETTINGS
    @given(kernel_words(p))
    def check(w):
        assert is_identity(w, p)[0] == trivial(w.letters), w.render()
    check()


@pytest.mark.parametrize("spec,trivial", GROUPS, ids=IDS)
def test_relator_products_agree(spec, trivial):
    p = build(spec)

    @SETTINGS
    @given(relator_products(p))
    def check(w):
        assert is_identity(w, p)[0] == trivial(w.letters), w.render()
    check()


def test_rational_point_models():
    """Why the models of the groups with two or more acting letters are
    faithful on the words drawn here.

    Each model is a homomorphism: it kills every relator
    (``test_model_kills_relators``).  The commutator letters b, c and z are
    killed in their groups, so they map to the identity.

    Acting letters.  Gamma and wf(k=1) have the acting group Z^2: t maps to
    tau = P/Q and s (u1) to P/(P + Q).  free_abelian is Z^2, t_j mapping to
    P_j/Q_j, and wf(k=2) has Z^4: t_j and u_j map as in wf(k=1), with the
    j-th point.  By unique factorisation these images are multiplicatively
    independent as long as no prime of one point divides P + Q of the other,
    which is checked below: a Q_j is a factor of t_j's image only, and then
    a P_j of u_j's only.  So the image is a translation only when every
    acting exponent sum is 0.

    Module, one acting variable.  Gamma is Z[x^+-1, (1+x)^-1] x| Z^2
    (Baumslag 1972), and wf(k=1) has the same presentation with u1 for s.
    A kernel word maps to the translation by ``sum_k c_k tau^(i_k) (1 +
    tau)^(-j_k)``, over its module letters a^c_k, i_k and j_k read off the
    letters before them.  Times a power of tau and of 1 + tau this is g(tau)
    for g in Z[x] with coefficients at most ``m * 2^J`` in absolute value,
    m the module letters' total |exponent| and J the span of the j_k.  If
    g is not 0 and g(P/Q) = 0, the rational root theorem makes P divide the
    lowest non-zero coefficient, which ``_exact`` keeps below P for every
    word the models see.  So the model is faithful on them.

    Module, two acting variables.  wf(k=2) is Z[x1^+-1, x2^+-1, (1+x1)^-1,
    (1+x2)^-1] x| Z^4 and a kernel word evaluates a g in Z[x1, x2] at
    (tau_1, tau_2).  The P1-adic valuation reduces g(tau) = 0 to a non-zero
    polynomial h of degree D in x2 with coefficients below P1 vanishing at
    tau_2 modulo P1.  No bound rules that out; by the Schwartz-Zippel bound
    h has at most D roots among the P1 residues, and the points were chosen
    without regard to any word, so a word of a few dozen letters is
    misjudged with a chance of about D/P1, under 10^-7.
    """
    for (p1, q1), (p2, q2) in (POINTS, POINTS[::-1]):
        assert all((p2 + q2) % prime for prime in (p1, q1))
    assert len({prime for point in POINTS for prime in point}) == 4


@pytest.mark.parametrize("spec,trivial", MULTI, ids=IDS[6:])
def test_law_words_agree(spec, trivial):
    """Law words, one unit off the kernel half the time, and relator
    products: both verdicts occur, and a kernel word is judged non-trivial
    in every group but free_abelian, which is abelian."""
    p = build(spec)
    verdicts = set()

    @settings(SETTINGS, derandomize=True)
    @given(law_words(p) | relator_products(p))
    def check(w):
        verdict = is_identity(w, p)[0]
        assert verdict == trivial(w.letters), w.render()
        verdicts.add((verdict, not any(exponent_sums(w, p))))
    check()
    assert {verdict for verdict, _ in verdicts} == {True, False}
    assert spec.name == "free_abelian" or (False, True) in verdicts
