"""Golden certificates: the full ``solve`` JSON of a fixed word deck.

``golden/solve.jsonl`` holds one line per word: the preset spec, the word
text and ``json.dumps(cert.to_json(), sort_keys=True)``.  A change that moves
any certificate field fails here; after declaring such a change, rewrite the
certificates of the same words with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os

import pytest

from metabelian.bounds import Bound
from metabelian.elements import ModuleElement
from metabelian.groebner import verify_certificate
from metabelian.presentation import parse_word
from metabelian.presets import PresetSpec, build
from metabelian.wordproblem import is_identity, module_context

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "solve.jsonl")


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _solve(entry):
    p = build(PresetSpec(**entry["preset"]))
    _, cert = is_identity(parse_word(entry["word"], p), p)
    return p, cert


ENTRIES = _load()
IDS = [f"{e['preset']['name']}:{e['word'][:40]}" for e in ENTRIES]


def test_deck_covers_every_preset():
    names = {e["preset"]["name"] for e in ENTRIES}
    assert names == {"bs", "lamplighter", "zwrz", "baumslag_gamma", "wf",
                     "free_abelian"}
    long_bs = [e for e in ENTRIES if e["preset"]["name"] == "bs"
               and parse_word(e["word"]).length >= 41]
    assert len(long_bs) >= 4


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_certificate_byte_identical(entry):
    _, cert = _solve(entry)
    assert json.dumps(cert.to_json(), sort_keys=True) == entry["certificate"]


MEMBERSHIP = [e for e in ENTRIES
              if json.loads(e["certificate"])["membership"] is not None]


@pytest.mark.parametrize("entry", MEMBERSHIP,
                         ids=[IDS[ENTRIES.index(e)] for e in MEMBERSHIP])
def test_independent_checker_accepts(entry):
    p, cert = _solve(entry)
    ctx = module_context(p)
    g = ctx.embed(cert.ordered.vector)
    assert verify_certificate(g, cert.membership, ctx.basis)


def _bs_witness_certificate():
    entry = next(e for e in ENTRIES if e["preset"] == {"name": "bs", "n": 2}
                 and e["word"] == "t^5*a*t^-5*a^-32")
    p, cert = _solve(entry)
    ctx = module_context(p)
    return ctx.embed(cert.ordered.vector), cert.membership, ctx.basis


def test_independent_checker_rejects_tampered_alpha():
    g, cert, basis = _bs_witness_certificate()
    idx = next(i for i, a in enumerate(cert.coefficients) if not a.is_zero())
    ring = cert.coefficients[idx].ambient
    bump = ModuleElement.from_term(ring, 1, (0,) * ring.nvars)
    alphas = list(cert.coefficients)
    alphas[idx] = alphas[idx] + bump
    tampered = cert.__class__(tuple(alphas), cert.residue, cert.steps,
                              cert.size + 1, cert.bound)
    assert not verify_certificate(g, tampered, basis)


def test_independent_checker_rejects_wrong_size_and_bound():
    g, cert, basis = _bs_witness_certificate()
    wrong_size = cert.__class__(cert.coefficients, cert.residue, cert.steps,
                                cert.size + 1, cert.bound)
    assert not verify_certificate(g, wrong_size, basis)
    wrong_bound = cert.__class__(cert.coefficients, cert.residue, cert.steps,
                                 cert.size, Bound.of(cert.size - 1))
    assert not verify_certificate(g, wrong_bound, basis)


def _rewrite():
    """Re-render the certificates of the words already in the golden file."""
    lines = []
    for entry in _load():
        _, cert = _solve(entry)
        entry["certificate"] = json.dumps(cert.to_json(), sort_keys=True)
        lines.append(json.dumps(entry, sort_keys=True))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    _rewrite()
