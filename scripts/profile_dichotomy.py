#!/usr/bin/env python3
"""Reproduce the polynomial-vs-exponential certificate growth at desk scale.

Prints the growth profile of the free-abelian, BS(1,2) and W_F presets with
the fitted power-law exponent / log-linear slope of the certificate sizes.
The BS(1,2) rows add the length of the witness t^n a t^-n a^(-2^n), whose
certificate has size 2^n - 1; a last section prints the norms |(1+t)^n|,
which double the same way, and their fitted base.
Usage: python3 scripts/profile_dichotomy.py [n_max]
"""

import sys

sys.path.insert(0, "src")

from metabelian.elements import Ambient, parse_element
from metabelian.presets import PresetSpec, build, norm_growth, witness_family
from metabelian.wordproblem import dehn_profile, fit_exp, fit_power


def profile(title, spec, n_max, samples, lengths=False):
    """Print the profile rows of a preset, with the length of its first
    witness word if ``lengths``; return the n and certificate size columns."""
    family = witness_family(spec)
    rows = dehn_profile(build(spec), n_max, samples=samples, seed=0,
                        witnesses=family)
    print(f"\n== {title}")
    print("n,max_witnessed,max_cert_size,bound" + ",witness_length" * lengths)
    for row in rows:
        if lengths:
            row += (family(row[0])[0].length,)
        print(",".join(str(x) for x in row))
    return [r[0] for r in rows], [r[2] for r in rows]


def main():
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 8

    ns, sizes = profile("free abelian Z^2", PresetSpec("free_abelian"), n_max, 10)
    print(f"power-law exponent of cert sizes: {fit_power(ns, sizes):.2f}"
          " (polynomial regime)")

    for title, spec, lengths in (
            ("BS(1,2)", PresetSpec("bs", n=2), True),
            ("W_F (f = 1 + t)", PresetSpec("wf", r=1, k=1), False)):
        ns, sizes = profile(title, spec, n_max, 3, lengths)
        print(f"log-linear slope of cert sizes: {fit_exp(ns, sizes):.2f}"
              " (exponential regime)")

    ring = Ambient(("t",), (0,), 1, None, laurent=True)
    norms, base = norm_growth(parse_element("1 + t", ring), n_max)
    print("\n== norms |(1+t)^n|\nn,norm")
    for n, norm in enumerate(norms, start=1):
        print(f"{n},{norm}")
    print(f"fitted growth base: {base:.3f}")


if __name__ == "__main__":
    main()
