"""Command-line front end; JSON for single results, CSV for tables.

Exit codes: 0 success, 2 input errors, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bounds import _decimal
from .elements import INVERSE_SUFFIX, Ambient, ModuleElement, parse_element
from .errors import BudgetExceeded, ParseError
from .geometry import presentation_constants, tameness_check
from .groebner import divide_with_certificate, normal_form
from .presentation import Presentation, parse_presentation, parse_word
from .presets import (PRESET_NAMES, PresetSpec, build, norm_growth,
                      witness_family)
from .wordproblem import (brute_force_min_certificate, dehn_profile,
                          is_identity, module_context, module_dehn_upper)


# The options each preset reads; a preset reads none that it does not list.
_PRESET_READS = {"bs": ("n",), "lamplighter": ("m",),
                 "wf": ("r", "k", "f", "orders")}
_PRESET_OPTIONS = ("n", "m", "r", "k", "f", "orders")


def _load_presentation(args) -> Presentation:
    if args.preset:
        if args.presentation:
            raise ParseError("give a presentation file (-p) or --preset, not both")
        return build(_preset_spec(args))
    for name in _PRESET_OPTIONS:
        if getattr(args, name) is not None:
            raise ParseError(f"--{name} is a preset option and needs --preset")
    if not args.presentation:
        raise ParseError("a presentation file (-p) or --preset is required")
    try:
        with open(args.presentation, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise ParseError(str(exc)) from None
    return parse_presentation(text)


def _preset_options(sp) -> None:
    sp.add_argument("--n", type=int, help="bs: a^t = a^n (default 2)")
    sp.add_argument("--m", type=int, help="lamplighter: torsion m (default 2)")
    sp.add_argument("--r", type=int, help="wf: module rank (default 1)")
    sp.add_argument("--k", type=int, help="wf: acting pairs (default 1)")
    sp.add_argument("--f", help="wf polynomials, e.g. '1,1;1,2,1'")
    sp.add_argument("--orders", help="wf torsion orders, e.g. '2,3'")


def _preset_spec(args) -> PresetSpec:
    given = {name: getattr(args, name) for name in _PRESET_OPTIONS
             if getattr(args, name) is not None}
    for name in given:
        if name not in _PRESET_READS.get(args.preset, ()):
            raise ParseError(f"preset {args.preset!r} does not read --{name}")
    f, orders = given.pop("f", None), given.pop("orders", None)
    if f is not None:
        given["fs"] = tuple(_int_list("f", chunk) for chunk in f.split(";"))
    if orders is not None:
        given["torsion_orders"] = _int_list("orders", orders)
    return PresetSpec(name=args.preset, **given)


def _int_list(option: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers of ``--option``; a part that is no
    integer is an input error naming the option and the part."""
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            raise ParseError(f"--{option} takes comma-separated integers, "
                             f"got {part!r}") from None
    return tuple(values)


# The presentation that solve's costs are areas over.
_AREA_OVER = ("absolute_total and witnessed_cost are areas over the given "
              "relators plus every commutator [x^u, y^v] of module-letter "
              "conjugates, each counted as one relation; "
              "[t^3*a*t^-3, a] in BS(1,2) has witnessed_cost 1.")


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_csv(header, rows, meta=None) -> None:
    out = io.StringIO()
    if meta:
        out.write(f"# {meta}\n")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(out.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="metabelian",
        description="Word problem and area certificates for finitely "
                    "presented metabelian groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-p", "--presentation", help="presentation file")
        sp.add_argument("--preset", choices=PRESET_NAMES)
        _preset_options(sp)

    sp = sub.add_parser("groebner", help="basis of the relator submodule")
    common(sp)
    sp = sub.add_parser("nf", help="normal form of a module element")
    common(sp)
    sp.add_argument("-e", "--element", required=True)
    sp = sub.add_parser("member", help="submodule membership with certificate")
    common(sp)
    sp.add_argument("-e", "--element", required=True)
    sp = sub.add_parser("solve", help="decide w = 1", description=_AREA_OVER)
    common(sp)
    sp.add_argument("-w", "--word", required=True)
    sp = sub.add_parser("module-dehn", help="certificate sizes over small norms")
    common(sp)
    sp.add_argument("-n", type=int, default=4, dest="norm")
    sp.add_argument("--sampler", choices=("exhaustive", "random"),
                    default="exhaustive")
    sp.add_argument("--seed", type=int, help="random sampler only (default 0)")
    sp.add_argument("--samples", type=int,
                    help="random sampler only (default 200)")
    sp = sub.add_parser("profile", help="growth table of witnessed costs")
    common(sp)
    sp.add_argument("-n", type=int, default=6, dest="nmax")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=10)
    sp = sub.add_parser("constants", help="geometric constants of the datum")
    common(sp)
    sp = sub.add_parser("norm-growth", help="norms |f^n| and the fitted base")
    sp.add_argument("-f", "--poly", required=True)
    sp.add_argument("-n", type=int, default=10, dest="nmax")
    sp = sub.add_parser("preset", help="emit a preset presentation file")
    sp.add_argument("preset", choices=PRESET_NAMES)
    _preset_options(sp)
    sp = sub.add_parser("oracle", help="brute-force minimal certificate")
    common(sp)
    sp.add_argument("-e", "--element", required=True)
    sp.add_argument("--budget", default="2,3,4")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3


def _run(args) -> int:
    cmd = args.command

    if cmd == "preset":
        sys.stdout.write(build(_preset_spec(args)).render() + "\n")
        return 0

    if cmd == "norm-growth":
        f = _parse_growth_poly(args.poly)
        norms, alpha = norm_growth(f, args.nmax)
        _emit_csv(("n", "norm"),
                  [(i + 1, _decimal(v)) for i, v in enumerate(norms)],
                  meta=f"base={alpha}")
        return 0

    p = _load_presentation(args)

    if cmd == "groebner":
        ctx = module_context(p)
        doc = ctx.basis.to_json()
        doc["relator_vectors"] = [v.render() for v in ctx.relator_vectors]
        _emit_json(doc)
        return 0

    if cmd in ("nf", "member", "oracle"):
        g = parse_element(args.element, p.module_ambient())
        ctx = module_context(p)
        if cmd == "nf":
            nf = _normal_form(g, ctx)
            _emit_json({"input": g.render(), "normal_form": nf.render(),
                        "is_zero": nf.is_zero()})
            return 0
        if cmd == "member":
            cert = divide_with_certificate(ctx.embed(g), ctx.basis)
            _emit_json({"member": cert.residue.is_zero(),
                        "certificate": cert.to_json()})
            return 0
        budget = _int_list("budget", args.budget)
        if len(budget) != 3:
            raise ParseError("budget must be D,C,S (degree, coefficient, size)")
        size = brute_force_min_certificate(g, list(ctx.relator_vectors), budget)
        _emit_json({"minimal_size": size, "conclusive": size is not None,
                    "budget": list(budget)})
        return 0

    if cmd == "solve":
        _, cert = is_identity(parse_word(args.word, p), p)
        _emit_json(cert.to_json())
        return 0

    if cmd == "module-dehn":
        if args.sampler == "exhaustive":
            for name in ("seed", "samples"):
                if getattr(args, name) is not None:
                    raise ParseError(f"--{name} is a random sampler option; "
                                     "the exhaustive sampler reads none")
            rows = module_dehn_upper(p, args.norm)
            _emit_csv(("norm", "max_cert_size"), rows, meta="sampler=exhaustive")
            return 0
        seed = 0 if args.seed is None else args.seed
        samples = 200 if args.samples is None else args.samples
        rows = module_dehn_upper(p, args.norm, sampler="random",
                                 samples=samples, seed=seed)
        _emit_csv(("norm", "max_cert_size"), rows, meta=f"seed={seed}")
        return 0

    if cmd == "profile":
        witnesses = witness_family(_preset_spec(args)) if args.preset else None
        rows = dehn_profile(p, args.nmax, samples=args.samples,
                            seed=args.seed, witnesses=witnesses)
        _emit_csv(("n", "max_witnessed", "max_cert_size", "bound"), rows,
                  meta=f"seed={args.seed}")
        return 0

    if cmd == "constants":
        report = presentation_constants(p)
        doc = report.to_json()
        if report.R is None:
            doc["diagnostic"] = ("4kC - 4 <= 0: supply a datum with larger C "
                                 "(e.g. powers of its elements)")
        doc["tame"], _ = tameness_check(
            p.tameness, max(1, p.free_rank),
            tuple(i for i, d in enumerate(p.torsion_orders) if d == 0))
        _emit_json(doc)
        return 0

    raise ParseError(f"unknown command {cmd!r}")


def _normal_form(g: ModuleElement, ctx) -> ModuleElement:
    """The normal form of a Laurent element, as a Laurent element.

    ``ctx.embed`` shifts an element by its own unit monomial, which keeps
    membership but not the class: ``a`` and ``t^-1*a`` would embed alike.
    Here ``t^-k`` becomes ``t__inv^k`` instead (the basis holds
    ``t*t__inv - 1``), so equal classes reduce to one residue, whose term
    ``t^i*t__inv^j`` is read back as ``t^(i - j)``.
    """
    # the ambient ``ctx.embed`` maps into: an empty basis names none
    amb, poly = g.ambient, ctx.embed(g).ambient
    inverse = [(i, poly.variables.index(amb.variables[i] + INVERSE_SUFFIX))
               for i, d in enumerate(amb.torsion) if not d]
    pad = (0,) * (poly.nvars - amb.nvars)
    raw = {}
    for (exps, basis), c in g.as_dict().items():
        substituted = [max(e, 0) for e in exps] + list(pad)
        for i, j in inverse:
            substituted[j] = max(-exps[i], 0)
        raw[tuple(substituted), basis] = c
    residue = normal_form(ModuleElement.from_dict(poly, raw), ctx.basis)
    back = {}
    for (exps, basis), c in residue.as_dict().items():
        laurent = list(exps[:amb.nvars])
        for i, j in inverse:
            laurent[i] -= exps[j]
        key = (tuple(laurent), basis)
        back[key] = back.get(key, 0) + c
    return ModuleElement.from_dict(amb, back)


def _parse_growth_poly(text: str):
    import re

    names = sorted(set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)))
    if len(names) != 1:
        raise ParseError("growth polynomials use exactly one variable")
    ambient = Ambient((names[0],), (0,), 1, None, laurent=True)
    return parse_element(text, ambient)


if __name__ == "__main__":
    sys.exit(main())
