"""A workload's fixed presentations, and the set-up probe that times them.

Set-up builds each fixed presentation with ``presets.build``, renders it as
a presentation file and, on the workloads whose presentations are fixed,
parses that file back and builds its module context (the strong Groebner
basis), as ``metabelian preset ... > p.json; metabelian solve -p p.json``
would.  On ``many-groups`` the presentations travel with every request, so
set-up only builds the pool's files and leaves the context cache empty.

    python3 perfbench/prepare.py <workload>

prints ``time.monotonic()`` once set-up is done; the caller subtracts the
time at which it started the interpreter.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def wf(r, k, f=(1, 1), torsion=()):
    return {"name": "wf", "r": r, "k": k,
            "fs": (tuple(f),) + ((1, 1),) * (k - 1), "torsion_orders": tuple(torsion)}


FIXED = {
    "bs-certify": [{"name": "bs", "n": 2}, {"name": "bs", "n": 3}],
    "multigen-identities": [wf(1, 2), {"name": "baumslag_gamma"},
                            {"name": "free_abelian"}, wf(1, 1, (1, 1, 1))],
}

# The many-groups pool, most popular first.  Families are interleaved so that
# the Zipf head mixes cheap and expensive Groebner constructions (0.001 s for
# bs up to about 0.3 s for wf with r = k = 2 on a 2-core x86 host).
_WF_POOL = [wf(r, k, f, tor) for tor in ((), (2,)) for r in (1, 2) for k in (1, 2)
            for f in ((1, 1), (1, 1, 1), (1, 2, 1))]
_SMALL_POOL = ([{"name": "bs", "n": n} for n in range(2, 8)]
               + [{"name": "lamplighter", "m": m} for m in range(2, 8)]
               + [{"name": "zwrz"}, {"name": "baumslag_gamma"}, {"name": "free_abelian"}])
POOL = [p for pair in zip(_SMALL_POOL, _WF_POOL[:len(_SMALL_POOL)]) for p in pair] \
    + _WF_POOL[len(_SMALL_POOL):] + [wf(2, 2, (1, 2, 1), (3,))]
FIXED["many-groups"] = POOL


@dataclass
class Fixture:
    params: dict
    text: str          # the presentation file
    presentation: object


def import_program():
    """Import ``metabelian`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "metabelian" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no metabelian sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import metabelian
    if Path(metabelian.__file__).resolve().parent != SRC / "metabelian":
        raise SystemExit(f"perfbench: imported metabelian from {metabelian.__file__}")
    return metabelian


def spec_args(params: dict) -> dict:
    return {k: v for k, v in params.items() if k != "name"}


def prepare(workload: str):
    mb = import_program()
    fixtures = []
    for params in FIXED[workload]:
        spec = mb.presets.PresetSpec(params["name"], **spec_args(params))
        p = mb.presets.build(spec)
        text = p.render()
        if workload != "many-groups":
            p = mb.presentation.parse_presentation(text)
            mb.wordproblem.module_context(p)
        fixtures.append(Fixture(params, text, p))
    return mb, fixtures


if __name__ == "__main__":
    prepare(sys.argv[1])
    print(repr(time.monotonic()))
