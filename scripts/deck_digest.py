"""sha256 of the certificates over the benchmark decks, per workload and seed.

    python3 scripts/deck_digest.py > digests.txt

For each workload of ``perfbench/`` and seeds 1 and 2, builds the deck as
``perfbench/run.py`` does, solves every request in deck order and hashes the
certificate texts as the benchmark renders them
(``json.dumps(cert.to_json(), indent=2, sort_keys=True)``), one text and a
newline per request.  Prints one line ``<sha256>  <workload> seed <seed>``
each.  A change that keeps every certificate byte keeps every line, so a
diff against ``tests/golden/decks.sha256`` checks it.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from prepare import FIXED, prepare  # noqa: E402
from run import solver  # noqa: E402
from workloads import make_deck  # noqa: E402

SEEDS = (1, 2)


def main() -> int:
    for workload in sorted(FIXED):
        mb, fixtures = prepare(workload)
        solve = solver(mb, fixtures, workload == "many-groups", nullcontext)
        for seed in SEEDS:
            digest = hashlib.sha256()
            for request in make_deck(workload, fixtures, seed):
                digest.update(solve(request)[1].encode() + b"\n")
            print(f"{digest.hexdigest()}  {workload} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
