"""Word-problem benchmark: decide words the way ``metabelian solve`` does.

    python3 perfbench/run.py --workload bs-certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
One operation parses the word (and, on ``many-groups``, the presentation
file), calls ``is_identity``, renders the certificate as the CLI does
(``json.dumps(cert.to_json(), indent=2, sort_keys=True)``) and compares the
verdict with the benchmark's own reference answer.  The load is a closed
loop: one client in one thread sends the next request when the previous one
is answered, passing through the workload's deck (see ``workloads.py``).
Any exception fails the operation; a wrong verdict fails the run.

``--trace 0`` reports the end-to-end metrics.  A run repeats the deck a
fixed number of passes, about ``--seconds`` of work on a 2-vCPU x86 host at
the parent commit; the count depends on ``--seconds`` alone, so attempted
and failed repeat exactly for a seed.  Throughput is the median over the
passes and each request's latency the median over its repeats, so that a
burst of load elsewhere on the host moves little.  Every timing is scaled to
a reference host speed with a probe timed between requests
(``hostspeed.py``); the raw figures are printed too.  On ``many-groups`` each
pass runs in a fresh interpreter and starts with an empty context cache.
``--trace 1`` reports per-layer metrics instead: set-up and exactly one pass
over the deck run with spans recorded (``tracing.py``), and the values are
totals over that set-up and pass, so counts repeat exactly for a seed.  The
tracing overhead compares the traced pass with one untraced pass in a fresh
interpreter; both passes count as attempted.  Spans are written to
``perfbench/traces/``.

The last line of standard output is the JSON result; the lines before it
describe the inputs and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from prepare import FIXED, import_program, prepare  # noqa: E402
from workloads import DECK_SIZE, PASS_SECONDS, make_deck  # noqa: E402

SETUP_PROBES = 9
TAIL_SAMPLES = 10     # samples that must lie beyond the reported tail percentile
PROBE_EVERY = 16      # requests between two host speed probes


def setup_seconds(workload: str):
    """Median over fresh interpreters of the time until set-up is done, each
    scaled by the host slowdown probed just before and after it; and the
    raw times."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        probes = [hostspeed.probe() for _ in range(3)]
        start = time.monotonic()
        out = subprocess.run([sys.executable, str(HERE / "prepare.py"), workload],
                             cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=120)
        raw.append(float(out.stdout.split()[-1]) - start)
        probes += [hostspeed.probe() for _ in range(3)]
        scaled.append(raw[-1] / hostspeed.slowdown(probes))
    return statistics.median(scaled), raw


def solver(mb, fixtures, many: bool, cert_span, counts=None):
    """One operation: the request's verdict and its certificate text."""
    def solve(request):
        fixture = fixtures[request.fixture]
        if many:
            p = mb.presentation.parse_presentation(fixture.text)
        else:
            p = fixture.presentation
        w = mb.presentation.parse_word(request.word, p)
        ok, cert = mb.wordproblem.is_identity(w, p)
        with cert_span():
            text = json.dumps(cert.to_json(), indent=2, sort_keys=True)
        if counts is not None:
            counts["wordproblem.cert_json_bytes"] += len(text)
        return ok, text
    return solve


@dataclass
class Pass:
    """One pass over the deck: attempted = ok + failed + wrong, and one
    latency per request, in deck order."""

    latencies: list = field(default_factory=list)
    ok: int = 0
    failed: int = 0
    wrong: int = 0
    errors: Counter = field(default_factory=Counter)
    wrong_examples: list = field(default_factory=list)
    elapsed: float = 0.0
    rss_mb: float = 0.0
    probes: list = field(default_factory=list)   # host speed probe seconds

    @property
    def attempted(self):
        return self.ok + self.failed + self.wrong

    @property
    def slowdown(self):
        return hostspeed.slowdown(self.probes)


def run_pass(solve, deck, on_request=None) -> Pass:
    """Send every request of the deck once, each after the previous answer."""
    res = Pass()
    start = time.perf_counter()
    for i, request in enumerate(deck):
        if i % PROBE_EVERY == 0:
            res.probes.append(hostspeed.probe())
        if on_request is not None:
            on_request(i + 1)
        t0 = time.perf_counter()
        try:
            verdict, text = solve(request)
            right = verdict is request.expected and \
                f'"identity": {"true" if verdict else "false"}' in text
        except Exception as exc:  # every failure of the program counts, by type
            res.failed += 1
            res.errors[type(exc).__name__] += 1
        else:
            if right:
                res.ok += 1
            else:
                res.wrong += 1
                res.wrong_examples.append(repr(request))
        res.latencies.append(time.perf_counter() - t0)
    res.elapsed = time.perf_counter() - start - sum(res.probes)
    res.rss_mb = peak_rss_mb()
    return res


def pass_count(workload, seconds):
    """Deck passes in one run.  The count is fixed by ``seconds`` alone, so
    attempted and failed repeat exactly for a seed; it is sized so that a run
    lasts about ``seconds`` on a 2-vCPU x86 host at the parent commit."""
    return max(3, round(seconds / PASS_SECONDS[workload]))


def child_pass(args) -> Pass:
    """One untraced pass in a fresh interpreter, as a CLI process would run."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                          "--seed", str(args.seed), "--one-pass"],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    res = Pass(**json.loads(out.stdout.splitlines()[-1]))
    res.errors = Counter(res.errors)
    return res


def tail(latencies):
    """(percentile, value): p99, or the highest percentile with at least
    TAIL_SAMPLES samples beyond it when there are fewer than 1000."""
    ordered = sorted(latencies)
    n = len(ordered)
    q = min(0.99, 1 - TAIL_SAMPLES / n) if n > TAIL_SAMPLES else 0.5
    return q, ordered[max(0, math.ceil(q * n) - 1)]


def length_profile(values):
    values = sorted(values)
    pick = lambda q: values[min(len(values) - 1, int(q * len(values)))]  # noqa: E731
    return "/".join(str(round(pick(q))) for q in (0.1, 0.5, 0.9)) + f"/{values[-1]}"


def describe_inputs(workload, deck, fixtures):
    k_set = [fixtures[r.fixture].presentation.tameness is not None for r in deck]
    kinds = Counter(r.kind for r in deck)
    line = (f"inputs: deck of {len(deck)} requests over {len(fixtures)} presentations; "
            f"length p10/p50/p90/max {length_profile([r.length for r in deck])}; "
            f"trivial share {sum(r.expected for r in deck) / len(deck):.3f}; "
            f"K set share {sum(k_set) / len(deck):.3f}; "
            f"kinds {dict(sorted(kinds.items()))}")
    if workload == "many-groups":
        line += (f"; context first-occurrence share per pass "
                 f"{len({r.fixture for r in deck}) / len(deck):.3f}")
    return line


def request_latencies(passes, scaled=True):
    """Each request's latency: its median over the passes, in deck order,
    with each pass's times divided by its host slowdown unless ``scaled`` is
    false.  A burst of load elsewhere on the host moves one repeat, not the
    median."""
    columns = zip(*([t / (p.slowdown if scaled else 1) for t in p.latencies]
                    for p in passes))
    return [statistics.median(repeats) for repeats in columns]


def describe_passes(passes, label: str):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = sum((p.errors for p in passes), Counter())
    error_text = ", ".join(f"{k} {v}" for k, v in errors.most_common()) or "none"
    latencies = request_latencies(passes, scaled=False)
    q, value = tail(latencies)
    beyond = len(latencies) - math.ceil(q * len(latencies))
    times = sorted(p.elapsed for p in passes)
    slowdowns = sorted(p.slowdown for p in passes)
    return [
        f"{label}: {len(passes)} passes, {attempted} attempted, "
        f"{sum(p.ok for p in passes)} ok, {failed} failed ({error_text}), "
        f"{sum(p.wrong for p in passes)} wrong; fail_ratio {failed / attempted:.4f}",
        f"{label}: raw pass seconds min/median/max {times[0]:.3f}/"
        f"{statistics.median(times):.3f}/{times[-1]:.3f}; host slowdown "
        f"min/median/max {slowdowns[0]:.3f}/{statistics.median(slowdowns):.3f}/"
        f"{slowdowns[-1]:.3f}",
        f"{label}: raw latency over {len(latencies)} requests, each the median of "
        f"{len(passes)} repeats: p50 {statistics.median(latencies) * 1e3:.3f} ms, "
        f"tail p{q * 100:.2f} {value * 1e3:.3f} ms ({beyond} requests beyond); "
        f"raw words_per_s {statistics.median(p.ok / p.elapsed for p in passes):.3f}",
    ]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load(args, cert_span=nullcontext, counts=None):
    """Set up the workload, build its deck and the operation that serves it."""
    mb, fixtures = prepare(args.workload)
    deck = make_deck(args.workload, fixtures, args.seed)
    solve = solver(mb, fixtures, args.workload == "many-groups", cert_span, counts)
    return fixtures, deck, solve


def untraced_run(args):
    setup, samples = setup_seconds(args.workload)
    fixtures, deck, solve = load(args)
    print(describe_inputs(args.workload, deck, fixtures))
    print(f"setup_s raw samples {', '.join(f'{s:.4f}' for s in samples)}")
    count = pass_count(args.workload, args.seconds)
    if args.workload == "many-groups":
        # every pass starts with an empty context cache, like a CLI process
        passes = [child_pass(args) for _ in range(count)]
    else:
        passes = [run_pass(solve, deck) for _ in range(count)]
    for line in describe_passes(passes, "run"):
        print(line)
    latencies = request_latencies(passes)
    _, p99 = tail(latencies)
    metrics = {
        "words_per_s": (statistics.median(p.ok * p.slowdown / p.elapsed for p in passes),
                        "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": (p99 * 1e3, "ms"),
        "ok_ratio": (sum(p.ok for p in passes) / sum(p.attempted for p in passes), "ratio"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
        "setup_s": (setup, "s"),
    }
    return passes, metrics


def one_pass(args):
    """Internal: one untraced pass in a fresh interpreter."""
    _, deck, solve = load(args)
    print(json.dumps(vars(run_pass(solve, deck))))


def traced_run(args):
    tracer = tracing.Tracer()
    tracing.install(tracer, import_program())
    fixtures, deck, solve = load(args, lambda: tracer.span("wordproblem.cert_json"),
                                 tracer.counts)
    print(describe_inputs(args.workload, deck, fixtures))
    untraced = child_pass(args)

    def on_request(request_id):
        tracer.request = request_id

    traced = run_pass(solve, deck, on_request=on_request)
    for line in describe_passes([traced], "traced pass"):
        print(line)
    metrics = tracing.layer_metrics(tracer)
    traced_wps = traced.ok / traced.elapsed
    untraced_wps = untraced.ok / untraced.elapsed
    metrics["trace.traced_words_per_s"] = (traced_wps, "1/s")
    metrics["trace.untraced_words_per_s"] = (untraced_wps, "1/s")
    metrics["trace.slowdown"] = (untraced_wps / traced_wps, "ratio")
    print(f"tracing: {len(tracer.spans)} spans; measured context miss share "
          f"{metrics['wordproblem.context_miss_ratio'][0]:.4f}")
    tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    return [traced, untraced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FIXED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.one_pass:
        one_pass(args)
        return 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} deck {DECK_SIZE[args.workload]}")
    passes, metrics = (traced_run if args.trace else untraced_run)(args)
    wrong = sum(p.wrong for p in passes)
    for example in [e for p in passes for e in p.wrong_examples][:5]:
        print(f"WRONG VERDICT: {example}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
