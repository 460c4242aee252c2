"""Benchmark of chowtool's stability verdicts.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog-verdicts, random-analyze, falsifier, cli-cold (see
workloads.py for what each measures and why).  Each is a closed loop with
one client in one process: an op starts when the previous one has ended.
The seed fixes the generated inputs and the op order.

A run sets up (imports chowtool, builds the inputs, loads the goldens) once
in this process and again in four fresh processes, and reports the median
as ``setup_s``.  It then calls the ops in rounds until ``--seconds`` have
passed (see run_rounds); the first round calls every op, however long it
takes.  An op's latency is the median of its calls; ``wall_s`` is the sum
of the op latencies, the time of one pass over the op list, and
``op_p50_ms`` and ``op_p75_ms`` are quantiles of the op latencies.  With
``--trace 1`` the first half of the window runs untraced and the second
half traced, and the run prints the per-layer metrics of the traced rounds
instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting with
``perfbench-record``, holds the run record.  The exit code is 1 when an
output is wrong (a golden mismatch, a certificate that does not
re-evaluate, verdict JSON that does not round-trip, an undocumented
exception, or traced output that differs from untraced output), and 2 when
the run cannot start.

    python3 perfbench/run.py --record-goldens

re-records goldens.json from the current source for every workload and the
default seeds of random-analyze.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
# no op starts later than this after the window opens, so a run ends well
# inside three minutes even when the program under test has slowed down
HARD_CAP_S = 120.0
CHILD_TIMEOUT_S = 150.0
# random-analyze goldens cover these seeds; other seeds are still checked by
# re-evaluating certificates and round-tripping the verdict JSON
GOLDEN_SEEDS = range(1, 6)
RECORD_MARK = "perfbench-record "
NOT_STARTED = "not started: run deadline"


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(name, seed):
    """Import chowtool from the checkout and build the workload.

    Returns the workload and the seconds from before ``import chowtool``
    until the first op is ready.
    """
    if not (SRC / "chowtool" / "__init__.py").is_file():
        die(f"no chowtool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import chowtool
    import workloads

    if Path(chowtool.__file__).resolve().parent != SRC / "chowtool":
        die(f"imported chowtool from {chowtool.__file__}, not from {SRC}")
    workload = workloads.build(name, seed)
    took = time.perf_counter() - start
    # the catalog and the inputs live for the whole run: keep them out of
    # the collections that run during ops
    gc.collect()
    gc.freeze()
    return workload, took


def probe_setup(name, seed):
    """Set up in a fresh process and return its setup time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        die(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_times():
    """Cumulative ``-X importtime`` of chowtool.catalog and chowtool.cli, in s."""
    import workloads

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import chowtool.cli"],
        cwd=ROOT, env=workloads.cli_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("chowtool.catalog", "chowtool.cli"):
            found[parts[2]] = int(parts[1]) / 1e6
    if proc.returncode != 0 or len(found) != 2:
        die(f"import timing failed: {proc.stderr.strip()[-500:]}")
    return found["chowtool.catalog"], found["chowtool.cli"]


class Calls:
    """What the calls of one window produced."""

    def __init__(self):
        self.took = {}      # op name -> seconds of each of its calls
        self.failed = {}    # op name -> reason
        self.problems = []  # wrong outputs, as messages
        self.calls = 0
        self.rounds = 0

    @property
    def latency(self):
        """Op name -> seconds: the median of its calls."""
        return {name: statistics.median(ts) for name, ts in self.took.items()}

    @property
    def op_seconds(self):
        return sum(self.latency.values())


def run_pass(workload, deadline, outputs, tracer=None):
    """Call every op once; return the Calls."""
    result = Calls()
    for op in workload.ops:
        call_op(workload, op, deadline, outputs, tracer, result)
    result.rounds = 1
    if tracer is not None:
        tracer.active = True
    return result


def run_rounds(workload, start, stop_after, outputs, tracer=None):
    """Call the ops round after round until ``stop_after`` seconds after
    ``start``; return the Calls.

    The first round calls every op once.  Untraced, a later round calls an
    op only every ``stride`` rounds, its stride being its first latency over
    the workload's ``round_share_s`` rounded up, and only if a call as long
    as its last one ends inside the window; rounds go on while any op
    still fits.  The host's speed drifts from second to second, so each op's
    calls are spread over the whole window rather than made back to back,
    and short ops, whose latencies set the percentiles, get many of them.
    Traced, every round calls every op once and a round starts only if it
    is expected to end inside the window, so span totals divided by the
    rounds are those of one pass over the op list.
    """
    result = Calls()
    deadline = start + HARD_CAP_S
    end = start + stop_after
    while True:
        began = time.perf_counter()
        called = result.calls
        waiting = False  # an op that fits was skipped for its stride
        for op in workload.ops:
            if result.rounds > 0:
                if op.name in result.failed:
                    continue
                took = result.took[op.name]
                if tracer is None:
                    if time.perf_counter() + took[-1] > end:
                        continue
                    if result.rounds % stride(workload, took[0]):
                        waiting = True
                        continue
            call_op(workload, op, deadline, outputs, tracer, result)
        if tracer is None and result.calls == called and not waiting:
            return result
        result.rounds += 1
        now = time.perf_counter()
        if now > deadline or (tracer is not None and now + (now - began) > end):
            return result


def stride(workload, seconds):
    if workload.round_share_s is None:
        return 1
    return max(1, math.ceil(seconds / workload.round_share_s))


def call_op(workload, op, deadline, outputs, tracer, result):
    """Make one timed call of ``op``, check its output and add both to
    ``result``.

    ``outputs`` maps each op to the digest of its first output in the run;
    every later call must give the same output.
    """
    from chowtool.errors import ChowToolError
    from workloads import OP_BUDGET_S, OpTimeout, arm, disarm

    budget = min(OP_BUDGET_S, deadline - time.perf_counter())
    if budget <= 0:
        result.failed[op.name] = NOT_STARTED
        return
    if tracer is not None:
        tracer.active = False
    fresh = op.make_input()
    # each call starts with the collector's counts at zero, so its cost
    # does not depend on the garbage the calls before it left
    gc.collect()
    if tracer is not None:
        tracer.active = True
    output = error = None
    result.calls += 1
    arm(budget)
    start = time.perf_counter()
    try:
        output = op.call(fresh)
    except OpTimeout:
        error = "timeout"
    except ChowToolError as exc:
        output = exc
    except Exception as exc:  # an undocumented exception is a wrong output
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        disarm()
    if tracer is not None:
        tracer.active = False
    if error is not None:
        result.failed[op.name] = error
        if error != "timeout":
            result.problems.append(f"{op.name}: raised {error}")
        return
    result.took.setdefault(op.name, []).append(elapsed)
    if isinstance(output, ChowToolError):
        found = "error:" + type(output).__name__
    else:
        found = op.digest(output)
    if op.name not in outputs:
        outputs[op.name] = found
        # later calls must give this same output, so only the first is verified
        if not isinstance(output, ChowToolError):
            result.problems += [f"{op.name}: {p}" for p in op.verify(output)]
    elif outputs[op.name] != found:
        first = outputs[op.name]
        result.problems.append(f"{op.name}: output {found} differs from its first ({first})")
        return
    want = workload.goldens.get(op.name)
    if want is not None and want != found:
        result.problems.append(f"{op.name}: output {found} differs from golden {want}")


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A weighted mean of all order statistics, the weights being the mass a
    Beta(q(n+1), (1-q)(n+1)) distribution puts on each rank.  Catalog op
    latencies come in clusters, and the median often falls between two of
    them; the sample quantile then jumps with whichever single op lands on
    its rank, while this estimate moves smoothly.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 8  # Simpson's rule on each rank's interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(args):
    load_at_start = os.getloadavg()
    workload, own_setup = setup(args.workload, args.seed)
    setups = [own_setup] + [probe_setup(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    if workload.prepare is not None:
        workload.prepare(workload)
    if args.ops is not None:
        workload.ops = workload.ops[: args.ops]
    start = time.perf_counter()
    tracer = None
    outputs = {}
    traced = Calls()
    if args.trace:
        from tracer import Tracer

        untraced = run_rounds(workload, start, args.seconds / 2, outputs)
        tracer = Tracer()
        tracer.install()
        if workload.cli is not None:
            workload.cli.tracer = tracer
        traced = run_rounds(workload, start, args.seconds, outputs, tracer)
        tracer.uninstall()
    else:
        untraced = run_rounds(workload, start, args.seconds, outputs)

    problems = untraced.problems + traced.problems
    attempted = failed = 0
    for window in (untraced, traced):
        attempted += window.calls + list(window.failed.values()).count(NOT_STARTED)
        failed += len(window.failed)
    failed_ops = sorted(set(untraced.failed) | set(traced.failed))

    latencies = list(untraced.latency.values())
    wall = untraced.op_seconds
    p75 = quantile(latencies, 0.75)
    if workload.cli is not None:
        rss_kib = max(workload.cli.child_maxrss_kib)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    metrics = {}
    if args.trace:
        for name, (value, unit) in tracer.metrics().items():
            metrics[name] = (value / traced.rounds, unit)
        catalog_s, cli_s = import_times()
        metrics["catalog.import_s"] = (catalog_s, "s")
        metrics["cli.import_s"] = (cli_s, "s")
        metrics["trace.overhead_ratio"] = (traced.op_seconds / wall - 1, "ratio")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["wall_s"] = (wall, "s")
        metrics["op_p50_ms"] = (quantile(latencies, 0.5) * 1e3, "ms")
        metrics["op_p75_ms"] = (p75 * 1e3, "ms")
        metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "setup_samples_s": setups,
        "rounds_untraced": untraced.rounds,
        "rounds_traced": traced.rounds,
        "op_calls": untraced.calls,
        "op_latency_samples": len(latencies),
        "op_p75_samples_beyond": sum(1 for t in latencies if t > p75),
        "samples_per_op": {name: len(ts) for name, ts in untraced.took.items()},
        "failed_ratio": failed / attempted,
        "screened_out": workload.screened_out,
        "failed_ops": failed_ops,
        "left_out": list(workload.left_out),
        "problems": problems[:50],
    }
    print(RECORD_MARK + json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    for message in problems[:20]:
        print(f"perfbench: wrong output: {message}", file=sys.stderr)
    return 0 if not problems else 1


def record_goldens():
    """Run every op once and write its output digest to goldens.json."""
    import workloads

    goldens = {}
    for name in workloads.WORKLOADS:
        seeds = GOLDEN_SEEDS if name == "random-analyze" else [GOLDEN_SEEDS[0]]
        table = {}
        for seed in seeds:
            workload = workloads.build(name, seed)
            workload.goldens = {}
            if workload.prepare is not None:
                workload.prepare(workload)
            outputs = {}
            result = run_pass(workload, time.perf_counter() + 3600, outputs)
            if result.failed or result.problems:
                die(f"{name} seed {seed}: {result.failed} {result.problems[:5]}")
            table.update(outputs)
        goldens[name] = dict(sorted(table.items()))
        print(f"{name}: {len(table)} goldens", file=sys.stderr)
    with open(workloads.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["catalog-verdicts", "random-analyze",
                                               "falsifier", "cli-cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the setup time and exit")
    parser.add_argument("--ops", type=int, default=None,
                        help="run only the first N ops of each pass (a smoke test)")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.record_goldens:
        if not (SRC / "chowtool" / "__init__.py").is_file():
            die(f"no chowtool sources under {SRC}")
        sys.path.insert(0, str(SRC))
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        _, took = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": took}))
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
