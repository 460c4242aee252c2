"""The benchmark's workloads: their inputs, their ops and the checks on each
op's output.

An op is one timed call.  Before it, outside the timed region, the op gets a
fresh input: a ``copy.deepcopy`` of a pristine catalog polytope, so no
per-polytope cache (``_points_cache`` on the polytope or on the factors its
``_provenance`` reaches) carries over between ops.  After it, also outside
the timed region, the output is reduced to a digest that is compared with
the golden, and verified where it can be: certificates through ``chow_gap``
and verdict JSON by a round trip.

Why each workload, and what it leaves out:

* ``catalog-verdicts``: ``classify`` plus verdict JSON on the catalog, what
  the published examples cost.  Triangulation building and verification
  dominate it.  D6 (20-25 s) and D7 and simplexPn5 (past 60 s, timeouts)
  are left out: one pass must fit in a run.
* ``random-analyze``: seeded random lattice polytopes given as vertex JSON,
  like a user's file.  Hull, lattice enumeration and the Futaki-Ono moment
  test set the typical op.  Draws of dimension 2 or 3 that are weakly
  symmetric (about 1%) are dropped before the window opens: they go on to
  the LP falsifier without symmetry reduction and take from 1 s to minutes
  there, so they could not complete in a run.  The ``falsifier`` workload
  times that LP.
* ``falsifier``: ``falsify(P, k)`` at k = 1, 2 on every catalog entry of
  dimension at most 3, plus the bipyramid carriers of the cube5 and cube6
  double cones at k = 1.  It isolates the LP and the per-ridge rational
  solves.  k = 3 (up to 29 s for X9_x_segment) and cube7_doublecone (42-52 s)
  are left out: one pass must fit in a run.
* ``cli-cold``: fresh ``python -m chowtool.cli`` processes, one at a time,
  each timed from spawn to exit.  Interpreter start, ``import chowtool`` and
  the eager catalog build are on every op's critical path.
"""

import copy
import hashlib
import json
import os
import random
import selectors
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from chowtool import catalog, geometry, jsonio, stability, symmetry
from chowtool.errors import ChowToolError, NotFullDimensional
from tracer import TRACE_MARK

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

WORKLOADS = ("catalog-verdicts", "random-analyze", "falsifier", "cli-cold")

# per-op time budget; the slowest kept op takes about 7 s (simplexPn4), so no
# kept op can flip between completing and timing out
OP_BUDGET_S = 30.0

CATALOG_LEFT_OUT = ("D6", "D7", "simplexPn5")
FALSIFIER_KS = (1, 2)
FALSIFIER_DOUBLE_CONES = ("cube5_doublecone", "cube6_doublecone")
RANDOM_DRAWS = 1000
# catalog-verdicts and falsifier have a few dozen ops whose latencies range
# from 0.1 ms to 10 s; after the first round, an op is called every
# ceil(latency / ROUND_SHARE_S) rounds, so the long ones do not crowd out
# the repeated calls of the short ones.  random-analyze and cli-cold call
# every op in every round.
ROUND_SHARE_S = 0.25

CLI_COMMANDS = (
    ("catalog", "list"),
    ("catalog", "show", "X6", "--json"),
    ("ehrhart", "X3"),
    ("symmetry", "D3"),
    ("equations", "X6"),
    ("analyze", "X6", "--json"),
    ("triangulate", "D3", "--boundary"),
    ("falsify", "X6"),
)


class OpTimeout(BaseException):
    """Raised by the per-op timer.

    A BaseException, so that the ``except Exception`` handlers inside
    chowtool cannot swallow it and turn it into a different verdict.
    """


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass
class Op:
    name: str
    make_input: Callable  # () -> fresh input, called outside the timed region
    call: Callable        # input -> output, the timed region
    digest: Callable      # output -> digest compared with the golden
    verify: Callable      # output -> [problems], checks beyond the golden


@dataclass
class Workload:
    name: str
    ops: list
    goldens: dict = field(default_factory=dict)
    left_out: tuple = ()
    cli: object = None  # the CliRunner of cli-cold
    prepare: Callable = None  # run once after setup, outside the window
    screened_out: int = 0
    # see ROUND_SHARE_S; None calls every op in every round
    round_share_s: float = None


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _factors(P):
    """P and, recursively, the factors classify splits it into."""
    out = [P]
    split = stability._coordinate_split(P) if P.dim > 1 else None
    if split is not None:
        for pts in split[1]:
            out.extend(_factors(geometry.Polytope(pts)))
    return out


def certificate_problems(P, cert):
    """Re-evaluate a not_semistable certificate through chow_gap.

    A product's certificate belongs to the factor that carries it, so every
    factor of matching dimension is tried.
    """
    if cert is None:
        return ["not_semistable verdict without a certificate"]
    if not cert.gap < 0:
        return [f"certificate gap {cert.gap} is not negative"]
    if cert.function is None:
        return []
    dim = len(next(iter(cert.function.values)))
    for Q in _factors(P):
        if Q.dim != dim:
            continue
        try:
            gap = stability.chow_gap(Q, cert.k, cert.function)
        except (ChowToolError, KeyError):
            continue
        if gap == cert.gap:
            return []
        return [f"certificate re-evaluates to {gap}, claims {cert.gap}"]
    return ["certificate does not re-evaluate on the polytope or its factors"]


def verdict_json_problems(text, P=None, status=None):
    """Round-trip verdict JSON: it must re-emit byte for byte and carry the
    polytope and status it was made from."""
    data = json.loads(text)
    problems = []
    if jsonio.dump_json(data) != text:
        problems.append("verdict JSON does not round-trip")
    if P is not None and data["polytope"] != jsonio.polytope_to_json(P):
        problems.append("verdict JSON polytope differs from the input")
    if status is not None and data["status"] != status:
        problems.append(f"verdict JSON status {data['status']} != {status}")
    return problems


def digest_verdict(output):
    return digest(output[2])


def verify_verdict(output):
    P, verdict, text = output
    problems = verdict_json_problems(text, P, verdict.status)
    if verdict.status == stability.NOT_SEMISTABLE:
        problems += certificate_problems(P, verdict.certificate)
    return problems


def digest_falsify(output):
    cert = output[2]
    return "None" if cert is None else f"gap={cert.gap}"


def verify_falsify(output):
    P, k, cert = output
    return [] if cert is None else certificate_problems(P, cert)


def digest_cli(output):
    argv, code, out, err = output
    return digest(f"exit={code}\n{out}")


def verify_cli(output):
    argv, code, out, err = output
    problems = []
    if code not in (0, 2):
        problems.append(f"exit code {code}: {err.strip()[-200:]}")
    elif argv[0] == "analyze" and "--json" in argv:
        problems += verdict_json_problems(out.rstrip("\n"))
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def classify_op(P):
    verdict = stability.classify(P)
    return P, verdict, jsonio.dump_json(jsonio.verdict_to_json(P, verdict))


def analyze_text_op(text):
    P = jsonio.polytope_from_json(json.loads(text))
    verdict = stability.classify(P)
    return P, verdict, jsonio.dump_json(jsonio.verdict_to_json(P, verdict))


def _pristine(entry):
    return lambda: copy.deepcopy(entry.polytope)


def catalog_verdicts(seed):
    ops = [
        Op(e.name, _pristine(e), classify_op, digest_verdict, verify_verdict)
        for e in catalog.entries()
        if e.name not in CATALOG_LEFT_OUT
    ]
    return _shuffled(ops, seed), CATALOG_LEFT_OUT


def random_polytope_texts(seed, draws=RANDOM_DRAWS):
    """Vertex JSON of seeded random lattice polytopes.

    Dimension n cycles through 2..4 and the point count through n+1..n+6,
    so every seed has the same mix of sizes; coordinates are uniform in
    [-3, 3].  Point sets that do not span their space stay: parsing them
    raises the documented NotFullDimensional, which is correct output.
    """
    rng = random.Random(seed)
    texts = []
    for i in range(draws):
        n = 2 + i % 3
        m = n + 1 + (i // 3) % 6
        pts = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        texts.append(json.dumps({"dim": n, "vertices": pts}))
    return texts


def goes_past_fo_test(text):
    """Whether classify takes this draw past the Futaki-Ono test, towards
    the LP falsifier.

    Draws that are not weakly symmetric end at that test, and the falsifier
    has no carrier above dimension 3.
    """
    data = json.loads(text)
    if data["dim"] > 3:
        return False
    try:
        P = geometry.Polytope(data["vertices"])
    except NotFullDimensional:
        return False
    return symmetry.is_weakly_symmetric(P)[0]


def drop_draws_past_fo_test(workload):
    """Screen random-analyze's draws (see the module docstring).

    Runs after setup and outside the measured window: it is the benchmark's
    choice of inputs, not work a user of the program does.
    """
    kept = [op for op in workload.ops if not goes_past_fo_test(op.make_input())]
    workload.screened_out = len(workload.ops) - len(kept)
    workload.ops = kept


def random_analyze(seed):
    ops = []
    for text in random_polytope_texts(seed):
        ops.append(Op("draw-" + digest(text), (lambda t=text: t), analyze_text_op,
                      digest_verdict, verify_verdict))
    return _shuffled(ops, seed), ("weakly symmetric draws of dimension 2 and 3",)


def falsifier(seed):
    def falsify_op(k):
        return lambda P: (P, k, stability.falsify(P, k))

    ops = []
    for e in catalog.entries():
        if e.polytope.dim <= 3:
            for k in FALSIFIER_KS:
                ops.append(Op(f"{e.name}@k{k}", _pristine(e), falsify_op(k), digest_falsify, verify_falsify))
        elif e.name in FALSIFIER_DOUBLE_CONES:
            ops.append(Op(f"{e.name}@k1", _pristine(e), falsify_op(1), digest_falsify, verify_falsify))
    left_out = ("k=3", "cube7_doublecone@k1")
    return _shuffled(ops, seed), left_out


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run a child to completion; return (exit code, stdout, stderr, maxrss KiB).

    Reaps the child with wait4 so its own peak RSS is known.  An OpTimeout
    raised while it runs kills and reaps it before propagating.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            open_streams = len(chunks)
            while open_streams:
                for key, _ in sel.select():
                    data = os.read(key.fileobj.fileno(), 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        open_streams -= 1
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout]).decode()
    err = b"".join(chunks[proc.stderr]).decode()
    return proc.returncode, out, err, usage.ru_maxrss


class CliRunner:
    """Runs one CLI invocation as a fresh process.

    With a tracer set, the child is ``cli_traced.py``, which wraps the same
    layers inside the child and reports its span totals on the last line of
    its stderr; they are folded into the tracer.
    """

    def __init__(self):
        self.env = cli_env()
        self.tracer = None
        self.child_maxrss_kib = []

    def __call__(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "chowtool.cli", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), *argv]
        code, out, err, maxrss = run_child(cmd, self.env)
        self.child_maxrss_kib.append(maxrss)
        if self.tracer is not None:
            err, _, totals = err.rpartition("\n" + TRACE_MARK)
            self.tracer.add(json.loads(totals))
        return argv, code, out, err


def cli_cold(seed):
    ops = []
    for argv in CLI_COMMANDS:
        ops.append(Op(" ".join(argv), (lambda a=argv: list(a)), None, digest_cli, verify_cli))
    return _shuffled(ops, seed), ()


OP_LISTS = {
    "catalog-verdicts": catalog_verdicts,
    "random-analyze": random_analyze,
    "falsifier": falsifier,
    "cli-cold": cli_cold,
}


def load_goldens(name):
    with open(GOLDENS) as fh:
        return json.load(fh).get(name, {})


def build(name, seed):
    ops, left_out = OP_LISTS[name](seed)
    workload = Workload(name, ops, load_goldens(name), left_out)
    if name in ("catalog-verdicts", "falsifier"):
        workload.round_share_s = ROUND_SHARE_S
    if name == "random-analyze":
        workload.prepare = drop_draws_past_fo_test
    if name == "cli-cold":
        workload.cli = CliRunner()
        for op in ops:
            op.call = workload.cli
    return workload


def arm(seconds):
    """Start the per-op timer; OpTimeout fires when it runs out."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)


def disarm():
    signal.setitimer(signal.ITIMER_REAL, 0)


def _on_alarm(signum, frame):
    raise OpTimeout()
