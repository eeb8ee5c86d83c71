"""Inputs, timed operations and output checks of the delpezzo benchmark.

Every input is a pure function of the workload seed, so the same seed gives
byte-identical inputs (see `inputs_digest`).  The program under test is the
`delpezzo` package in ``src/`` of the checkout that holds this directory; the
benchmark adds nothing to the package and calls only its public API and CLI.

All workloads are closed loops with one client: one operation at a time, the
next one issued when the previous one has returned.  Each is a `Workload`
whose passes both the timed run (`measure`) and the traced run drive through
`run_pass`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import typing
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected"
INPUTS = BENCH_DIR / "inputs"

DEFAULT_SEED = 0
CONFIG_NAMES = ("GENERAL", "P1", "P2", "P3", "P4", "P5", "P6")

#: ROADMAP reproducer: on GENERAL its one-wall reduction ping-pongs for about
#: 16,000 steps and ends at h0 = 0.
REPRODUCER = "890070l-890167e1+789436e2-230823e3+48486e4"
REPRODUCER_COEFFS = (890070, -890167, 789436, -230823, 48486)

CLI_MAIN = "import sys; from delpezzo.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120

#: h0-stream: classes in the curve basis, plane degree 0..12, |e_i| <= 6.
STREAM_DEGREES = (0, 12)
STREAM_EXCEPTIONAL = 6
#: Ops of one h0-stream pass; each pass draws fresh inputs from the seed.
STREAM_PASS_OPS = 1000
#: Passes of the default-seed stream whose answers form the stored digest.
STREAM_DIGEST_PASSES = 2

#: h0-wide: a fixed corpus of classes with |coeff| <= 10^5 and -K.D >= 0,
#: plus the reproducer.  The corpus is fixed and the seed orders each pass,
#: because the cost per class is heavy-tailed (a class at the reduction cap
#: costs about 100 times the mean): a seeded corpus would let the number of
#: such classes, not the program, set the throughput of a run.
WIDE_BOUND = 10**5
WIDE_CORPUS_SIZE = 1000
WIDE_CORPUS_SEED = "h0-wide-corpus-v1"


# ---------------------------------------------------------------------------
# Loading the program under test
# ---------------------------------------------------------------------------

def load_package():
    """Import `delpezzo` from ``src/`` of this checkout, and nothing else."""
    if not (SRC / "delpezzo" / "__init__.py").is_file():
        raise SystemExit(f"benchmark error: no delpezzo package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import delpezzo
    import delpezzo.cli
    import delpezzo.verify

    if Path(delpezzo.__file__).resolve().parent != SRC / "delpezzo":
        raise SystemExit(f"benchmark error: imported delpezzo from {delpezzo.__file__}, not {SRC}")
    return delpezzo


def fresh_package():
    """Drop every delpezzo module and import the package again, so that no
    cache of any kind (lru_cache, module global, memo) survives: the state
    of a fresh process, without its interpreter start."""
    for name in [n for n in sys.modules if n == "delpezzo" or n.startswith("delpezzo.")]:
        del sys.modules[name]
    # typing's caches would keep the old modules' classes alive, so that the
    # peak RSS grew with the number of fresh imports in a run.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    return load_package()


def child_env() -> dict:
    """The caller's environment with ``src/`` on the path.  Children may write
    bytecode caches, as an installed package has them: a run then times the
    same cold start whatever the caller's setting."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one fresh interpreter started from the
    checkout root; a timeout reads as code -9."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return -9, "", f"timeout after {exc.timeout} s"
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """One `delpezzo` invocation, started the way the console script starts it."""
    return run_child(["-c", CLI_MAIN, *args])


def run_in_process(cli, args: list[str]) -> tuple[int, str, str]:
    """`cli.run` in this interpreter, from the checkout root as a child runs;
    an escaping exception is exit code 1, as it is for the console script."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(args)
        except Exception:
            code = 1
    return code, out.getvalue(), err.getvalue()


def children_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Set-up probes: a fresh interpreter imports the package and warms up once
# per public function the workload uses.  The child times this itself, so
# that interpreter start is left out.
# ---------------------------------------------------------------------------

SETUP_CODE = {
    "golden-suite": """
import delpezzo as d, delpezzo.verify
p4 = d.get_configuration("P4")
x = d.parse_class_label("l-e3-e4", p4, "curve")
d.h0(x, p4); d.is_effective(x, p4)
d.find_half_anticanonical_pencils(1)
d.sigma_intersect(d.SigmaClass(x, p4), d.SigmaClass(x, p4))
d.covers.load_scenario("src/delpezzo/data/scenarios/cover_disjoint_minus4_pair.json")
d.bidouble_invariants(d.covers.load_scenario("src/delpezzo/data/scenarios/bidouble_burniat.json")[0])
d.diff_tables("p4")
d.preimage_configuration_search(1, -2, 1)
d.decompose_class(d.parse_class_label("l-e4"), [c.cls for c in d.minus_one_curves(d.GENERAL)], 2, d.GENERAL)
""",
    "h0-stream": """
import delpezzo as d
p4 = d.get_configuration("P4")
x = d.parse_class_label("2l-e1-e2-e3-e4", p4, "curve")
d.h0_with_trace(x, p4); d.is_effective(d.anticanonical_class(p4) - 2 * x, p4)
d.mumford_pullback(d.SigmaClass(x, p4)); d.sigma_intersect(d.SigmaClass(x, p4), d.SigmaClass(x, p4))
""",
    "h0-wide": """
import delpezzo as d
d.h0(d.DivisorClass((3, -1, -1, -1, -1)), d.GENERAL)
""",
    "cli-queries": """
import contextlib, io, delpezzo.cli
with contextlib.redirect_stdout(io.StringIO()):
    delpezzo.cli.run(["h0", "--class", "l"])
""",
}

SETUP_TIMER = "import time as _t\n_t0 = _t.perf_counter()\n{code}\nprint(_t.perf_counter() - _t0)\n"


def setup_probe(workload: str) -> float:
    """Seconds a fresh interpreter spends on the workload's set-up code."""
    code, stdout, stderr = run_child(["-c", SETUP_TIMER.format(code=SETUP_CODE[workload])])
    if code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed:\n{stderr}")
    return float(stdout.split()[-1])


# ---------------------------------------------------------------------------
# Machine speed: the machine this benchmark was set up on is shared, and its
# speed changes from second to second.  A timed run measures it all through
# with short slices of a fixed reference computation, and scales each time by
# the speed measured around it, so that a change in the program, not in the
# machine, moves the metrics.
# ---------------------------------------------------------------------------

#: Reference rate (calls of `reference_work` per second) that the speed index
#: is relative to: about its rate on the machine described in BASELINE.md.
REFERENCE_RATE = 2500.0
SLICE_S = 0.05
SLICE_EVERY_S = 0.5
#: Least time between two set-up probes, taken between ops.
PROBE_EVERY_S = 1.5
#: Set-up probes per run: those taken between ops, topped up to this many.
SETUP_MIN = 12


@dataclass(frozen=True)
class _Vector:
    coeffs: tuple


def reference_work() -> None:
    """A fixed mix like the program's own work, in benchmark code only: exact
    rational elimination on a 4x5 system and frozen-dataclass tuple arithmetic."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5) + (2 if i == j else 0) for j in range(5)] for i in range(4)]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(4):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    v = _Vector((3, -1, -1, -1, -1))
    for k in range(40):
        v = _Vector(tuple(a + k % 3 - 1 for a in v.coeffs))
        pair(v.coeffs, v.coeffs)


class Sampler:
    """Machine speed and set-up time, sampled all through a timed run.

    Between ops, at most every PROBE_EVERY_S, a set-up probe runs, followed
    by a SLICE_S slice of `reference_work`.  With `timer` set (for ops that
    compute in this process), a timer signal also runs a slice every
    SLICE_EVERY_S, in the middle of an op too; `op_times` takes that slice's
    time out of the op's.  A slice's speed index is its rate over
    REFERENCE_RATE: above 1 is faster."""

    def __init__(self, workload: str, timer: bool):
        self.workload = workload
        self.timer = timer
        self.slices: list[tuple[float, float, float]] = []  # (start, end, speed index)
        self.setup: list[tuple[float, float]] = []  # (probe seconds, speed index of the slice after it)
        self._last_probe = float("-inf")
        self._paused = False

    def __enter__(self):
        if self.timer:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, _signum, _frame) -> None:
        if not self._paused:
            self._slice()

    def _slice(self) -> float:
        start = time.perf_counter()
        calls = 0
        while time.perf_counter() - start < SLICE_S:
            reference_work()
            calls += 1
        end = time.perf_counter()
        self.slices.append((start, end, calls / (end - start) / REFERENCE_RATE))
        return self.slices[-1][2]

    def between_ops(self) -> None:
        """A set-up probe if one is due; without the timer, a slice if one is due."""
        now = time.perf_counter()
        if now - self._last_probe >= PROBE_EVERY_S:
            self.probe()
        elif not self.timer and now - self.slices[-1][1] >= SLICE_EVERY_S:
            self._slice()

    def probe(self) -> None:
        self._paused = True  # no timer slice while the child runs
        try:
            seconds = setup_probe(self.workload)
            self.setup.append((seconds, self._slice()))
        finally:
            self._paused = False
        self._last_probe = time.perf_counter()

    def top_up(self) -> None:
        """More probes after a short run, up to SETUP_MIN."""
        while len(self.setup) < SETUP_MIN:
            self.probe()

    @property
    def speed(self) -> float:
        """Median speed index of the run."""
        return statistics.median(rate for *_, rate in self.slices)

    def setup_s(self, scaled: bool) -> list[float]:
        """Set-up times, scaled by the index of the slice right after each."""
        return [seconds * (rate if scaled else 1.0) for seconds, rate in self.setup]

    def op_times(self, res: RunResult, scaled: bool) -> list[float]:
        """The time of each op of `res` without the slices that ran inside it;
        scaled, times the mean index of those slices and of the slices just
        before and just after it."""
        times = []
        slices = self.slices
        j = 0
        for start, end in zip(res.starts, res.ends):
            while j < len(slices) and slices[j][1] <= start:
                j += 1
            k = j  # slices[j:k] ran inside the op: a signal handler runs whole
            while k < len(slices) and slices[k][1] <= end:
                k += 1
            t = end - start - sum(e - s for s, e, _ in slices[j:k])
            if scaled:
                t *= statistics.fmean(rate for *_, rate in slices[max(j - 1, 0):k + 1])
            times.append(t)
        return times


# ---------------------------------------------------------------------------
# Independent lattice helpers for the checks (no call into the program)
# ---------------------------------------------------------------------------

def pair(a, b):
    """Intersection form diag(+1, -1, -1, -1, -1) on standard coordinates."""
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


MINUS_K = (3, -1, -1, -1, -1)
K = (-3, 1, 1, 1, 1)


def chi(d) -> int:
    """Riemann-Roch: chi(D) = 1 + (D^2 - D.K)/2."""
    return 1 + (pair(d, d) - pair(d, K)) // 2


def rank(rows) -> int:
    """Rank over the rationals, by exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def curve_literal(coords) -> str:
    """Compact literal such as ``5l-2e1+3e2-e4``; the l term is always present."""
    out = f"{coords[0]}l"
    for i, c in enumerate(coords[1:], start=1):
        if c:
            out += ("+" if c > 0 else "-") + ("" if abs(c) == 1 else str(abs(c))) + f"e{i}"
    return out


# ---------------------------------------------------------------------------
# Stored answers
# ---------------------------------------------------------------------------

def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_expected(name: str):
    return json.loads((EXPECTED / name).read_text())


def answer_digest(answers: list, skip=None) -> dict:
    """Hash of the answers (None marks an op that raised).  The ops listed in
    `skip` (by default the ones that raised) are left out, so that an op
    which failed when the digest was recorded may later complete."""
    failed = [i for i, a in enumerate(answers) if a is None]
    skip = set(failed if skip is None else skip)
    kept = [a for i, a in enumerate(answers) if i not in skip]
    return {"ops": len(answers), "failed": failed, "sha256": sha256_json(kept)}


def digest_matches(answers: list, recorded: dict) -> bool:
    return answer_digest(answers, recorded["failed"])["sha256"] == recorded["sha256"]


def attempt(fn, *args):
    """fn(*args), or None when it raises: a crash is a failed op, never an abort."""
    try:
        return fn(*args)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Results and the loops shared by every workload
# ---------------------------------------------------------------------------

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0                 # ops that broke a check: they also count as failed
    # perf_counter at the start and end of each op, compact so that they
    # add little to the peak RSS of a long run
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    digest_ok: bool = True         # the answers stored in expected/ still come out
    peak_rss_mib: float = 0.0
    sampler: Sampler | None = None  # set by the timed run
    notes: list[str] = field(default_factory=list)

    def record(self, outcome: str) -> None:
        """Count one op: OK; FAILED, a crash that the op also had when the
        answers in expected/ were recorded (a known defect); or WRONG, any
        other crash or a wrong answer."""
        self.attempted += 1
        self.failed += outcome != OK
        self.wrong += outcome == WRONG

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.digest_ok


class Workload:
    """Pass `index` runs `op` on each item of `items(index)`, a pure function
    of the seed and the index; `outcome` checks one output, and `finish` makes
    the checks that need the whole run.  `prepare` re-imports the package
    before each pass, so that no cache carries over from one pass to the
    next, or before each op if `fresh` is set, as if each op were a fresh
    process.  `in_process`: the ops compute in this interpreter."""

    name = ""
    fresh = False
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.api = load_package()

    def prepare(self) -> None:
        self.api = fresh_package()

    def items(self, index: int) -> list:
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def outcome(self, item, out) -> str:
        raise NotImplementedError

    def finish(self, res: RunResult) -> None:
        res.peak_rss_mib = self_peak_rss_mib()


def run_pass(w: Workload, index: int, res: RunResult, tracer=None) -> list:
    """Run pass `index` of `w`, timing each op into `res`, with the ops
    traced when a tracer is given.  Between ops, untimed: the run's set-up
    probes and `w.prepare`.  Returns the (item, output) pairs; an output is
    None where the op raised."""
    perf = time.perf_counter
    outputs = []
    try:
        for position, item in enumerate(w.items(index)):
            if res.sampler:
                res.sampler.between_ops()
            if w.fresh or position == 0:
                w.prepare()
                if tracer:
                    tracer.install()  # on the modules just imported
            res.starts.append(perf())
            out = attempt(w.op, item)
            res.ends.append(perf())
            if tracer and w.fresh:
                tracer.uninstall()
            outputs.append((item, out))
    finally:
        if tracer:
            tracer.uninstall()
    return outputs


def check_pass(w: Workload, outputs: list, res: RunResult) -> None:
    for item, out in outputs:
        res.record(w.outcome(item, out))


def measure(w: Workload, seconds: float) -> RunResult:
    """The timed run: whole passes while the next one is expected to fit in
    `seconds` of op time (at least one), each checked after it ran."""
    # One CPU for this process and its children, so that the speed slices
    # measure the CPU that a child op or set-up probe runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    res = RunResult(sampler=Sampler(w.name, timer=w.in_process))
    op_time = 0.0
    index = 0
    with res.sampler:
        while True:
            before = len(res.starts)
            check_pass(w, run_pass(w, index, res), res)
            op_time += sum(res.ends[before:]) - sum(res.starts[before:])
            index += 1
            if op_time * (index + 1) / index > seconds:
                break
        res.sampler.top_up()
    w.finish(res)
    return res


# ---------------------------------------------------------------------------
# golden-suite: `delpezzo verify` in this process, from a fresh import
# ---------------------------------------------------------------------------

def verify_outcome(output: tuple[int, str, str], expected: str) -> str:
    """OK or WRONG for one `verify` run: the suite had no failure when
    expected/ was recorded.  Every stored line must still be printed; checks
    added later may be too, but no line may read [FAIL]."""
    code, stdout, stderr = output
    lines = stdout.splitlines()
    passed = code == 0 and "Traceback" not in stderr and not any(line.startswith("[FAIL]") for line in lines)
    return OK if passed and set(expected.splitlines()) <= set(lines) else WRONG


class GoldenSuite(Workload):
    """One op is `cli.run(["verify"])` on a freshly imported package.
    Interpreter start is left to cli-queries and set-up, so that the speed
    index applies."""

    name = "golden-suite"
    fresh = True

    def __init__(self, seed: int):
        super().__init__(seed)  # the suite has no inputs: the seed is unused
        self.expected = (EXPECTED / "golden_suite.txt").read_text()

    def items(self, index):
        return [["verify"]]

    def op(self, args):
        return run_in_process(self.api.cli, args)

    def outcome(self, args, out):
        return verify_outcome(out, self.expected)


# ---------------------------------------------------------------------------
# h0-stream: parse, h0 with trace, effectivity, and on P1..P6 the pullback
# ---------------------------------------------------------------------------

def stream_items(seed: int, index: int) -> list:
    """Pass `index` of the stream: (configuration, literal, second literal or None)."""
    rng = random.Random(f"h0-stream:{seed}:{index}")

    def literal():
        coords = [rng.randint(*STREAM_DEGREES)] + [
            rng.randint(-STREAM_EXCEPTIONAL, STREAM_EXCEPTIONAL) for _ in range(4)
        ]
        return curve_literal(coords)

    items = []
    for _ in range(STREAM_PASS_OPS):
        cfg = rng.choice(CONFIG_NAMES)
        first = literal()
        items.append((cfg, first, (literal() if cfg != "GENERAL" else None)))
    return items


def stream_op(api, item):
    cfg_name, label, second = item
    cfg = api.get_configuration(cfg_name)
    d = api.parse_class_label(label, cfg, "curve")
    trace = api.h0_with_trace(d, cfg)
    effective = api.is_effective(api.anticanonical_class(cfg) - 2 * d, cfg)
    if second is None:
        return (d, trace.value, effective, None, None, None)
    d2 = api.parse_class_label(second, cfg, "curve")
    pulled = api.mumford_pullback(api.SigmaClass(d, cfg))
    sigma = api.sigma_intersect(api.SigmaClass(d, cfg), api.SigmaClass(d2, cfg))
    return (d, trace.value, effective, pulled, d2, sigma)


def stream_answer(out) -> list:
    """User-facing answers of one op (no reduction-step counts)."""
    _d, value, effective, pulled, _d2, sigma = out
    return [value, effective,
            None if pulled is None else [str(c) for c in pulled.coeffs],
            None if sigma is None else str(sigma)]


def check_h0(api, cfg, d, value) -> bool:
    """Riemann-Roch with Serre duality: h0(D) >= chi(D) - h0(K - D), and
    h0(D), h0(K - D) are not both positive because K is not effective."""
    dual = api.h0(api.canonical_class(cfg) - d, cfg)
    return value >= max(0, chi(d.coeffs) - dual) and (value == 0 or dual == 0)


def stream_answer_ok(api, item, out) -> bool:
    cfg = api.get_configuration(item[0])
    d, value, effective, pulled, d2, sigma = out
    if not check_h0(api, cfg, d, value):
        return False
    twice = api.anticanonical_class(cfg) - 2 * d
    if effective != (api.h0(twice, cfg) >= 1):
        return False
    if pulled is None:
        return True
    thetas = [t.cls.coeffs for t in api.minus_two_curves(cfg)]
    if any(pair(pulled.coeffs, t) != 0 for t in thetas):
        return False
    difference = [p - c for p, c in zip(pulled.coeffs, d.coeffs)]
    if rank(thetas + [difference]) != rank(thetas):
        return False
    return sigma == api.sigma_intersect(api.SigmaClass(d2, cfg), api.SigmaClass(d, cfg))


class H0Stream(Workload):
    """Every op completed when the digest was recorded, so any crash is WRONG."""

    name = "h0-stream"

    def items(self, index):
        return stream_items(self.seed, index)

    def op(self, item):
        return stream_op(self.api, item)

    def outcome(self, item, out):
        return OK if out is not None and stream_answer_ok(self.api, item, out) else WRONG

    def finish(self, res):
        """Whatever the seed: the default-seed answers against the digest."""
        super().finish(res)
        recorded = load_expected("digests.json")["h0-stream"]
        res.digest_ok = digest_matches(stream_answers(self.api), recorded)


def stream_answers(api) -> list:
    """Answers of the first STREAM_DIGEST_PASSES passes at the default seed
    (None where an op raised)."""
    items = [item for index in range(STREAM_DIGEST_PASSES) for item in stream_items(DEFAULT_SEED, index)]
    outputs = [attempt(stream_op, api, item) for item in items]
    return [None if out is None else stream_answer(out) for out in outputs]


# ---------------------------------------------------------------------------
# h0-wide: h0 alone on large classes
# ---------------------------------------------------------------------------

def wide_corpus() -> list[tuple[str, tuple[int, ...]]]:
    """The reproducer on GENERAL, then WIDE_CORPUS_SIZE seeded classes."""
    rng = random.Random(WIDE_CORPUS_SEED)
    corpus = [("GENERAL", REPRODUCER_COEFFS)]
    while len(corpus) <= WIDE_CORPUS_SIZE:
        coeffs = tuple(rng.randint(-WIDE_BOUND, WIDE_BOUND) for _ in range(5))
        if pair(MINUS_K, coeffs) >= 0:
            corpus.append((rng.choice(CONFIG_NAMES), coeffs))
    return corpus


def wide_order(seed: int, pass_index: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"h0-wide:{seed}:{pass_index}").shuffle(order)
    return order


def wide_op(api, entry) -> int:
    cfg_name, coeffs = entry
    return api.h0(api.DivisorClass(coeffs), api.get_configuration(cfg_name))


class H0Wide(Workload):
    """Items are corpus indices.  A crash is FAILED only at the indices where
    h0 crashed when the digest was recorded.  Each class is checked once;
    later passes must repeat its first answer."""

    name = "h0-wide"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.corpus = wide_corpus()
        self.recorded = load_expected("digests.json")["h0-wide"]
        self.answers: dict[int, int | None] = {}
        self.outcomes: dict[int, str] = {}

    def items(self, index):
        return wide_order(self.seed, index, len(self.corpus))

    def op(self, i):
        return wide_op(self.api, self.corpus[i])

    def outcome(self, i, value):
        if i in self.answers:
            return self.outcomes[i] if value == self.answers[i] else WRONG
        self.answers[i] = value
        if value is None:
            self.outcomes[i] = FAILED if i in self.recorded["failed"] else WRONG
        else:
            cfg_name, coeffs = self.corpus[i]
            ok = check_h0(self.api, self.api.get_configuration(cfg_name), self.api.DivisorClass(coeffs), value)
            self.outcomes[i] = OK if ok else WRONG
        return self.outcomes[i]

    def finish(self, res):
        super().finish(res)
        res.digest_ok = digest_matches([self.answers[i] for i in range(len(self.corpus))], self.recorded)


# ---------------------------------------------------------------------------
# cli-queries: short `delpezzo` processes, one at a time
# ---------------------------------------------------------------------------

SCENARIOS = "src/delpezzo/data/scenarios"
REJECT = "reject"   # malformed input: must exit 2 or 3 without a traceback
GOLDEN = "golden"   # must exit 0 with the stdout stored in expected/
VALUE = "value"     # must exit 0 with the first stdout line stored in expected/


def cli_queries() -> list[tuple[str, list[str], str]]:
    """(name, arguments, expectation); an expectation other than GOLDEN, VALUE
    or REJECT is the exact stdout of a query the seed commit cannot answer."""
    queries = []
    for cfg in CONFIG_NAMES:
        # The answer is the first line; the reduction trace after it may change.
        queries.append((f"h0-{cfg}", ["h0", "--config", cfg, "--class", "2l-e1-e2-e3-e4",
                                      "--basis", "curve", "--verbose"], VALUE))
        queries.append((f"curves-{cfg}", ["curves", "--config", cfg], GOLDEN))
    for cfg in ("P3", "P4", "P5", "P6"):
        queries.append((f"pullback-{cfg}", ["pullback", "--config", cfg, "--class", "l-e3-e4"], GOLDEN))
    for case in ("p4", "p5"):
        queries.append((f"tables-{case}", ["tables", "--case", case], GOLDEN))
    for name in sorted(p.name for p in (ROOT / SCENARIOS).glob("*.json")):
        queries.append((f"cover-{name[:-5]}", ["cover", "--scenario", f"{SCENARIOS}/{name}"], GOLDEN))
        if name.startswith("bidouble"):
            queries.append((f"transport-{name[:-5]}", [
                "transport", "--scenario", f"{SCENARIOS}/{name}",
                "--apply", "cremona:123", "--apply", "perm:1243"], GOLDEN))
    queries.append(("decompose", ["decompose", "--class", "l-e4", "--parts", "lines", "--max-parts", "2"], GOLDEN))
    queries.append(("orbits", ["orbits"], GOLDEN))
    inputs = INPUTS.relative_to(ROOT)
    queries.append(("bad-zero-denominator", ["cover", "--scenario", f"{inputs}/cover_zero_denominator.json"], REJECT))
    queries.append(("bad-top-level-list", ["cover", "--scenario", f"{inputs}/cover_top_level_list.json"], REJECT))
    queries.append(("bad-max-parts", ["decompose", "--class", "l-e4", "--max-parts", "-1"], REJECT))
    queries.append(("h0-reproducer", ["h0", "--class", REPRODUCER], "0\n"))
    return queries


def query_outcome(expect: str, stored: dict, output: tuple[int, str, str]) -> str:
    """OK when the query behaves as expected; otherwise FAILED if it exits
    with the same non-zero code as when expected/ was recorded (a known
    defect), and WRONG if not."""
    code, stdout, stderr = output
    if expect == REJECT:
        ok = code in (2, 3)
    elif expect == VALUE:
        ok = code == 0 and stdout.split("\n", 1)[0] == stored["stdout"].split("\n", 1)[0]
    else:
        ok = code == 0 and stdout == (stored["stdout"] if expect == GOLDEN else expect)
    if ok and "Traceback" not in stderr:
        return OK
    return FAILED if code == stored["exit_at_recording"] != 0 else WRONG


def cli_order(seed: int, pass_index: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"cli-queries:{seed}:{pass_index}").shuffle(order)
    return order


class CliQueries(Workload):
    """One op is a `delpezzo` child process.  With `in_process`, as in the
    traced run, it is `cli.run` on a freshly imported package instead, so that
    the tracer can see the calls."""

    name = "cli-queries"
    fresh = True

    def __init__(self, seed: int, in_process: bool = False):
        super().__init__(seed)
        self.in_process = in_process
        self.queries = cli_queries()
        self.stored = load_expected("cli_queries.json")

    def prepare(self):
        if self.in_process:  # a child process imports the package itself
            super().prepare()

    def items(self, index):
        return [self.queries[i] for i in cli_order(self.seed, index, len(self.queries))]

    def op(self, query):
        return run_in_process(self.api.cli, query[1]) if self.in_process else run_cli(query[1])

    def outcome(self, query, out):
        name, _args, expect = query
        return query_outcome(expect, self.stored[name], out)

    def finish(self, res):
        # The largest child; the set-up probes run a subset of one query's work.
        res.peak_rss_mib = self_peak_rss_mib() if self.in_process else children_peak_rss_mib()


WORKLOADS = {w.name: w for w in (GoldenSuite, H0Stream, H0Wide, CliQueries)}


def make(workload: str, seed: int, in_process: bool = False) -> Workload:
    """The workload on the package as imported now; `in_process` runs every
    op in this interpreter."""
    if workload == CliQueries.name:
        return CliQueries(seed, in_process)
    return WORKLOADS[workload](seed)


def inputs_digest(workload: str, seed: int) -> str:
    """Hash of the inputs a workload generates from a seed."""
    w = make(workload, seed)
    return sha256_json([w.items(index) for index in range(3)])
