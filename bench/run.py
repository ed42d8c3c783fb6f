"""The hsagg benchmark: real ``hsa`` commands on seeded inputs, timed from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses ``src/`` of the
checkout it lives in and writes only to ``.bench_work/`` (scratch, removed
on exit) and ``.bench_results/`` (one JSON result file per run).

Workloads (see BENCHMARK.json for why each exists):

    build     hsa build for (U,V,T) = (4,4,6), and (6,3,5) from the prime 101
    audit     hsa audit on a (4,3,4) extended-Vandermonde file and an H*A copy
    exact     hsa audit --exact on a seeded H*A copy of the (3,1,1) scheme over F_5
    simulate  hsa simulate --L 5000 on the (6,3,5) scheme at (q, gamma) = (103, 8)

With ``--trace 0`` every command runs as a fresh ``python -m hsagg.cli``
process, one at a time, in a fresh working directory with its own HOME and
XDG_CACHE_HOME.  Whole passes over the workload's commands repeat while
another pass still fits in ``--seconds``.  ``reference.py``, a fixed
amount of pure-Python work, runs just before and just after every timed
process, and each time is taken as a ratio to the mean of those two runs: the speed of a shared host
drifts by a third within a minute, and both sides of the ratio drift with
it.  The metrics are medians of those ratios over the run.  With ``--trace 1``
one untraced pass is followed by one pass in a single traced process
(``bench/tracer.py``), which gives the per-layer metrics.

Every output is checked with the benchmark's own arithmetic
(``bench/oracle.py``), and a sha256 digest of each output is recorded so
two result files can be diffed to show byte-identical outputs.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from inputs import dumps, external_copy, extended_vandermonde_doc, random_invertible
from oracle import SchemeDoc, rank, sample_collusion_sets, source_rate, users

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

COMMAND_TIMEOUT_S = 60
RUN_DEADLINE_S = 170  # the whole run must end within 180 s
SETUP_PROBES = 9  # at least this many set-up probes per run
REFERENCE_OUTPUT = "49 101"  # what reference.py prints
# Uncontended wall time of reference.py on a 2-vCPU Intel Xeon.  setup_s is
# reported in seconds of a host on which the reference takes this long.
REFERENCE_S = 0.17
MDS_SAMPLES = 500  # n-row subsets re-checked per built scheme
LEAK_SAMPLES = 2000  # collusion sets per built scheme for the server-leak count
AUDIT_SAMPLES = 300  # collusion sets re-ranked per audited file

# The (4,3,4) extended-Vandermonde scheme at (q, gamma) = (23, 2) leaks to the
# server for exactly these collusion sets (full enumeration with oracle.rank;
# see test_bench_inputs.py).  Any H*A copy must report the same.
AUDIT_434_VIOLATIONS = [
    ("server", None, ((1, 1), (2, 1), (3, 1), (3, 2))),
    ("server", None, ((1, 1), (2, 1), (3, 1), (3, 3))),
    ("server", None, ((1, 1), (2, 1), (3, 2), (3, 3))),
    ("server", None, ((1, 1), (2, 2), (3, 1), (4, 1))),
    ("server", None, ((1, 2), (2, 2), (4, 1), (4, 2))),
    ("server", None, ((1, 2), (2, 2), (4, 1), (4, 3))),
    ("server", None, ((1, 2), (2, 2), (4, 2), (4, 3))),
    ("server", None, ((2, 1), (2, 2), (3, 3), (4, 1))),
    ("server", None, ((2, 1), (2, 3), (3, 3), (4, 1))),
    ("server", None, ((2, 2), (2, 3), (3, 3), (4, 1))),
]


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Command:
    name: str
    argv: list[str]  # arguments after ``hsa``
    ok_exits: tuple[int, ...] = (0,)
    output: str | None = None  # file the command writes in its working directory


@dataclass
class Result:
    command: Command
    exit: int | None
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    stdout: str = ""
    output: bytes | None = None
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    reference_s: float | None = None  # mean of the reference runs around this command


# ---------------------------------------------------------------------------
# Workloads: inputs, commands and output checks
# ---------------------------------------------------------------------------


class Workload:
    """Writes its inputs into ``indir`` and checks the outputs of one pass."""

    server_leaks_sampled = 0  # set by Build only

    def __init__(self, seed: int, indir: Path):
        self.seed = seed
        self.indir = indir

    def write(self, name: str, doc: dict) -> Path:
        path = self.indir / name
        path.write_text(dumps(doc))
        return path

    def check(self, results: list[Result]) -> None:
        """Fill in ``problems`` and ``digest`` of each result of one full pass."""
        for r in results:
            if r.exit not in r.command.ok_exits:
                r.problems.append(f"exit code {r.exit}, expected one of {r.command.ok_exits}")
                continue
            try:
                r.digest = self.check_one(r)
            except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                r.problems.append(f"{type(exc).__name__}: {exc}")
        if not any(r.problems for r in results):
            try:
                self.check_pass(results)
            except CheckFailed as exc:
                results[-1].problems.append(str(exc))

    def check_one(self, r: Result) -> str:
        raise NotImplementedError

    def check_pass(self, results: list[Result]) -> None:
        pass


class Build(Workload):
    # (U, V, T) and the prime the search starts from (None: the default UV + 1).
    # (6,3,5) from 101 tries 101 and certifies at 103; from the default 19 it
    # tries 20 primes and takes 2.4 s, too long to repeat often in one run.
    CONFIGS = [((4, 4, 6), None), ((6, 3, 5), 101)]

    def __init__(self, seed, indir):
        super().__init__(seed, indir)
        self.files = []  # build reads no input file
        self.commands = [
            Command(f"build-{U}-{V}-{T}",
                    ["build", "--U", str(U), "--V", str(V), "--T", str(T),
                     *(["--q", str(q)] if q else []), "--out", "scheme.json", "--json"],
                    output="scheme.json")
            for (U, V, T), q in self.CONFIGS
        ]
        self.leaks: dict[str, int] = {}

    def check_one(self, r):
        # hsagg is importable once main() has put the checkout's src/ on sys.path.
        from hsagg.schemes import KIND_EXTENDED_VANDERMONDE, import_scheme

        U, V, T = (int(x) for x in r.command.name.split("-")[1:])
        n = source_rate(U, V, T)
        printed = json.loads(r.stdout)
        q, gamma = printed["q"], printed["gamma"]
        require(printed["n_source"] == n, f"n_source {printed['n_source']} != {n}")
        doc = json.loads(r.output)
        scheme = import_scheme(doc)
        require(scheme.kind == KIND_EXTENDED_VANDERMONDE, f"kind {scheme.kind}")
        require(r.output.decode() == dumps(extended_vandermonde_doc(U, V, T, q, gamma)),
                "file differs from the extended-Vandermonde document for its (q, gamma)")
        view = SchemeDoc(doc)
        require(all(sum(col) % q == 0 for col in zip(*view.rows)), "columns do not sum to zero")
        require(len(view.rows[0]) == n, "H does not have n_source columns")

        rng = random.Random(f"{self.seed}-{r.command.name}")
        for _ in range(MDS_SAMPLES):
            subset = rng.sample(view.rows, n)
            require(rank(subset, q) == n, "singular n x n submatrix: not MDS")
        leaks = 0
        for tset in sample_collusion_sets(U, V, T, rng, LEAK_SAMPLES):
            m = view.server_rows(tset)
            leaks += rank(m, q) < len(m)
        self.leaks[r.command.name] = leaks
        self.server_leaks_sampled = sum(self.leaks.values())
        return sha256(r.output)


def _violations(report: dict) -> list[tuple]:
    return [
        (v["kind"], v["relay"], tuple(tuple(t) for t in v["collusion"]),
         v["observed_rank"], v["required_rank"])
        for v in report["violations"]
    ]


def _report_digest(report: dict) -> str:
    stable = {k: v for k, v in report.items() if k != "checks_performed"}
    return sha256(json.dumps(stable, sort_keys=True).encode())


class Audit(Workload):
    CONFIG, Q, GAMMA = (4, 3, 4), 23, 2

    def __init__(self, seed, indir):
        super().__init__(seed, indir)
        doc = extended_vandermonde_doc(*self.CONFIG, self.Q, self.GAMMA)
        a = random_invertible(self.Q, source_rate(*self.CONFIG), random.Random(seed))
        self.docs = {"certified": doc, "external": external_copy(doc, a)}
        self.files = [self.write(f"{name}.json", d) for name, d in self.docs.items()]
        self.commands = [
            Command(f"audit-{name}", ["audit", "--scheme", str(path)], ok_exits=(0, 5))
            for name, path in zip(self.docs, self.files)
        ]

    def check_one(self, r):
        report = json.loads(r.stdout)
        found = _violations(report)
        require((r.exit == 5) == bool(found), f"exit {r.exit} with {len(found)} violations")
        require(report["relay_ok"] == all(v[0] != "relay" for v in found), "relay_ok mismatch")
        require(report["server_ok"] == all(v[0] != "server" for v in found), "server_ok mismatch")
        require([v[:3] for v in found] == AUDIT_434_VIOLATIONS,
                f"violations {[v[:3] for v in found]} != the known ten server leaks")

        view = SchemeDoc(self.docs[r.command.name.split("-")[1]])
        for kind, relay, tset, observed, required in found:
            m = view.relay_rows(relay, tset) if kind == "relay" else view.server_rows(tset)
            require((rank(m, view.q), len(m)) == (observed, required),
                    f"{kind} {tset}: reported rank {observed}/{required}")
        rng = random.Random(f"{self.seed}-{r.command.name}")
        for tset in sample_collusion_sets(*self.CONFIG, rng, AUDIT_SAMPLES):
            listed = {(kind, relay) for kind, relay, t, _, _ in found if t == tset}
            require(view.deficient(tset) == listed, f"{tset}: audit and re-rank disagree")
        return _report_digest(report)

    def check_pass(self, results):
        first, second = (_violations(json.loads(r.stdout)) for r in results)
        require(first == second, "the two equivalent files gave different violations")


class Exact(Workload):
    U, V, T, Q, GAMMA = 3, 1, 1, 5, 2

    def __init__(self, seed, indir):
        super().__init__(seed, indir)
        U, V, T, q = self.U, self.V, self.T, self.Q
        doc = extended_vandermonde_doc(U, V, T, q, self.GAMMA)
        a = random_invertible(q, source_rate(U, V, T), random.Random(seed))
        self.files = [self.write("external.json", external_copy(doc, a))]
        self.commands = [Command("audit-exact", ["audit", "--scheme", str(self.files[0]), "--exact"])]

    def check_one(self, r):
        U, V, T, q = self.U, self.V, self.T, self.Q
        report = json.loads(r.stdout)
        require(report["relay_ok"] and report["server_ok"] and not report["violations"],
                "rank audit did not pass")
        verdicts = report["exact_checks"]
        sets = sum(math.comb(U * V, t) for t in range(T + 1))
        require(len(verdicts) == (U + 1) * sets, f"{len(verdicts)} exact verdicts")
        tuples = q ** (U * V + source_rate(U, V, T))
        for v in verdicts:
            require(v["passed"], f"exact check failed: {v}")
            require(v["tuples_enumerated"] == tuples, f"{v['tuples_enumerated']} tuples")
        return _report_digest(report)


class Simulate(Workload):
    U, V, T, Q, GAMMA, L = 6, 3, 5, 103, 8, 5000

    def __init__(self, seed, indir):
        super().__init__(seed, indir)
        doc = extended_vandermonde_doc(self.U, self.V, self.T, self.Q, self.GAMMA)
        self.files = [self.write("scheme.json", doc)]
        self.commands = [Command(
            "simulate",
            ["simulate", "--scheme", str(self.files[0]), "--L", str(self.L),
             "--seed", str(seed), "--transcript", "transcript.json", "--json"],
            output="transcript.json",
        )]

    def check_one(self, r):
        q, L = self.Q, self.L
        printed = json.loads(r.stdout)
        n = source_rate(self.U, self.V, self.T)
        require(printed["rates"] == {"R_X": 1, "R_Y": 1, "R_Z": 1, "R_Zsigma": n},
                f"rates {printed['rates']}")
        t = json.loads(r.output)
        require(t["L"] == L and t["seed"] == self.seed, "transcript L or seed")
        labels = [f"{u},{v}" for u, v in users(self.U, self.V)]
        require(sorted(t["W"]) == sorted(labels) == sorted(t["X"]), "transcript users")
        require(all(len(t["W"][k]) == L and len(t["X"][k]) == L for k in labels), "lengths")
        total = [sum(col) % q for col in zip(*t["W"].values())]
        require(t["decoded"] == total, "decoded != sum of W")
        require(printed["decoded"] == total, "printed decoded != sum of W")
        for u in range(1, self.U + 1):
            cluster = [t["X"][f"{u},{v}"] for v in range(1, self.V + 1)]
            require(t["Y"][str(u)] == [sum(col) % q for col in zip(*cluster)],
                    f"Y_{u} != sum of its cluster's X")
        return sha256(r.output)


WORKLOADS = {"build": Build, "audit": Audit, "exact": Exact, "simulate": Simulate}


# ---------------------------------------------------------------------------
# Running commands in isolation
# ---------------------------------------------------------------------------


class Runner:
    """Runs one process at a time, each in a fresh sandbox under ``work``."""

    def __init__(self, work: Path, deadline: float, with_reference: bool):
        self.work = work
        self.deadline = deadline
        self.with_reference = with_reference
        self._last_reference: float | None = None

    def sandbox(self) -> Path:
        box = Path(tempfile.mkdtemp(dir=self.work))
        for sub in ("cwd", "home", "cache"):
            (box / sub).mkdir()
        return box

    def spawn(self, argv: list[str], box: Path):
        """Run argv in box/cwd; return (exit or None on timeout, wall_s, rusage)."""
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC),
            "HOME": str(box / "home"),
            "XDG_CACHE_HOME": str(box / "cache"),
        }
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - perf_counter())
        killed = []
        with open(box / "stdout", "wb") as out, open(box / "stderr", "wb") as err:
            if timeout <= 0:
                return None, 0.0, None
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=box / "cwd", env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)

            def kill():
                killed.append(True)
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (None if killed else proc.returncode), wall, usage

    def bracketed(self, measure):
        """Call measure() between two runs of reference.py; return its value and their mean.

        Consecutive measurements share the reference run between them.
        """
        before = self._last_reference
        if before is None:
            before = self.reference()
        value = measure()
        self._last_reference = self.reference()
        return value, (before + self._last_reference) / 2

    def run(self, cmd: Command) -> Result:
        if not self.with_reference:
            return self._run(cmd)
        r, r_ref = self.bracketed(lambda: self._run(cmd))
        r.reference_s = r_ref
        return r

    def _run(self, cmd: Command) -> Result:
        box = self.sandbox()
        try:
            code, wall, usage = self.spawn([sys.executable, "-m", "hsagg.cli", *cmd.argv], box)
            r = Result(cmd, code, wall)
            if usage is not None:
                r.cpu_s = usage.ru_utime + usage.ru_stime
                r.rss_mb = usage.ru_maxrss / 1024
            r.stdout = (box / "stdout").read_text()
            if code is None:
                r.problems.append("timed out")
            elif cmd.output and (box / "cwd" / cmd.output).is_file():
                r.output = (box / "cwd" / cmd.output).read_bytes()
            return r
        finally:
            shutil.rmtree(box)

    def script(self, name: str, *args: str) -> tuple[float, str]:
        """Wall time and stdout of a fresh interpreter running one of the benchmark's scripts."""
        box = self.sandbox()
        try:
            code, wall, _ = self.spawn([sys.executable, str(BENCH / name), *args], box)
            if code != 0:
                raise RuntimeError(f"{name} failed: {(box / 'stderr').read_text()}")
            return wall, (box / "stdout").read_text().strip()
        finally:
            shutil.rmtree(box)

    def probe(self, files: list[Path]) -> tuple[float, str]:
        """Set-up probe: import the CLI and load the input files."""
        return self.script("load_inputs.py", *map(str, files))

    def reference(self) -> float:
        wall, out = self.script("reference.py")
        if out != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference.py printed {out!r}, not {REFERENCE_OUTPUT!r}")
        return wall

    def traced(self, commands: list[Command]) -> tuple[list[Result], dict]:
        """One pass in a single traced process; returns results and the trace."""
        box = self.sandbox()
        try:
            dirs = [box / f"cmd{i}" for i in range(len(commands))]
            for d in dirs:
                d.mkdir()
            spec = {"commands": [{"argv": c.argv, "cwd": str(d)} for c, d in zip(commands, dirs)]}
            (box / "spec.json").write_text(json.dumps(spec))
            code, _, _ = self.spawn(
                [sys.executable, str(BENCH / "tracer.py"), str(box / "spec.json"),
                 str(box / "trace.json")], box)
            if code != 0:
                raise RuntimeError(f"traced run failed: {(box / 'stderr').read_text()}")
            trace = json.loads((box / "trace.json").read_text())
            results = []
            for c, d, rec in zip(commands, dirs, trace.pop("commands")):
                r = Result(c, rec["exit"], rec["wall_s"], stdout=rec["stdout"])
                if c.output and (d / c.output).is_file():
                    r.output = (d / c.output).read_bytes()
                results.append(r)
            return results, trace
        finally:
            shutil.rmtree(box)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def layer_metrics(trace: dict, untraced: list[Result], workload: Workload,
                  start_s: float) -> dict:
    """Per-layer values; ``start_s`` is a fresh interpreter's start plus import of the CLI."""
    stats, c = trace["stats"], trace["counters"]

    def calls(name):
        return stats[name][0]

    def total(name):
        return stats[name][1]

    def self_time(prefix):
        return sum(s[2] for name, s in stats.items() if name.startswith(prefix + "."))

    gammas = c.get("search.gammas_tried", 0)
    exact_s = total("security.exact")
    traced_wall = sum(r["end"] - r["start"] for r in trace["spans"] if r["name"] == "cli.main")
    traced_wall += start_s * len(untraced)
    values = {
        "cli.startup_s": trace["startup_s"],
        "cli.self_s": stats["cli.main"][2],
        "cli.wait_s": sum(r.wall_s - r.cpu_s for r in untraced),
        "schemes.self_s": self_time("schemes"),
        "fields.self_s": self_time("fields"),
        "security.self_s": self_time("security"),
        "protocol.self_s": self_time("protocol"),
        "schemes.import_scheme.calls": calls("schemes.import_scheme"),
        "schemes.import_scheme.s": total("schemes.import_scheme"),
        "fields.for_prime.calls": calls("fields.for_prime"),
        "fields.for_prime.s": total("fields.for_prime"),
        "schemes.search_gamma.calls": calls("schemes.search_gamma"),
        "schemes.search_gamma.s": total("schemes.search_gamma"),
        "schemes.gammas_tried": gammas,
        "schemes.search_yield": c.get("search.certified", 0) / gammas if gammas else 0.0,
        "fields.subdet.calls": calls("fields.subdet"),
        "fields.subdet.s": total("fields.subdet"),
        "schemes.scheme_to_json.s": total("schemes.scheme_to_json"),
        "fields.rank.calls": calls("fields.rank"),
        "fields.rank.rows": c.get("rank.rows", 0),
        "fields.rank.s": total("fields.rank"),
        "fields.from_rows.calls": calls("fields.from_rows"),
        "fields.from_rows.s": total("fields.from_rows"),
        "security.audit.certified_s": c.get("audit.certified_s", 0.0),
        "security.audit.external_s": c.get("audit.external_s", 0.0),
        "security.exact.calls": calls("security.exact"),
        "security.exact.tuples": c.get("exact.tuples", 0),
        "security.exact.s": exact_s,
        "security.exact.tuples_per_s": c.get("exact.tuples", 0) / exact_s if exact_s else 0.0,
        "schemes.derive_keys.calls": calls("schemes.derive_keys"),
        "schemes.derive_keys.s": total("schemes.derive_keys"),
        "fields.dot.calls": calls("fields.dot"),
        "fields.dot.s": total("fields.dot"),
        "protocol.sample_round.s": total("protocol.sample_round"),
        "protocol.run_round.s": total("protocol.run_round"),
        "protocol.measure_rates.s": total("protocol.measure_rates"),
        "protocol.symbols": c.get("protocol.symbols", 0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - sum(r.wall_s for r in untraced),
        "schemes.build.server_leaks_sampled": workload.server_leaks_sampled,
    }
    for kind in ("relay", "server"):
        values[f"security.{kind}.checks"] = c.get(f"{kind}.checks", 0)
        values[f"security.{kind}.s"] = c.get(f"{kind}.build_s", 0.0) + c.get(f"{kind}.rank_s", 0.0)
        values[f"security.{kind}.rank_s"] = c.get(f"{kind}.rank_s", 0.0)
        values[f"security.{kind}.violations"] = c.get(f"{kind}.violations", 0)
    return values


def check_passes(workload: Workload, passes: list[list[Result]]) -> None:
    """Check the first pass in full; later passes must repeat its outputs byte for byte."""
    workload.check(passes[0])
    for results in passes[1:]:
        for first, r in zip(passes[0], results):
            if r.problems:
                continue
            if r.exit != first.exit:
                r.problems.append(f"exit {r.exit} differs from the first pass ({first.exit})")
                continue
            if r.output == first.output and r.stdout == first.stdout:
                r.digest = first.digest
            else:
                r.problems.append("output differs from the first pass on the same inputs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    if not (SRC / "hsagg" / "cli.py").is_file():
        print(f"error: no hsagg sources under {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        runner = Runner(work, started + RUN_DEADLINE_S, with_reference=not args.trace)
        indir = work / "inputs"
        indir.mkdir()
        workload = WORKLOADS[args.workload](args.seed, indir)

        # Untimed first import: compiles the bytecode cache, as installing would.
        _, imported = runner.probe(workload.files)
        if not imported.startswith(str(SRC)):
            raise RuntimeError(f"imported hsagg from {imported}, not from {SRC}")

        # Set-up probes run between passes, so they sample the same stretch of
        # host speed as the passes do.
        def setup_probe():
            return runner.bracketed(lambda: runner.probe(workload.files)[0])

        setup, passes = [], []  # setup: (probe_s, reference_s) pairs
        t0 = perf_counter()
        while True:
            p0 = perf_counter()
            if not args.trace:
                setup.append(setup_probe())
            passes.append([runner.run(c) for c in workload.commands])
            elapsed, last = perf_counter() - t0, perf_counter() - p0
            if args.trace or elapsed + last > args.seconds:
                break
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(setup_probe())
        check_passes(workload, passes)

        trace = None
        if args.trace:
            start_s = statistics.median(runner.probe([])[0] for _ in range(3))
            traced, trace = runner.traced(workload.commands)
            workload.check(traced)
            passes.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in passes for r in p]
    attempted = len(results)
    failed = sum(1 for r in results if r.problems)
    untraced = passes[:-1] if args.trace else passes
    per_command = list(zip(*untraced))  # one tuple of results per command
    wall_s = sum(statistics.median(r.wall_s for r in rs) for rs in per_command)
    rss = [max(r.rss_mb for r in p) for p in untraced]

    if args.trace:
        values = layer_metrics(trace, untraced[0], workload, start_s)
        names = spec["per_layer"]
    else:
        # Each command's median ratio to the reference runs around it, summed
        # over the workload's commands.
        wall_ref = sum(statistics.median(r.wall_s / r.reference_s for r in rs)
                       for rs in per_command)
        values = {
            "wall_ref": wall_ref,
            "setup_s": statistics.median(s / ref for s, ref in setup) * REFERENCE_S,
            "peak_rss_mb": statistics.median(rss),
            "ok_ratio": (attempted - failed) / attempted,
        }
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    info = machine()
    print(f"hsagg benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={info['python']} nproc={info['nproc']} cpu={info['cpu_model']!r}")
    for i, p in enumerate(passes, 1):
        label = "traced" if args.trace and i == len(passes) else f"pass {i}"
        for r in p:
            status = "; ".join(r.problems) or "ok"
            print(f"  {label:7} {r.command.name:16} exit={r.exit} wall={r.wall_s:.3f} s "
                  f"rss={r.rss_mb:.1f} MB sha256={(r.digest or '-')[:16]} {status}")
    if not args.trace:
        print(f"  unscaled medians: wall_s={wall_s:.4f} s  "
              f"setup_probe_s={statistics.median(s for s, _ in setup):.4f} s  "
              f"reference_s={statistics.median(ref for _, ref in setup):.4f} s")
        print(f"  wall_ref={values['wall_ref']:.4f} ref  setup_s={values['setup_s']:.4f} s  "
              f"peak_rss_mb={values['peak_rss_mb']:.1f} MB  "
              f"fail_ratio={failed / attempted:.4f} ratio ({failed}/{attempted} commands)")

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info,
        "commands": [
            {"pass": i, "name": r.command.name, "argv": r.command.argv, "exit": r.exit,
             "wall_s": r.wall_s, "reference_s": r.reference_s, "cpu_s": r.cpu_s,
             "rss_mb": r.rss_mb, "sha256": r.digest, "problems": r.problems}
            for i, p in enumerate(passes, 1) for r in p
        ],
        "digests": {r.command.name: r.digest for r in passes[0]},
        "setup_probes": [{"probe_s": s, "reference_s": ref} for s, ref in setup],
        "wall_s": wall_s,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "trace": trace,
    }, indent=1) + "\n")
    print(f"  results: {out.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
