"""cyarith benchmark: CLI workloads in fresh processes, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src``.
A run repeats whole rounds of its workload's CLI calls while another round
still fits in ``--seconds`` (at least one round).  Each call is a fresh
process started through ``launch.py``, timed from fork to exit with its
rusage from ``wait4``.  With ``--trace 0`` the calls are plain ``python -m
cyarith.cli`` processes, a few ``import cyarith.cli`` processes on both
sides of each round time the start-up, and the end-to-end metrics named
in BENCHMARK.json are printed.  With ``--trace 1`` each round runs
untraced and once more through ``tracer.py``, and the per-layer metrics
are printed.

Every output is checked against ``checks``/``oracle``.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; all
samples and spans go to ``bench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracle
import tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
COMMON = ("--json", "--deterministic", "--jobs", "1")
RUN_LIMIT_S = 170.0          # every run must end within 180 s
IMPORTS_EACH_SIDE = 2        # imports timed for setup_s before and after each round
ORACLE_FIELD_LIMIT = 2000    # oracle counts over F_{p^r} only while p^r <= this

QUINTIC = (5, 5, 5, 5, 5)
QUINTIC_ARGS = ("-d", "5", "-n", "3")
COLD_PRIMES = (2, 3, 11, 31, 41, 61, 71, 101)
WARM_PRIMES = (11, 31, 41, 61)
CUBIC = (3, 3, 3)
CUBIC_TOP = 71
HECKE_M, HECKE_A, HECKE_CUTOFF = 5, (1, 1, 1, 1), 200


class BenchError(Exception):
    """The benchmark cannot produce a result (no source tree, set-up failed)."""


# -- one round of a workload ----------------------------------------------------------


@dataclass
class Ctx:
    """What a check may look at besides the JSON the call printed."""

    stderr: str
    new_cache_entries: int       # cache files created or rewritten by the call
    outputs: list                # payloads of earlier calls in the same round


@dataclass
class Step:
    args: tuple[str, ...]                        # CLI arguments before COMMON
    check: Callable[[dict, Ctx], list[str]]
    setup: bool = False                          # timed into setup_s, never traced


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _shuffled(rng: random.Random, xs) -> list:
    xs = list(xs)
    rng.shuffle(xs)
    return xs


def _quintic_zeta(primes, cache: Path, counts: dict, setup: bool = False) -> Step:
    return Step(("zeta", *QUINTIC_ARGS, "-p", _csv(primes), "--cache", str(cache)),
                lambda out, ctx: checks.check_zeta(out, QUINTIC, primes, (), counts,
                                                   ctx.new_cache_entries),
                setup=setup)


def _cold_round(rng, cache, exp):
    return [_quintic_zeta(_shuffled(rng, COLD_PRIMES), cache, exp)]


def _warm_round(rng, cache, exp):
    primes = _shuffled(rng, WARM_PRIMES)
    return [_quintic_zeta(_shuffled(rng, WARM_PRIMES), cache, exp, setup=True),
            Step(("match", *QUINTIC_ARGS, "-p", _csv(primes), "--cache", str(cache)),
                 lambda out, ctx: checks.check_match(out, QUINTIC, primes,
                                                     ctx.new_cache_entries == 0, ctx.stderr))]


def _hecke_round(rng, cache, exp):
    return [Step(("hecke", "-m", str(HECKE_M), "--a", _csv(HECKE_A),
                  "--cutoff", str(HECKE_CUTOFF)),
                 lambda out, ctx: checks.check_hecke(out, HECKE_M, HECKE_A,
                                                     HECKE_CUTOFF, exp))]


def _cubic_primes() -> list[int]:
    return [p for p in range(2, CUBIC_TOP + 1) if oracle.is_prime(p) and p != 3]


def _cubic_round(rng, cache, exp):
    spec = ("--exponents", _csv(CUBIC), "-p", f"2..{CUBIC_TOP}")
    primes = _cubic_primes()
    return [Step(("zeta", *spec, "--no-cache"),
                 lambda out, ctx: checks.check_zeta(out, CUBIC, primes, [3], exp)),
            Step(("count", *spec, "-r", "2"),
                 lambda out, ctx: checks.check_count(out, CUBIC, primes, 2, exp,
                                                     ctx.outputs[0] if ctx.outputs else None))]


def _cold_expected() -> dict:
    return {(p, r): oracle.projective_count(QUINTIC, p, r)
            for p in COLD_PRIMES for r in (1, 2, 3) if r == 1 or p ** r <= ORACLE_FIELD_LIMIT}


def _cubic_expected() -> dict:
    exp = {}
    for p in _cubic_primes():
        exp[(p, 1)] = oracle.brute_projective_count(CUBIC, p)
        exp[(p, 2)] = oracle.projective_count(CUBIC, p, 2)
    return exp


@dataclass
class Workload:
    name: str
    expected: Callable[[], object]     # oracle values, computed once per run, untimed
    round: Callable[[random.Random, Path, object], list[Step]]


WORKLOADS = {w.name: w for w in (
    Workload("quintic-zeta-cold", _cold_expected, _cold_round),
    Workload("quintic-match-warm", _cold_expected, _warm_round),
    Workload("hecke-character",
             lambda: oracle.hecke_coefficients(HECKE_M, HECKE_A, HECKE_CUTOFF), _hecke_round),
    Workload("cubic-curve", _cubic_expected, _cubic_round),
)}


# -- processes --------------------------------------------------------------------------


@dataclass
class Ran:
    """One finished process as the launcher saw it."""

    wall_s: float
    cpu_s: float
    maxrss_mib: float
    floor_mib: float | None      # the launcher's peak RSS; maxrss_mib cannot read below it
    exit: int
    out: Path
    err: Path


@dataclass
class Proc:
    kind: str                    # "import", "setup", "measured" or "traced"
    round: int
    args: list[str]
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    floor_mib: float | None
    exit: int
    problems: list[str] = field(default_factory=list)
    wrong: bool = False          # exited 0 but printed a wrong or unreadable answer

    @property
    def failed(self) -> bool:
        return self.exit != 0 or bool(self.problems)


def _cache_snapshot(cache: Path) -> dict[str, tuple[int, int]]:
    if not cache.is_dir():
        return {}
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns)
            for e in cache.iterdir() if e.is_file()}


class Spawner:
    """Starts each process through ``launch.py`` with the package on
    PYTHONPATH, in a scratch directory, stdout and stderr to files.  The
    launcher is a small interpreter, so the max-RSS it reports is the
    command's own and not this process's (see launch.py)."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CYARITH_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.n = 0

    def run(self, argv: list[str]) -> Ran:
        self.n += 1
        out = self.workdir / f"p{self.n}.out"
        err = self.workdir / f"p{self.n}.err"
        usage = self.workdir / f"p{self.n}.usage.json"
        cmd = [sys.executable, "-S", "-I", str(BENCH_DIR / "launch.py"), str(usage), "--", *argv]
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=self.workdir, env=self.env)
            killer = threading.Timer(timeout, proc.terminate)   # the launcher kills the command
            killer.start()
            try:
                code = proc.wait()
            except BaseException:       # interrupted: leave no process behind
                proc.terminate()
                proc.wait()
                raise
            finally:
                killer.cancel()
        try:
            u = json.loads(usage.read_text())
        except (OSError, ValueError):
            raise BenchError(f"launch.py exited {code} without a record for {argv}")
        floor = u["floor_kib"] / 1024 if u["floor_kib"] is not None else None
        return Ran(u["wall_s"], u["utime_s"] + u["stime_s"], u["maxrss_kib"] / 1024, floor,
                   u["exit"], out, err)


# -- metrics from spans ---------------------------------------------------------------------


def span_stats(doc: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, time_s (outermost spans of that name only, so
    recursion is not counted twice), self_s (minus direct children) and the
    summed size attributes."""
    spans = {s["id"]: s for s in doc["spans"]}
    child = defaultdict(float)
    for s in spans.values():
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans.values():
        dur = s["end"] - s["start"]
        st = stats[s["name"]]
        st["calls"] += 1
        st["self_s"] += dur - child[s["id"]]
        anc = s["parent"]
        while anc is not None and spans[anc]["name"] != s["name"]:
            anc = spans[anc]["parent"]
        if anc is None:
            st["time_s"] += dur
        for key in ("elements", "cells", "orbits"):
            if key in s:
                st[key] += s[key]
    return stats


COUNT_KINDS = ("calls", "elements", "cells", "orbits", "hits", "misses", "discards",
               "bytes_written")


def layer_metrics(traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round from its calls' records
    ({doc, stderr, requested, bytes_written, cached})."""
    out: dict[str, float] = defaultdict(float)
    out["trace.overhead_est_s"] = 0.0
    misses = requested = 0
    for t in traced:
        for name, st in span_stats(t["doc"]).items():
            for key, val in st.items():
                out[f"{name}.{key}"] += val
        for name, n in t["doc"]["counts"].items():
            out[f"{name}.calls"] += n
        if t["cached"]:
            requested += t["requested"]
            misses += sum(1 for s in t["doc"]["spans"]
                          if s["name"] == "zeta.local_factor_middle"
                          and s["via"] == "cyarith.cli" and not s.get("capped"))
        cal = t["doc"].get("calibration")
        if cal:
            out["trace.overhead_est_s"] += (len(t["doc"]["spans"]) * cal["span_s"]
                                            + sum(t["doc"]["counts"].values()) * cal["count_s"])
        out["cli.cache.discards"] += t["stderr"].count("discarding corrupt cache entry")
        out["cli.cache.bytes_written"] += t["bytes_written"]
    out["cli.cache.misses"] = misses
    out["cli.cache.hits"] = requested - misses
    return out


def _is_count(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in COUNT_KINDS


# -- the run ------------------------------------------------------------------------------


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this VM's
    CPUs (the steal column of /proc/stat); None where it cannot be read."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine() -> dict:
    mem = None
    try:
        with open("/proc/meminfo") as fh:
            mem = next(line.split()[1] for line in fh if line.startswith("MemTotal"))
    except (OSError, StopIteration):
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "cpus": os.cpu_count(),
            "mem_total_kib": int(mem) if mem else None}


def _play(steps: list[Step], spawner: Spawner, cache: Path, rnd: int, tracing: bool):
    """Run one round's calls in order and check each; returns the processes
    and, for traced calls, their span records ({doc, stderr, requested,
    bytes_written, cached})."""
    py = sys.executable
    workdir = spawner.workdir
    procs: list[Proc] = []
    traced: list[dict] = []
    outputs: list = []
    for op, step in enumerate(steps):
        argv = [*step.args, *COMMON]
        traced_call = tracing and not step.setup
        spans_path = workdir / f"spans{rnd}_{op}.json"
        cmd = ([py, str(BENCH_DIR / "tracer.py"), "--spans", str(spans_path),
                "--op", str(op), "--", *argv] if traced_call
               else [py, "-m", "cyarith.cli", *argv])
        before = _cache_snapshot(cache)
        ran = spawner.run(cmd)
        after = _cache_snapshot(cache)
        changed = [k for k, v in after.items() if before.get(k) != v]
        kind = "setup" if step.setup else ("traced" if traced_call else "measured")
        proc = Proc(kind, rnd, argv, ran.wall_s, ran.cpu_s, ran.maxrss_mib, ran.floor_mib,
                    ran.exit)
        stderr = ran.err.read_text(errors="replace")
        payload = None
        if ran.exit != 0:
            proc.problems.append(f"exit {ran.exit}: {stderr.strip()[-300:]}")
        else:
            try:
                payload = json.loads(ran.out.read_text())
            except ValueError:
                proc.problems.append("stdout is not JSON")
                proc.wrong = True
            else:
                proc.problems += step.check(payload, Ctx(stderr, len(changed), outputs))
                proc.wrong = bool(proc.problems)
        outputs.append(payload)
        procs.append(proc)
        if step.setup and proc.failed:
            raise BenchError(f"set-up call {argv} failed: {proc.problems}")
        if traced_call:
            doc = json.loads(spans_path.read_text()) if spans_path.exists() else {
                "spans": [], "counts": {}, "absent": []}
            traced.append({"doc": doc, "stderr": stderr, "cached": "--cache" in argv,
                           "requested": len((payload or {}).get("results", [])),
                           "bytes_written": sum(after[k][0] for k in changed)})
    return procs, traced


def _import(spawner: Spawner, rnd: int) -> Proc:
    ran = spawner.run([sys.executable, "-c", "import cyarith.cli"])
    if ran.exit != 0:
        raise BenchError(f"import cyarith.cli failed: {ran.err.read_text()[-400:]}")
    return Proc("import", rnd, ["import cyarith.cli"], ran.wall_s, ran.cpu_s,
                ran.maxrss_mib, ran.floor_mib, ran.exit)


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    start = time.perf_counter()
    spawner = Spawner(workdir, start + RUN_LIMIT_S)
    rng = random.Random(seed)
    exp = workload.expected()
    procs: list[Proc] = []
    layer_rounds: list[dict] = []
    spans_all: list[dict] = []
    absent: set[str] = set()
    t0 = time.perf_counter()
    rnd = 0
    while True:
        round_start = time.perf_counter()
        if trace:
            # each round runs untraced and traced, in alternating order, so the
            # overhead is a difference between calls seconds apart
            for tracing in ((False, True) if rnd % 2 == 0 else (True, False)):
                cache = workdir / f"cache{rnd}{'t' if tracing else 'u'}"
                cache.mkdir()
                ps, traced = _play(workload.round(rng, cache, exp), spawner, cache, rnd, tracing)
                procs += ps
                if tracing:
                    layer_rounds.append(layer_metrics(traced))
                    for t in traced:
                        absent.update(t["doc"]["absent"])
                        spans_all += [dict(s, round=rnd) for s in t["doc"]["spans"]]
        else:
            # import samples on both sides of every round: the host's speed
            # changes within seconds, and spread out they see what the rounds see
            procs += [_import(spawner, rnd) for _ in range(IMPORTS_EACH_SIDE)]
            cache = workdir / f"cache{rnd}"
            cache.mkdir()
            procs += _play(workload.round(rng, cache, exp), spawner, cache, rnd, False)[0]
            procs += [_import(spawner, rnd) for _ in range(IMPORTS_EACH_SIDE)]
        rnd += 1
        # another round starts only if one of the same length still ends in
        # time, so a slower machine runs fewer rounds rather than longer runs
        now = time.perf_counter()
        last = now - round_start
        if now + last - t0 > seconds or now + 1.5 * last > start + RUN_LIMIT_S:
            break

    ops = [p for p in procs if p.kind in ("measured", "traced")]
    metrics = end_to_end(procs) if not trace else per_layer(procs, layer_rounds)
    return {"procs": procs, "ops": ops, "metrics": metrics, "rounds": rnd,
            "absent": sorted(absent), "spans": spans_all,
            "counts_repeat": all(_counts(r) == _counts(layer_rounds[0]) for r in layer_rounds)}


def _counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if _is_count(k)}


def _round_sums(procs: list[Proc], kind: str) -> dict[int, tuple[float, float]]:
    """Per round: summed wall and CPU time of the processes of one kind."""
    sums: dict[int, tuple[float, float]] = {}
    for p in procs:
        if p.kind == kind:
            w, c = sums.get(p.round, (0.0, 0.0))
            sums[p.round] = (w + p.wall_s, c + p.cpu_s)
    return sums


def end_to_end(procs: list[Proc]) -> dict[str, float]:
    rounds = _round_sums(procs, "measured").values()
    imports = [p.wall_s for p in procs if p.kind == "import"]
    setups = [p.wall_s for p in procs if p.kind == "setup"]
    return {"wall_s": statistics.median(w for w, _ in rounds),
            "cpu_s": statistics.median(c for _, c in rounds),
            "peak_rss_mib": max(p.maxrss_mib for p in procs if p.kind == "measured"),
            "setup_s": statistics.median(imports) + (statistics.median(setups) if setups else 0.0)}


def per_layer(procs: list[Proc], layer_rounds: list[dict]) -> dict[str, float]:
    """Counts from the first traced round (they repeat exactly), times as
    the median over traced rounds, and the tracing overhead: the median over
    rounds of traced minus untraced wall (and CPU) time of the same calls."""
    names = set().union(*layer_rounds)
    out = {}
    for name in names:
        vals = [r.get(name, 0) for r in layer_rounds]
        out[name] = int(vals[0]) if _is_count(name) else statistics.median(vals)
    untraced, traced = _round_sums(procs, "measured"), _round_sums(procs, "traced")
    out["trace.overhead_s"] = statistics.median(traced[r][0] - untraced[r][0] for r in traced)
    out["trace.overhead_cpu_s"] = statistics.median(traced[r][1] - untraced[r][1]
                                                    for r in traced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cyarith CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cyarith" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no cyarith source tree under {SRC} (run from a checkout root)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]

    (BENCH_DIR / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=BENCH_DIR / "work"))
    steal_before = steal_s()
    try:
        res = run(WORKLOADS[ns.workload], ns.seed, ns.seconds, bool(ns.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a traced function that was never called left no spans: its counts and times are 0
    traced_names = {f"{mod.removeprefix('cyarith.')}.{q}" for mod, q, _ in tracer.TARGETS}
    traced_names |= {name for _, _, name in tracer.COUNTED}
    for m in wanted:
        if ns.trace and m["name"].rsplit(".", 1)[0] in traced_names:
            res["metrics"].setdefault(m["name"], 0 if _is_count(m["name"]) else 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    steal_after = steal_s()
    ops = res["ops"]
    result = {"correct": not any(p.wrong for p in ops),
              "attempted": len(ops),
              "failed": sum(p.failed for p in ops),
              "metrics": metrics}

    # a max-RSS no higher than the launcher's own says nothing about the command
    at_floor = [" ".join(p.args) for p in ops
                if p.floor_mib is not None and p.maxrss_mib <= p.floor_mib]

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
              "trace": ns.trace, "machine": machine(), "rounds": res["rounds"],
              "host_steal_s": (None if steal_before is None or steal_after is None
                               else steal_after - steal_before),
              "result": result, "all_metrics": res["metrics"],
              "absent": res["absent"], "counts_repeat": res["counts_repeat"],
              "harness_maxrss_mib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "at_floor": at_floor,
              "processes": [vars(p) for p in res["procs"]],
              "spans": res["spans"]}
    (out_dir / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for p in ops:
        if p.problems:
            print(f"FAILED round {p.round} {' '.join(p.args)}: {p.problems[:3]}", file=sys.stderr)
    if res["absent"]:
        print(f"absent from the program (reported as 0): {res['absent']}", file=sys.stderr)
    if at_floor:
        print(f"warning: max-RSS at the launcher's floor for {at_floor}", file=sys.stderr)
    if not res["counts_repeat"]:
        print("warning: per-layer counts differ between traced rounds", file=sys.stderr)
    print(f"{ns.workload}: {res['rounds']} rounds, {result['attempted']} calls, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, m in metrics.items():
        print(f"  {name:<40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
