"""The checks against real CLI output, corrupted output, and the results file."""

import copy
import json
import os
import subprocess
import sys
import time

import pytest

import checks
import oracle
import run

CUBIC_PRIMES = [2, 5, 7, 11, 13]


def _cli(*args):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out = subprocess.run([sys.executable, "-m", "cyarith.cli", *args, *run.COMMON],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def cubic_outputs():
    spec = ("--exponents", "3,3,3", "-p", "2..13")
    counts = {(p, r): oracle.projective_count((3, 3, 3), p, r)
              for p in CUBIC_PRIMES for r in (1, 2)}
    return _cli("zeta", *spec, "--no-cache"), _cli("count", *spec, "-r", "2"), counts


@pytest.fixture(scope="module")
def quintic_p11(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    out = _cli("zeta", "-d", "5", "-n", "3", "-p", "11", "--cache", str(cache))
    counts = {(11, r): oracle.projective_count((5,) * 5, 11, r) for r in (1, 2, 3)}
    return out, counts


def test_oracle_cross_check_cubic(cubic_outputs):
    zeta, count, counts = cubic_outputs
    assert checks.check_zeta(zeta, (3, 3, 3), CUBIC_PRIMES, [3], counts) == []
    assert checks.check_count(count, (3, 3, 3), CUBIC_PRIMES, 2, counts, zeta) == []


def test_oracle_cross_check_quintic(quintic_p11):
    out, counts = quintic_p11
    assert checks.check_zeta(out, (5,) * 5, [11], (), counts, new_cache_entries=1) == []


def test_oracle_cross_check_hecke():
    out = _cli("hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "40")
    expected = oracle.hecke_coefficients(5, (1, 1, 1, 1), 40)
    assert checks.check_hecke(out, 5, (1, 1, 1, 1), 40, expected) == []


def test_flipped_factor_coefficient_is_caught(quintic_p11):
    out, counts = quintic_p11
    bad = copy.deepcopy(out)
    c = bad["results"][0]["coefficients"]
    c[7] = str(int(c[7]) + 1)
    assert checks.check_zeta(bad, (5,) * 5, [11], (), counts, new_cache_entries=1)


def test_wrong_count_is_caught(cubic_outputs):
    zeta, count, counts = cubic_outputs
    bad = copy.deepcopy(count)
    row = bad["counts"][1]
    row["projective_points"] = str(int(row["projective_points"]) + 1)
    assert checks.check_count(bad, (3, 3, 3), CUBIC_PRIMES, 2, counts, zeta)


def test_unmatched_or_missed_cache_is_caught():
    good = {"exponents": [5] * 5,
            "results": [{"p": 11, "m": 5, "ideals": 4, "orbit_reps": 51,
                         "multiset_size": 204, "matched": True, "sign": 1}]}
    assert checks.check_match(good, (5,) * 5, [11], True, "") == []
    bad = copy.deepcopy(good)
    bad["results"][0]["matched"] = False
    assert checks.check_match(bad, (5,) * 5, [11], True, "")
    assert checks.check_match(good, (5,) * 5, [11], False, "")


def _main(capsys, *args):
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reaches_the_results_file(capsys, trace, key):
    seed = 990000 + trace
    result = _main(capsys, "--workload", "hecke-character", "--seed", str(seed),
                   "--seconds", "0", "--trace", str(trace))
    path = run.BENCH_DIR / "results" / f"hecke-character-seed{seed}-trace{trace}.json"
    try:
        record = json.loads(path.read_text())
    finally:
        path.unlink()
    names = [m["name"] for m in _spec()[key]]
    assert sorted(record["result"]["metrics"]) == sorted(names)
    assert sorted(result["metrics"]) == sorted(names)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(p["exit"] == 0 for p in record["processes"])


def test_wrong_a_n_counts_as_failed_operation(capsys, monkeypatch):
    real = run.Spawner.run

    def corrupting(self, argv):
        ran = real(self, argv)
        if "hecke" in argv:
            payload = json.loads(ran.out.read_text())
            payload["coefficients"][10] = str(int(payload["coefficients"][10]) + 5)
            ran.out.write_text(json.dumps(payload))
        return ran

    monkeypatch.setattr(run.Spawner, "run", corrupting)
    seed = 990002
    result = _main(capsys, "--workload", "hecke-character", "--seed", str(seed),
                   "--seconds", "0", "--trace", "0")
    (run.BENCH_DIR / "results" / f"hecke-character-seed{seed}-trace0.json").unlink()
    assert result["failed"] == result["attempted"] == 1
    assert result["correct"] is False


def test_max_rss_is_the_command_own(tmp_path):
    ballast = b"\x01" * (100 * 2 ** 20)     # raise this process's peak RSS by 100 MiB
    ran = run.Spawner(tmp_path, time.perf_counter() + 60).run([sys.executable, "-c", "pass"])
    assert ran.exit == 0 and len(ballast)
    assert ran.maxrss_mib < 60
    assert ran.floor_mib is not None and ran.floor_mib < 60


def test_a_call_past_the_deadline_is_killed(tmp_path):
    t0 = time.perf_counter()
    ran = run.Spawner(tmp_path, t0 + 1).run(["sleep", "30"])
    assert ran.exit == -9
    assert time.perf_counter() - t0 < 10


def test_refuses_to_run_without_a_source_tree(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in ("run.py", "checks.py", "oracle.py", "tracer.py"):
        (bench / f).write_text((run.BENCH_DIR / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hecke-character",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracer_spans_and_absent_targets():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(run.BENCH_DIR)!r})\n"
        "import tracer\n"
        "tracer.TARGETS += (('cyarith.zeta', 'renamed_away', None), ('cyarith.gone', 'f', None))\n"
        "rec = tracer.Recorder(0)\n"
        "absent = tracer.install(rec)\n"
        "import cyarith.cli\n"
        "code = cyarith.cli.run(['zeta', '--exponents', '3,3,3', '-p', '7', '--no-cache',\n"
        "                        '--json', '--jobs', '1'])\n"
        "print(json.dumps({'absent': absent, 'exit': code, 'counts': rec.counts,\n"
        "                  'spans': rec.spans}))\n")
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["exit"] == 0
    assert doc["absent"] == ["zeta.renamed_away", "gone.f"]
    stats = run.span_stats(doc)
    assert stats["cli.run"]["calls"] == 1
    assert stats["zeta.local_factor_middle"]["calls"] == 1
    assert stats["counting.class_histogram"]["cells"] == 6 ** 2      # (q-1)^s at q=7
    assert doc["counts"]["cyclo.CycInt.mul"] > 0
    via = {s["via"] for s in doc["spans"] if s["name"] == "zeta.local_factor_middle"}
    assert via == {"cyarith.cli"}
