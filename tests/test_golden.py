"""Byte-for-byte pins of `--deterministic` CLI output.

Each file under tests/golden/ holds the output of one command below,
`python -m cyarith.cli <command> --deterministic --jobs 1 --no-cache`, with
`--json` appended when the command names no output format.  The JSON pins
were written by the enumeration-based Jacobi sums that preceded the
two-variable recursion, the count pins by the additive convolution that
preceded Weil's formula, and the cutoff-300 L-series pin by the
per-coefficient CycInt expansion that preceded the Galois norm classes, and
the cft pins by the float Verlinde sum and float unit match that preceded
the integer ones, and the pins of every subcommand x format pair by the
writer that built each output as one string before the streaming one.  A
refactor must reproduce every one exactly.
"""

from pathlib import Path

import pytest

from cyarith.cli import run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN = {
    "jacobi_quintic_p11_orbits": "jacobi -d 5 -n 3 -p 11 --orbits",
    "jacobi_cubic_p2_r2": "jacobi --exponents 3,3,3 -p 2 -r 2",
    "jacobi_236_p7": "jacobi --exponents 2,3,6 -p 7",
    "zeta_quintic_p2_11": "zeta -d 5 -n 3 -p 2,11",
    "zeta_quintic_p7_truncated": "zeta -d 5 -n 3 -p 7 --max-root-field 100",
    "match_quintic_p11": "match -d 5 -n 3 -p 11",
    "hecke_m5_cutoff100": "hecke -m 5 --a 1,1,1,1 --cutoff 100",
    "lseries_quintic_cutoff30": "lseries -d 5 -n 3 --cutoff 30",
    "lseries_quintic_cutoff300": "lseries -d 5 -n 3 --cutoff 300",
    "count_cubic_p2_13_r2": "count --exponents 3,3,3 -p 2..13 -r 2",
    "count_quintic_p2_13_r2": "count -d 5 -n 3 -p 2..13 -r 2",
    "lseries_quintic_cutoff30_eval_csv": "lseries -d 5 -n 3 --cutoff 30 --csv",
    "lseries_quintic_cutoff30_eval_table":
        "lseries -d 5 -n 3 --cutoff 30 --eval-at 3.5 --table",
    "hecke_m5_cutoff100_eval_csv": "hecke -m 5 --a 1,1,1,1 --cutoff 100 --csv",
    "hecke_m5_cutoff100_table": "hecke -m 5 --a 1,1,1,1 --cutoff 100 --table",
    "cft_fusion_level4": "cft --fusion --level 4",
    "cft_fusion_field_level5_table": "cft --fusion-field --level 5 --table",
    # every subcommand x format pair, pinned before the writer streamed them
    "zeta_quintic_p2_11_capped_table": "zeta -d 5 -n 3 -p 2..11 --max-root-field 100 --table",
    "zeta_quintic_p2_11_capped_csv": "zeta -d 5 -n 3 -p 2..11 --max-root-field 100 --csv",
    "count_cubic_p2_13_r2_table": "count --exponents 3,3,3 -p 2..13 -r 2 --table",
    "count_cubic_p2_13_r2_csv": "count --exponents 3,3,3 -p 2..13 -r 2 --csv",
    "jacobi_236_p7_csv": "jacobi --exponents 2,3,6 -p 7 --csv",
    "jacobi_236_p7_table": "jacobi --exponents 2,3,6 -p 7 --table",
    "match_quintic_p2_11_table": "match -d 5 -n 3 -p 2..11 --table",
    "cyclo_units_m7": "cyclo -m 7 --units",
    "cyclo_units_m7_table": "cyclo -m 7 --units --table",
    "cyclo_delta_p2_13": "cyclo --delta -p 2..13",
    "cyclo_delta_p2_13_table": "cyclo --delta -p 2..13 --table",
    "cyclo_s_element_m12": "cyclo -m 12 --a 1,5,6 --s-element",
    "cyclo_s_element_m12_table": "cyclo -m 12 --a 1,5,6 --s-element --table",
    "cft_spectrum_level3_csv": "cft --spectrum --level 3 --csv",
    "cft_check_kr_level3_table": "cft --check kr --level 3 --table",
    "cft_gepner_table": "cft --gepner --table",
    "lseries_quintic_cutoff30_eval": "lseries -d 5 -n 3 --cutoff 30 --eval-at 3.5",
}

SUFFIX = {"--json": "json", "--csv": "csv", "--table": "txt"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, capsys):
    argv = GOLDEN[name].split()
    if not any(a in SUFFIX for a in argv):
        argv.append("--json")
    [fmt] = [a for a in argv if a in SUFFIX]
    assert run(argv + ["--deterministic", "--jobs", "1", "--no-cache"]) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN_DIR / f"{name}.{SUFFIX[fmt]}").read_bytes()


@pytest.mark.parametrize("name", ["zeta_quintic_p2_11", "zeta_quintic_p2_11_capped_csv",
                                  "cft_gepner_table"])
def test_out_file_holds_the_stdout_bytes(name, capsys, tmp_path):
    # one pin per format: --out writes exactly what stdout would
    argv = GOLDEN[name].split()
    if not any(a in SUFFIX for a in argv):
        argv.append("--json")
    [fmt] = [a for a in argv if a in SUFFIX]
    target = tmp_path / "out"
    assert run(argv + ["--deterministic", "--jobs", "1", "--no-cache",
                       "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (GOLDEN_DIR / f"{name}.{SUFFIX[fmt]}").read_bytes()


@pytest.mark.parametrize("name", ["zeta_quintic_p2_11", "match_quintic_p11"])
def test_golden_output_through_cache(name, capsys, caplog, tmp_path):
    # a cold run fills the cache, a warm run reads every factor back through
    # the load checks without rewriting it; both must print the --no-cache pin
    argv = GOLDEN[name].split() + ["--json", "--deterministic", "--jobs", "1",
                                   "--cache", str(tmp_path)]
    golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert run(argv) == 0 and capsys.readouterr().out.encode() == golden
    stored = {e: e.stat().st_mtime_ns for e in tmp_path.iterdir()}
    assert run(argv) == 0 and capsys.readouterr().out.encode() == golden
    assert stored and stored == {e: e.stat().st_mtime_ns for e in tmp_path.iterdir()}
    assert "discarding" not in caplog.text


def test_cold_and_warm_zeta_range_then_warm_match(capsys, caplog, tmp_path):
    # p = 2..31 reaches the f = 2 primes 19 and 29, which the pins above do
    # not; the match then reads its p = 11 factor from the filled cache
    cache = ["--json", "--deterministic", "--jobs", "1", "--cache", str(tmp_path)]
    argv = "zeta -d 5 -n 3 -p 2..31".split() + cache
    assert run(argv) == 0
    cold = capsys.readouterr().out
    stored = {e: e.stat().st_mtime_ns for e in tmp_path.iterdir()}
    assert run(argv) == 0 and capsys.readouterr().out == cold
    assert stored and stored == {e: e.stat().st_mtime_ns for e in tmp_path.iterdir()}
    assert run("match -d 5 -n 3 -p 11".split() + cache) == 0
    golden = (GOLDEN_DIR / "match_quintic_p11.json").read_bytes()
    assert capsys.readouterr().out.encode() == golden
    assert "discarding" not in caplog.text
