"""Command-line interface: exit codes, output formats, schemas, caching."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from datetime import datetime, timedelta
from fractions import Fraction
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from cyarith import DiagonalVariety, cache
from cyarith.cli import run
from cyarith.commands import common
from cyarith.errors import ValidationError

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _json_out(capsys, argv):
    code = run(argv + ["--json", "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def _validate(name, payload):
    jsonschema.Draft202012Validator(_schema(name)).validate(payload)


@pytest.mark.parametrize("path", sorted(SCHEMA_DIR.glob("*.schema.json")), ids=lambda p: p.name)
def test_schema_files_are_valid_schemas(path):
    # _validate trusts each schema; a malformed one must not land
    jsonschema.Draft202012Validator.check_schema(json.loads(path.read_text()))


def test_count_json(capsys):
    doc = _json_out(capsys, ["count", "-d", "5", "-n", "3", "-p", "11"])
    _validate("count", doc)
    assert doc["counts"][0]["projective_points"] == "1925"


def test_count_quintic_past_convolution_cap(capsys):
    doc = _json_out(capsys, ["count", "-d", "5", "-n", "3", "-p", "101", "-r", "2"])
    assert doc["counts"][0]["projective_points"] == "1061585385175"


def test_count_bad_prime_strict(capsys):
    assert run(["count", "-d", "5", "-n", "3", "-p", "5"]) == 1
    err = capsys.readouterr().err
    assert "bad reduction" in err


def test_strict_prime_list_refuses_repeats(capsys):
    for cmd in (["count", "-d", "5", "-n", "3"], ["zeta", "-d", "3", "-n", "1"],
                ["match", "-d", "5", "-n", "3"]):
        assert run(cmd + ["-p", "11,31,11", "--no-cache"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "p=11 is listed more than once" in out.err


def test_lseries_cutoff_beyond_table_bound(capsys):
    # conductor 6 has no closed form, so a p = 1 mod 6 reads F_p's table:
    # 100003 is tabulated, and 1048609, the first such p above 2^20, is not
    doc = _json_out(capsys, ["count", "--exponents", "2,3,6", "-p", "100003"])
    assert doc["counts"][0]["projective_points"] == "100636"
    doc = _json_out(capsys, ["zeta", "--exponents", "2,3,6", "-p", "100003", "--no-cache"])
    assert doc["results"][0]["predicted_counts"]["1"] == "100636"
    message = "p=1048609 needs a table of F_1048609 (degree 1), beyond the table bound 1048576"
    for argv in (["lseries", "--exponents", "2,3,6", "--cutoff", "1050000"],
                 ["count", "--exponents", "2,3,6", "-p", "1048609"]):
        assert run(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and message in out.err


def test_split_prime_past_prime_field_bound(capsys):
    # the quintic's split primes need no F_p table: complete factor, match
    # and count, which agrees with the factor's N_1
    doc = _json_out(capsys, ["zeta", "-d", "5", "-n", "3", "-p", "100151", "--no-cache"])
    [res] = doc["results"]
    assert res["degree"] == 204 and len(res["coefficients"]) == 205
    assert "precision" not in res and res["functional_sign"] in (1, -1)
    assert res["predicted_counts"]["1"] == "1004547121621675"
    doc = _json_out(capsys, ["match", "-d", "5", "-n", "3", "-p", "100151", "--no-cache"])
    assert doc["results"][0]["multiset_size"] == 204
    doc = _json_out(capsys, ["count", "-d", "5", "-n", "3", "-p", "100151"])
    assert doc["counts"][0]["projective_points"] == "1004547121621675"
    # gcd(3, p - 1) = 1: no character tuple, so no sum and no table
    doc = _json_out(capsys, ["count", "--exponents", "3,3,3", "-p", "100151"])
    assert doc["counts"][0]["projective_points"] == "100152"
    # over F_{p^5} the generator search would trial-divide Phi_5(p) ~ 10^20:
    # refused at once
    assert run(["count", "-d", "5", "-n", "3", "-p", "100151", "-r", "5"]) == 1
    assert "beyond the factoring bound" in capsys.readouterr().err


def test_count_range_skips_bad(capsys):
    doc = _json_out(capsys, ["count", "-d", "5", "-n", "3", "-p", "2..12"])
    assert doc["skipped_bad_primes"] == [5]
    assert [r["p"] for r in doc["counts"]] == [2, 3, 7, 11]


def test_a_prime_range_is_trial_divided_once_per_layer(capsys, monkeypatch):
    # every module that binds is_prime counts into one list: 70 calls scan
    # 2..71, 19 come from local_factor_middle's check_good_prime and 27 from
    # field_order, and good_primes adds none: the exponents alone decide a
    # proven prime
    import cyarith.charsum as charsum
    import cyarith.ffield as ffield

    calls = []
    is_prime = ffield.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    for module in (ffield, charsum):
        monkeypatch.setattr(module, "is_prime", counted)
        for memo in vars(module).values():      # earlier tests' memos skip some calls
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
    doc = _json_out(capsys, ["zeta", "--exponents", "3,3,3", "-p", "2..71", "--no-cache",
                             "--jobs", "1"])
    assert doc["skipped_bad_primes"] == [3]
    assert len(calls) == 116


def test_count_range_without_good_prime_exits_1(capsys):
    assert run(["count", "-d", "3", "-n", "1", "-p", "3..3"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "no good primes in the requested set" in out.err


def test_unknown_flag_exits_1(capsys):
    assert run(["count", "-d", "5", "-n", "3", "-p", "11", "--bogus"]) == 1
    assert run(["nonsense"]) == 1


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert run(["zeta", "--help"]) == 0


def test_jobs_help_says_only_zeta_uses_workers(capsys):
    # every subcommand takes --jobs, and its help says which one reads it
    assert run(["hecke", "--help"]) == 0
    assert ("--jobs W parallel workers across primes for zeta (default the CPU count); "
            "the other subcommands run serially") in " ".join(capsys.readouterr().out.split())


def test_missing_variety(capsys):
    assert run(["count", "-p", "11"]) == 1
    assert run(["count", "-d", "5", "-p", "11"]) == 1     # -n required with -d
    assert run(["count", "-d", "5", "-n", "2", "--exponents", "5,5,5,5,5",
                "-p", "11"]) == 1                          # inconsistent pair


QUINTIC = ["-d", "5", "-n", "3"]

REFUSALS = {
    "non-prime": (["count", *QUINTIC, "-p", "11,12"], "12 is not prime"),
    "empty-range": (["count", *QUINTIC, "-p", "5..3"], "empty or invalid prime range '5..3'"),
    "bad-range": (["count", *QUINTIC, "-p", "2..x"], "cannot parse prime range '2..x'"),
    "no-prime": (["count", *QUINTIC], "at least one prime required (-p)"),
    "exponent-count": (["count", "--exponents", "5,5,5", "-n", "2", "-p", "11"],
                       "exponent count 3 inconsistent with dimension 2 (need n+2 = 4)"),
    "two-formats": (["count", *QUINTIC, "-p", "11", "--json", "--csv"],
                    "pick at most one of --json / --csv / --table"),
    "jobs": (["count", *QUINTIC, "-p", "11", "--jobs", "x"],
             "argument --jobs: invalid int value: 'x'"),
    "jacobi-two-primes": (["jacobi", *QUINTIC, "-p", "11,31"],
                          "jacobi wants exactly one good prime"),
    # (4,4,4,4,4)/5 does not head its orbit under p = 2, (1,1,1,1,1)/5 does:
    # the pair would print a non-representative as a representative
    "jacobi-alpha-orbits": (["jacobi", *QUINTIC, "-p", "2", "--alpha", "4,4,4,4,4",
                             "--den", "5", "--orbits"],
                            "--alpha and --orbits do not combine: --orbits lists the "
                            "orbit representatives of the whole degree set"),
    "zeta-no-good-prime": (["zeta", *QUINTIC, "-p", "5..5", "--no-cache"],
                           "no good primes in the requested set"),
    "lseries-cutoff": (["lseries", *QUINTIC], "lseries needs --cutoff"),
    "hecke-cutoff": (["hecke", "-m", "5", "--a", "1,1,1,1"], "hecke needs --cutoff"),
    "cyclo-no-action": (["cyclo", "-m", "5"],
                        "pick exactly one of --units / --delta / --s-element"),
    "cyclo-two-actions": (["cyclo", "-m", "5", "--units", "--delta", "-p", "11"],
                          "pick exactly one of --units / --delta / --s-element"),
    "units-conductor": (["cyclo", "--units"], "--units needs -m/--conductor"),
    "delta-prime": (["cyclo", "--delta"], "--delta needs -p"),
    "s-element-vector": (["cyclo", "-m", "5", "--s-element"],
                         "--s-element needs -m/--conductor and --a"),
    "cft-no-action": (["cft", "--level", "3"], "pick exactly one of --spectrum / --check"
                      " / --fusion / --fusion-field / --gepner"),
    "spectrum-level": (["cft", "--spectrum"], "cft needs --level for this action"),
    "kn-row": (["cft", "--level", "3", "--check", "kn"], "--check kn needs --m"),
    "match-bad-prime": (["match", *QUINTIC, "-p", "5"],
                        "5 divides an exponent of (5, 5, 5, 5, 5)"),
    "match-non-prime": (["match", *QUINTIC, "-p", "21"], "21 is not prime"),
    "match-inert": (["match", *QUINTIC, "-p", "7", "--no-cache"],
                    "p=7 is not split (f=4); match needs p = 1 mod 5"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_input_exits_1(capsys, case):
    argv, message = REFUSALS[case]
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


# one run of each subcommand, keyed by its schema
STAMPED = {
    "count": ["count", "-d", "3", "-n", "1", "-p", "7"],
    "jacobi": ["jacobi", "-d", "3", "-n", "1", "-p", "7"],
    "zeta": ["zeta", "-d", "3", "-n", "1", "-p", "7", "--no-cache"],
    "lseries": ["lseries", "-d", "3", "-n", "1", "--cutoff", "30"],
    "hecke": ["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "31"],
    "match": ["match", "-d", "3", "-n", "1", "-p", "7", "--no-cache"],
    "cyclo": ["cyclo", "-m", "5", "--units"],
    "cft": ["cft", "--level", "3", "--spectrum"],
}


@pytest.mark.parametrize("schema", STAMPED)
def test_json_without_deterministic_is_stamped(capsys, schema):
    # the one difference from --deterministic is an ISO-8601 UTC generated_at
    argv = STAMPED[schema] + ["--json"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(schema, doc)
    stamp = doc.pop("generated_at")
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    assert datetime.fromisoformat(stamp).utcoffset() == timedelta(0)
    assert run(argv + ["--deterministic"]) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_jacobi_json(capsys):
    doc = _json_out(capsys, ["jacobi", "-d", "5", "-n", "3", "-p", "11",
                             "--alpha", "1,1,1,1,1"])
    _validate("jacobi", doc)
    e = doc["jacobi_sums"][0]
    assert e["norm_check"] is True
    assert e["conductor"] == 5


def test_jacobi_alpha_outside_degree_set(capsys):
    # wrong arity, and an entry denominator (6) not dividing its exponent (3)
    assert run(["jacobi", "-d", "5", "-n", "3", "-p", "11", "--alpha", "1,1,1,2"]) == 1
    assert run(["jacobi", "--exponents", "3,3,3", "-p", "7", "--alpha", "1,2,3",
                "--den", "6"]) == 1


def test_jacobi_lifts_extension(capsys):
    # order-5 characters need F_16 at p=2; picked up without an explicit -r
    doc = _json_out(capsys, ["jacobi", "-d", "5", "-n", "3", "-p", "2",
                             "--orbits"])
    _validate("jacobi", doc)
    assert doc["q"] == 16
    assert len(doc["jacobi_sums"]) == 51
    assert all(e["norm_check"] for e in doc["jacobi_sums"])


def test_jacobi_den_zero_refused(capsys):
    # --den 0 used to be read as the default denominator and exit 0
    assert run(["jacobi", "-d", "3", "-n", "1", "-p", "7", "--alpha", "1,1,1",
                "--den", "0", "--json"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "denominator must be at least 2" in out.err


def test_jacobi_ramified_conductor(capsys):
    # 11/55 = 1/5: the lift follows the tuple's conductor 5, not --den 55
    doc = _json_out(capsys, ["jacobi", "-d", "5", "-n", "3", "-p", "11",
                             "--alpha", "11,11,11,11,11", "--den", "55"])
    ref = _json_out(capsys, ["jacobi", "-d", "5", "-n", "3", "-p", "11",
                             "--alpha", "1,1,1,1,1"])
    assert doc["q"] == ref["q"] == 11
    [e], [e_ref] = doc["jacobi_sums"], ref["jacobi_sums"]
    assert e["conductor"] == 5
    assert e["coefficients"] == e_ref["coefficients"]


def test_zeta_json_schema(capsys, tmp_path):
    doc = _json_out(capsys, ["zeta", "-d", "5", "-n", "3", "-p", "11",
                             "--cache", str(tmp_path)])
    _validate("zeta", doc)
    r = doc["results"][0]
    assert r["degree"] == 204
    assert r["rh_pass"] is True
    assert r["functional_sign"] == 1
    assert r["coefficients"][:2] == ["1", "461"]
    assert r["predicted_counts"]["1"] == "1925"


def test_zeta_truncated_schema(capsys, tmp_path):
    doc = _json_out(capsys, ["zeta", "-d", "5", "-n", "3", "-p", "7",
                             "--max-root-field", "100", "--cache", str(tmp_path)])
    _validate("zeta", doc)
    r = doc["results"][0]
    assert r["precision"] == 3
    assert r["functional_sign"] is None
    assert r["degree"] == 204


def test_zeta_capacity_hint(capsys):
    # conductor 9 has no closed form, 11 has order 6 mod 9, and 11^6
    # exceeds the table bound: truncation past degree 5 would help
    assert run(["zeta", "--exponents", "9,9,9", "-p", "11", "--no-cache"]) == 1
    assert "F_1771561 (degree 6)" in (err := capsys.readouterr().err)
    assert "--max-root-field" in err


def test_zeta_prime_field_refusal_has_no_hint(capsys):
    # conductor 6 at p = 1 mod 6 above 2^20 needs F_p itself: truncating
    # would leave the factor 1, so the refusal suggests nothing
    assert run(["zeta", "--exponents", "2,3,6", "-p", "1048609", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "p=1048609 needs a table of F_1048609 (degree 1)" in err
    assert "--max-root-field" not in err


def test_cache_roundtrip_and_corruption(capsys, caplog, tmp_path):
    argv = ["zeta", "-d", "3", "-n", "1", "-p", "7", "--json", "--deterministic",
            "--cache", str(tmp_path)]
    assert run(argv) == 0
    first = capsys.readouterr().out
    entry = next(tmp_path.glob("*.json"))
    _validate("cache", json.loads(entry.read_text()))
    assert run(argv) == 0
    assert capsys.readouterr().out == first       # byte-identical reread

    rec = json.loads(entry.read_text())
    rec["data"]["classes"][0]["coefficients"][1] = "999"   # hash no longer matches
    entry.write_text(json.dumps(rec))
    assert run(argv) == 0
    assert capsys.readouterr().out == first       # recomputed, same answer
    assert "discarding corrupt cache entry" in caplog.text
    assert entry.exists()                         # rewritten after recompute


# the entry zeta -d 3 -n 1 -p 7 writes, byte for byte: format version 3,
# the one Galois class (J, f, n) alone
CUBIC_P7_ENTRY = (
    '{"format_version":3,'
    '"self_check":"09b00d1d37b274efd7b0dad21a2ccac4631c6ab755a1959f52e35798b5b1f7ec",'
    '"data":{"classes":[{"coefficients":["1","3"],"f":1,"m":3,"n":2}],'
    '"cohomology_degree":1,"exponents":[3,3,3],"full_degree":2,"p":7,"precision":null}}\n')

# the entry that format version 2 wrote for it, every root stored
CUBIC_P7_ENTRY_V2 = (
    '{"format_version":2,'
    '"self_check":"3c6ddad3381c487176239fc0ddb6d37046172721dcb489603ba3b62475b1f9fc",'
    '"data":{"cohomology_degree":1,"exponents":[3,3,3],'
    '"full_degree":2,"orbits":[{"coefficients":["1","3"],"count":1,"m":3},'
    '{"coefficients":["-2","-3"],"count":1,"m":3}],"p":7,"precision":null}}\n')

# the entry that format version 1 wrote for it, the coefficients stored too
CUBIC_P7_ENTRY_V1 = (
    '{"format_version":1,'
    '"self_check":"40edc109cfb8713c030ef7dbb7885eb826ee171140178eda0dccf693cce31c1c",'
    '"data":{"coefficients":["1","1","7"],"cohomology_degree":1,"exponents":[3,3,3],'
    '"full_degree":2,"orbits":[{"coefficients":["1","3"],"count":1,"m":3},'
    '{"coefficients":["-2","-3"],"count":1,"m":3}],"p":7,"precision":null}}\n')


def test_cache_entry_is_compact_and_the_indented_layout_loads(capsys, caplog, tmp_path):
    # store writes one compact line whose data is the blob the self-check
    # hashes; an entry in the earlier indent=1 layout loads as it stands
    argv = ["zeta", "-d", "3", "-n", "1", "-p", "7", "--json", "--deterministic",
            "--cache", str(tmp_path)]
    assert run(argv) == 0
    first = capsys.readouterr().out
    entry = cache.entry_path(tmp_path, (3, 3, 3), 7)
    text = entry.read_text()
    assert text == CUBIC_P7_ENTRY
    rec = json.loads(text)
    assert text == json.dumps(rec, separators=(",", ":")) + "\n"
    assert text.endswith(f'"data":{json.dumps(rec["data"], sort_keys=True, separators=(",", ":"))}}}\n')

    data = rec["data"]
    old = {"format_version": rec["format_version"], "self_check": rec["self_check"],
           "data": {"exponents": data["exponents"], "p": data["p"],
                    "cohomology_degree": data["cohomology_degree"],
                    "full_degree": data["full_degree"],
                    "classes": [{"m": c["m"], "f": c["f"], "n": c["n"],
                                 "coefficients": c["coefficients"]} for c in data["classes"]],
                    "precision": data["precision"]}}
    entry.write_text(json.dumps(old, indent=1) + "\n")
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert "discarding" not in caplog.text
    assert entry.read_text() == json.dumps(old, indent=1) + "\n"   # read, not rewritten


def test_cache_version_1_entry_is_discarded_once_and_rewritten(capsys, caplog, tmp_path):
    # an entry of an earlier format, 1 or 2, goes through the version check
    # like any other: discarded with a warning, recomputed, and stored as
    # version 3
    argv = ["zeta", "-d", "3", "-n", "1", "-p", "7", "--json", "--deterministic",
            "--cache", str(tmp_path)]
    assert run(argv[:-2] + ["--no-cache"]) == 0
    fresh = capsys.readouterr().out
    entry = cache.entry_path(tmp_path, (3, 3, 3), 7)
    for version, old in ((1, CUBIC_P7_ENTRY_V1), (2, CUBIC_P7_ENTRY_V2)):
        caplog.clear()
        entry.write_text(old)
        assert run(argv) == 0
        assert capsys.readouterr().out == fresh
        assert caplog.text.count("discarding") == 1
        assert f"discarding corrupt cache entry {entry}: format version {version}" in caplog.text
        assert entry.read_text() == CUBIC_P7_ENTRY
        caplog.clear()
        assert run(argv) == 0                     # the rewritten entry loads
        assert capsys.readouterr().out == fresh and "discarding" not in caplog.text


def test_cache_entry_holds_the_roots_alone(tmp_path):
    # the quintic at p = 101: 51 class heads of a few digits each, where the
    # factor's coefficients reach 614 digits (84,035 B with them stored,
    # 12,604 B with all 204 roots)
    lf = cache.local_factor(tmp_path, DiagonalVariety.fermat(5, 3), 101)
    entry = cache.entry_path(tmp_path, (5,) * 5, 101)
    data = json.loads(entry.read_text())["data"]
    assert "coefficients" not in data and len(data["classes"]) == 51
    assert max(len(str(abs(c))) for c in lf.coeffs) == 614
    assert entry.stat().st_size <= 4_000


def test_cache_self_check_is_hashlibs_sha256(tmp_path, quintic, quintic_lf11):
    import hashlib

    cache.store(tmp_path, quintic.exponents, quintic_lf11)
    rec = json.loads(cache.entry_path(tmp_path, quintic.exponents, 11).read_text())
    blob = cache._canonical(rec["data"])
    assert cache._sha256(blob) == rec["self_check"]
    for text in ("", "cyarith", blob):
        assert cache._sha256(text) == hashlib.sha256(text.encode()).hexdigest()


def _rehashed(entry, edit):
    """Apply edit to the entry's data and store it with a matching self-check."""
    rec = json.loads(entry.read_text())
    edit(rec["data"])
    rec["self_check"] = cache._record_hash(rec["data"])
    entry.write_text(json.dumps(rec))


def _bump_a_root(data):
    # 1 + 3 xi_3 to 1 + 4 xi_3, of norm 13: |J|^2 = 7 fails
    root = data["classes"][0]["coefficients"]
    root[-1] = str(int(root[-1]) + 1)


def _swap_the_head(data):
    # 1 + 3 xi_3 to 2 + 3 xi_3, another sum of norm 7: every check but
    # Iwasawa's congruence holds, and it would load as 1 - t + 7t^2
    data["classes"][0]["coefficients"] = ["2", "3"]


def _add_a_root(data):
    data["classes"][0]["n"] += 1


def _mark_truncated(data):
    data["precision"] = 1


@pytest.mark.parametrize("edit, reason", [(_bump_a_root, "|J|^2"),
                                          (_swap_the_head, "not 1 mod (1 - xi)^2"),
                                          (_add_a_root, "not whole copies"),
                                          (_mark_truncated, "truncated"),
                                          ("[]", "not a JSON object"),
                                          ("null", "not a JSON object")])
def test_cache_discards_tampered_but_rehashed_entry(capsys, caplog, tmp_path, edit, reason):
    # edit rewrites the data under a matching self-check, or, as a string,
    # replaces the whole entry
    argv = ["zeta", "-d", "3", "-n", "1", "-p", "7", "--json", "--deterministic",
            "--cache", str(tmp_path)]
    assert run(argv) == 0
    first = capsys.readouterr().out
    entry = cache.entry_path(tmp_path, (3, 3, 3), 7)
    if callable(edit):
        _rehashed(entry, edit)
    else:
        entry.write_text(edit)
    assert run(argv) == 0
    assert capsys.readouterr().out == first       # recomputed, not read back
    assert "discarding corrupt cache entry" in caplog.text and reason in caplog.text
    assert {r.name for r in caplog.records} == {"cyarith.cache"}
    lf = cache.load(tmp_path, (3, 3, 3), 7)       # the rewritten entry is the true one
    assert (lf.coeffs, lf.precision) == ((1, 1, 7), None)


def test_cache_discard_warning_on_stderr(tmp_path):
    # a fresh process prints the discard as "warning: ..." through logging
    argv = [sys.executable, "-m", "cyarith.cli", "zeta", "-d", "3", "-n", "1", "-p", "7",
            "--json", "--deterministic", "--jobs", "1", "--cache", str(tmp_path)]
    cold = subprocess.run(argv, capture_output=True, text=True)
    assert cold.returncode == 0 and cold.stderr == ""
    entry = cache.entry_path(tmp_path, (3, 3, 3), 7)
    _rehashed(entry, _bump_a_root)
    warm = subprocess.run(argv, capture_output=True, text=True)
    assert warm.returncode == 0 and warm.stdout == cold.stdout
    assert warm.stderr.startswith(f"warning: discarding corrupt cache entry {entry}: ")


def test_unusable_cache_path_exits_1(capsys, caplog, tmp_path):
    # a regular file as the cache directory, and a directory at the entry's
    # path: a clean exit 1 naming the entry, from the serial and the worker path
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    blocked = tmp_path / "blocked"
    cache.entry_path(blocked, (5, 5, 5, 5, 5), 11).mkdir(parents=True)
    for cache_dir, reason in ((not_a_dir, "File exists"), (blocked, "Is a directory")):
        for cmd in (["zeta", "--jobs", "1", "-p", "11"], ["zeta", "--jobs", "2", "-p", "11,31"],
                    ["match", "-p", "11"]):
            assert run(cmd + ["-d", "5", "-n", "3", "--cache", str(cache_dir)]) == 1
            out = capsys.readouterr()
            entry = cache.entry_path(cache_dir, (5, 5, 5, 5, 5), 11)
            assert out.out == "" and f"cannot write cache entry {entry}: " in out.err
            assert reason in out.err
    # the directory is not read as an entry: it is discarded, then recomputed
    assert "discarding corrupt cache entry" in caplog.text and "Is a directory" in caplog.text
    assert cache.entry_path(blocked, (5, 5, 5, 5, 5), 11).is_dir()


def test_zeta_refuses_negative_predict(capsys):
    argv = ["zeta", "-d", "5", "-n", "3", "-p", "11", "--no-cache"]
    assert run(argv + ["--predict", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "--predict must be at least 0, got -1" in out.err
    assert _json_out(capsys, argv + ["--predict", "0"])["results"][0]["predicted_counts"] == {}


def test_cache_discards_stale_version_and_misfiled_entry(capsys, caplog, tmp_path):
    argv = ["zeta", "-d", "3", "-n", "1", "-p", "7", "--json", "--deterministic",
            "--cache", str(tmp_path)]
    assert run(argv) == 0
    first = capsys.readouterr().out
    entry = cache.entry_path(tmp_path, (3, 3, 3), 7)

    rec = json.loads(entry.read_text())
    rec["format_version"] = cache.FORMAT_VERSION + 1      # written by another release
    entry.write_text(json.dumps(rec))
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert "discarding corrupt cache entry" in caplog.text
    assert json.loads(entry.read_text())["format_version"] == cache.FORMAT_VERSION

    # a valid, self-consistent entry for p = 13 filed under p = 7's name
    assert run(argv[:6] + ["13"] + argv[7:]) == 0
    capsys.readouterr()
    entry.write_text(cache.entry_path(tmp_path, (3, 3, 3), 13).read_text())
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert "different variety or prime" in caplog.text
    assert cache.load(tmp_path, (3, 3, 3), 7).p == 7      # recomputed and rewritten


def test_concurrent_cache_writers(tmp_path):
    from cyarith.zeta import local_factor_middle

    v = DiagonalVariety.fermat(3, 1)
    lf = local_factor_middle(v, 7)
    path = cache.entry_path(tmp_path, v.exponents, 7)
    start, errors = threading.Barrier(4), []

    def writer():
        start.wait()
        try:
            for _ in range(50):
                cache.store(tmp_path, v.exponents, lf)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
    loaded = cache.load(tmp_path, v.exponents, 7)
    assert (loaded.coeffs, loaded.classes) == (lf.coeffs, lf.classes)
    assert [x.name for x in tmp_path.iterdir()] == [path.name]


def test_cache_load_carries_functional_sign(tmp_path, quintic, quintic_lf11, quartic):
    # a load rebuilds the factor, so it checks the functional equation again
    from cyarith.zeta import local_factor_middle

    for v, lf, sign in ((quintic, quintic_lf11, 1),
                        (quartic, local_factor_middle(quartic, 5), -1)):
        cache.store(tmp_path, v.exponents, lf)
        assert lf.sign == cache.load(tmp_path, v.exponents, lf.p).sign == sign


def test_cache_local_factor_skips_capped_factors(tmp_path, monkeypatch, quintic, cubic):
    # a cap may truncate the factor, and a truncated factor is never cached
    lf = cache.local_factor(tmp_path, quintic, 7, max_root_field=100)
    assert lf.precision == 3
    assert list(tmp_path.iterdir()) == []
    monkeypatch.chdir(tmp_path)         # no cache directory: nothing written, not even ./cache
    assert cache.local_factor(None, cubic, 7).coeffs == (1, 1, 7)
    assert list(tmp_path.iterdir()) == []


def test_cache_local_factor_loads_without_rewriting(tmp_path, cubic):
    first = cache.local_factor(tmp_path, cubic, 7)
    entry = cache.entry_path(tmp_path, cubic.exponents, 7)
    inode = entry.stat().st_ino
    os.utime(entry, ns=(0, 0))
    again = cache.local_factor(tmp_path, cubic, 7)
    assert (again.coeffs, again.classes) == (first.coeffs, first.classes)
    # a store replaces the file: a new inode with a fresh mtime
    assert (entry.stat().st_ino, entry.stat().st_mtime_ns) == (inode, 0)
    assert [x.name for x in tmp_path.iterdir()] == [entry.name]


def test_cache_local_factor_unwritable_entry(tmp_path, cubic):
    blocked = cache.entry_path(tmp_path, cubic.exponents, 7)
    blocked.mkdir()
    with pytest.raises(ValidationError, match=re.escape(f"cannot write cache entry {blocked}: ")):
        cache.local_factor(tmp_path, cubic, 7)


def test_lseries_csv_and_eval(capsys):
    code = run(["lseries", "-d", "3", "-n", "1", "--cutoff", "20", "--csv",
                "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a_n"
    assert lines[1] == "1,1"
    doc = _json_out(capsys, ["lseries", "-d", "3", "-n", "1", "--cutoff", "20",
                             "--eval-at", "2.5"])
    _validate("lseries", doc)
    assert doc["partial_sum"]["s"] == 2.5


def test_hecke_table_eval(capsys):
    assert run(["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "31", "--table",
                "--eval-at", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("  sum a_n n^-s at s = 3.0: ")


def test_eval_at_csv_refused(capsys, monkeypatch):
    # CSV holds only n,a_n: --eval-at with it (the default) is an error,
    # raised before any coefficient is computed
    import cyarith.hecke as hecke

    def fail(*args):
        raise AssertionError("coefficients computed before the refusal")

    monkeypatch.setattr(hecke, "dirichlet_coefficients", fail)
    for argv in (["lseries", "-d", "3", "-n", "1", "--cutoff", "20", "--eval-at", "2.5"],
                 ["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "31", "--eval-at", "3",
                  "--csv"]):
        assert run(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and "--eval-at needs --json or --table" in out.err

def test_eval_at_non_finite_refused(capsys):
    # NaN and Infinity are not JSON: the partial sum refuses them, exit 1
    for value in ("nan", "inf"):
        for argv in (["lseries", "-d", "5", "-n", "3", "--cutoff", "10"],
                     ["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "31"]):
            assert run(argv + ["--eval-at", value, "--json", "--deterministic",
                               "--no-cache"]) == 1
            out = capsys.readouterr()
            assert out.out == "" and "is not a finite number" in out.err


def test_hecke_json(capsys):
    doc = _json_out(capsys, ["hecke", "-m", "5", "--a", "1,1,1,1",
                             "--cutoff", "31"])
    _validate("hecke", doc)
    assert doc["weight"] == 3
    assert doc["split_primes"] == [11, 31]


def test_match_json(capsys, tmp_path):
    doc = _json_out(capsys, ["match", "-d", "5", "-n", "3", "-p", "11",
                             "--cache", str(tmp_path)])
    _validate("match", doc)
    assert doc["results"][0]["matched"] is True
    assert doc["results"][0]["sign"] == 1


def test_match_table_states_the_product_only_where_it_holds(capsys):
    # the K3 quartic's class (2,2,2) mod 4 has one row, so 2 x 11 != 21
    assert run(["match", "--exponents", "4,4,4,4", "-p", "5,13", "--no-cache"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  p = 5      2 ideals, 11 orbits, 21 values  matched, sign +1",
        "  p = 13     2 ideals, 11 orbits, 21 values  matched, sign +1"]
    assert run(["match", "-d", "5", "-n", "3", "-p", "11", "--no-cache"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == \
        "  p = 11     4 ideals x 51 orbits = 204 values  matched, sign +1"


def test_match_range_skips_bad_and_non_split(capsys, tmp_path):
    # 2, 3, 7 are inert and 5 is bad; a strict list still refuses them
    doc = _json_out(capsys, ["match", "-d", "5", "-n", "3", "-p", "2..12", "--no-cache"])
    _validate("match", doc)
    assert [(r["p"], r["matched"]) for r in doc["results"]] == [(11, True)]
    for spec in ("2..10", "2,11", "5"):
        assert run(["match", "-d", "5", "-n", "3", "-p", spec, "--cache", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "no split primes" in err and "p=2 is not split" in err
    assert "bad reduction" in err or "divides an exponent" in err


def test_match_failure_exits_2(capsys, monkeypatch, tmp_path):
    # one Hecke-side sum swapped for another class's breaks Weil's
    # factorisation; the zeta factor is cached first, so the perturbed sums
    # reach the Hecke side only
    import cyarith.zeta as zeta
    argv = ["match", "-d", "5", "-n", "3", "-p", "11", "--cache", str(tmp_path)]
    assert run(argv) == 0
    capsys.readouterr()
    real = zeta.unit_sums

    def perturbed(field, rows):
        sums = real(field, rows)
        first = {sums[0].galois(l) for l in range(1, 5)}
        return [next(j for j in sums if j not in first)] + sums[1:]

    monkeypatch.setattr(zeta, "unit_sums", perturbed)
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "disagree at p=11" in out.err


def test_match_csv_refused(capsys):
    # match prints a table or JSON; --csv is an error, not a table
    assert run(["match", "-d", "5", "-n", "3", "-p", "11", "--csv"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "--csv is not available" in out.err


def test_cyclo_units_json(capsys):
    doc = _json_out(capsys, ["cyclo", "-m", "5", "--units"])
    _validate("cyclo", doc)
    mods = {u["j"]: u["modulus"] for u in doc["units"]}
    assert mods[2] == pytest.approx(1.618033988749895, rel=1e-12)
    doc = _json_out(capsys, ["cyclo", "-m", "6", "--units"])
    assert [u["j"] for u in doc["units"]] == [5]            # of 2..5, only 5 is prime to 6


def test_cyclo_units_conductor_below_two_refused(capsys):
    # -m 0 and -m 1 used to print an empty unit table and exit 0
    for m in ("0", "1"):
        assert run(["cyclo", "-m", m, "--units", "--json"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "conductor must be at least 2" in out.err


def test_cyclo_csv_refused(capsys):
    for action in (["-m", "5", "--units"], ["-p", "11", "--delta"],
                   ["-m", "5", "--a", "1,1,3", "--s-element"]):
        assert run(["cyclo", *action, "--csv"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "--csv is not available" in out.err


def test_cft_check_kn_json(capsys):
    doc = _json_out(capsys, ["cft", "--level", "3", "--check", "kn", "--m", "1"])
    _validate("cft", doc)
    assert doc["rhs"] == pytest.approx(4.2)
    assert doc["pass"] is True


def test_cft_check_table_format(capsys):
    assert run(["cft", "--level", "3", "--check", "kr", "--table"]) == 0
    assert "pass True" in capsys.readouterr().out
    assert run(["cft", "--level", "2", "--check", "kn", "--m", "1",
                "--table"]) == 0
    assert "skipped" in capsys.readouterr().out


@pytest.mark.parametrize("k", [1, 3, 10])
def test_cft_spectrum_formats(capsys, k):
    doc = _json_out(capsys, ["cft", "--level", str(k), "--spectrum"])
    _validate("cft", doc)
    entries = doc["entries"]
    # the chiral primaries (l, q = l, s = 0) have Delta = Q/2 = l/(2(k+2))
    chiral = {e["l"]: e for e in entries if e["q"] == e["l"] and e["s"] == 0}
    assert sorted(chiral) == list(range(k + 1))
    for l, e in chiral.items():
        delta = Fraction(e["delta"]["num"], e["delta"]["den"])
        charge = Fraction(e["charge"]["num"], e["charge"]["den"])
        assert delta == charge / 2 == Fraction(l, 2 * (k + 2))
    assert run(["cft", "--level", str(k), "--spectrum", "--csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["l", "q", "s", "delta_num", "delta_den", "Q_num", "Q_den"]
    assert rows[1:] == [[str(x) for x in (e["l"], e["q"], e["s"], e["delta"]["num"],
                                          e["delta"]["den"], e["charge"]["num"],
                                          e["charge"]["den"])] for e in entries]
    assert run(["cft", "--level", str(k), "--spectrum", "--table"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(entries)


def _perturb_rogers_L(monkeypatch):
    """A relative error of 1e-6 in L pushes the sum-rule residuals past 1e-9."""
    import cyarith.cft as cft
    real = cft.rogers_L
    monkeypatch.setattr(cft, "rogers_L", lambda x: real(x) * (1 + 1e-6))


def test_cft_kr_violation_exits_2(capsys, monkeypatch):
    _perturb_rogers_L(monkeypatch)
    assert run(["cft", "--level", "3", "--check", "kr"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "central charge sum rule residual" in out.err


def test_cft_kn_violation_exits_2(capsys, monkeypatch):
    _perturb_rogers_L(monkeypatch)
    assert run(["cft", "--level", "3", "--check", "kn", "--m", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "dilogarithm sum rule residual" in out.err


def test_cft_kn_m0_violation_names_the_central_charge_rule(capsys, monkeypatch):
    _perturb_rogers_L(monkeypatch)
    assert run(["cft", "--level", "3", "--check", "kn", "--m", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "central charge sum rule residual" in out.err


def test_cft_fusion_field_violation_exits_2(capsys, monkeypatch):
    import cyarith.cft as cft
    real = cft.cyclotomic_unit

    def off(m, j):
        exact, numeric = real(m, j)
        return exact + 1, numeric

    monkeypatch.setattr(cft, "cyclotomic_unit", off)
    assert run(["cft", "--level", "3", "--fusion-field"]) == 2
    assert "theta_1" in capsys.readouterr().err


def test_cft_verlinde_violation_exits_2(capsys, monkeypatch):
    import cyarith.cft as cft
    real = cft._character
    monkeypatch.setattr(cft, "_character", 
                        lambda l, n2: real(l, n2) + ([0] if l == 1 else []))
    assert run(["cft", "--level", "3", "--fusion"]) == 2
    assert "not equal and nonnegative" in capsys.readouterr().err


def test_jacobi_norm_failure_exits_2(capsys, monkeypatch):
    # charsum.jacobi_sums checks the sums that unit_sums returns, so the
    # stand-in goes under the check, not over it
    import cyarith.charsum as charsum
    import cyarith.hecke  # noqa: F401  (loaded first, so no module binds the stand-in)
    real = charsum.unit_sums
    monkeypatch.setattr(charsum, "unit_sums", lambda f, rows: [j + 1 for j in real(f, rows)])
    for fmt in ("--json", "--table"):
        assert run(["jacobi", "-d", "5", "-n", "3", "-p", "11", "--orbits", fmt]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "|J|^2 != 11^3" in out.err


def test_zeta_rh_failure_exits_2(capsys, monkeypatch):
    # doubled roots stay Galois-closed with an integral norm; only RH breaks
    import cyarith.zeta as zeta
    real = zeta.unit_sums
    monkeypatch.setattr(zeta, "unit_sums", lambda f, rows: [2 * j for j in real(f, rows)])
    assert run(["zeta", "-d", "3", "-n", "1", "-p", "7", "--no-cache"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "|J|^2 != 7^1" in out.err


def test_cyclo_delta_range_skips_small_primes(capsys):
    doc = _json_out(capsys, ["cyclo", "--delta", "-p", "2..20"])
    _validate("cyclo", doc)
    assert [r["p"] for r in doc["delta_determinants"]] == [5, 7, 11, 13, 17, 19]
    assert doc["skipped_primes"] == [2, 3]
    assert run(["cyclo", "--delta", "-p", "3..20", "--table"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  skipped primes below 5: [3]"
    doc = _json_out(capsys, ["cyclo", "--delta", "-p", "5,7"])
    _validate("cyclo", doc)
    assert doc["skipped_primes"] == []
    assert run(["cyclo", "--delta", "-p", "2..4"]) == 1
    assert "no prime p >= 5" in capsys.readouterr().err


def test_cyclo_delta_strict_list_refuses_small_primes(capsys):
    for spec in ("3", "3,7", "2"):
        assert run(["cyclo", "--delta", "-p", spec]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "need an odd prime p >= 5" in out.err


def test_cft_fusion_field_table_carries_unlabelled_entries(capsys):
    # at k = 2 the label l = 1 has gcd(2, 4) > 1 and no unit to match
    assert run(["cft", "--level", "2", "--fusion-field", "--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("= theta_1 (err 0.00e+00)")
    assert lines[2] == "  l = 1   d = 1.414213562373 (gcd(l+1, k+2) > 1, no unit)"


def test_cft_gepner(capsys):
    doc = _json_out(capsys, ["cft", "--gepner", "--central-charge", "3",
                             "--max-factors", "4"])
    _validate("cft", doc)
    assert [tuple(v) for v in doc["levels"]] == [(1, 4), (2, 2), (1, 1, 1)]


def test_cft_fusion_prints_only_json(capsys):
    for fmt in ("--table", "--csv"):
        assert run(["cft", "--level", "3", "--fusion", fmt]) == 1
        out = capsys.readouterr()
        assert out.out == "" and f"{fmt} is not available" in out.err
    assert _json_out(capsys, ["cft", "--level", "3", "--fusion"])["level"] == 3


def test_zeta_coefficients_past_the_int_str_limit(capsys, caplog, tmp_path):
    # degree 6,666 at p = 3, with coefficients of up to 6,361 digits: past
    # Python's 4,300-digit limit, in the printed JSON and in the cache entry
    limit = sys.get_int_max_str_digits()
    argv = ["zeta", "-d", "7", "-n", "4", "-p", "3", "--json", "--deterministic", "--jobs", "1"]
    assert run(argv + ["--no-cache"]) == 0
    printed = capsys.readouterr().out
    assert max(map(len, json.loads(printed)["results"][0]["coefficients"])) > 4300
    stamps = []
    for _ in ("cold", "warm"):
        assert run(argv + ["--cache", str(tmp_path)]) == 0
        assert capsys.readouterr().out == printed
        stamps.append({e: e.stat().st_mtime_ns for e in tmp_path.iterdir()})
    assert len(stamps[0]) == 1 and stamps[0] == stamps[1]     # the warm run loaded it
    assert "discarding" not in caplog.text
    assert sys.get_int_max_str_digits() == limit


def test_cache_round_trip_past_the_int_str_limit_in_library_code(caplog, tmp_path):
    # no run() here to lift Python's 4,300-digit limit: an entry holds the
    # roots alone, so store and load convert none of the expanded
    # coefficients to or from a string, and leave the caller's limit as it was
    limit = sys.get_int_max_str_digits()
    v = DiagonalVariety((7,) * 6)
    lf = cache.local_factor(tmp_path, v, 3)
    assert max(map(abs, lf.coeffs)) > 10 ** 4300
    loaded = cache.load(tmp_path, v.exponents, 3)
    assert loaded is not None and loaded.coeffs == lf.coeffs
    assert "discarding" not in caplog.text
    assert sys.get_int_max_str_digits() == limit


def test_out_file(tmp_path, capsys):
    target = tmp_path / "zeta.json"
    code = run(["zeta", "-d", "3", "-n", "1", "-p", "7", "--json",
                "--deterministic", "--no-cache", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    _validate("zeta", json.loads(target.read_text()))


def test_out_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert run(["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "30",
                "--out", str(target)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: cannot write --out {target}: ")
    assert not target.parent.exists()


QUINTIC_2_101 = ["zeta", *QUINTIC, "-p", "2..101", "--deterministic", "--no-cache",
                 "--jobs", "1"]
BATCH = 64 * 1024


class _WriteThrough:
    """A stdout on which every write would be a system call: it keeps the
    text of each write, or with lengths_only (under tracemalloc) its length."""

    def __init__(self, lengths_only=False):
        self.lengths_only, self.writes = lengths_only, []

    def write(self, text):
        self.writes.append(len(text) if self.lengths_only else text)
        return len(text)


def _emit_rise(*emit_args):
    """The tracemalloc peak that common.emit(*emit_args) reaches above what was
    live when it began, and the length of what it wrote.  csv is imported
    already (above), so its import is not counted."""
    sink = _WriteThrough(lengths_only=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            common.emit(*emit_args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, sum(sink.writes)


def _emit_call(argv):
    """The arguments that the subcommand of argv hands to common.emit, with the
    CSV rows listed; nothing is written."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "emit", lambda args, fmt, payload, csv_rows=(), table=():
                   calls.append((args, fmt, payload, list(csv_rows), table)))
        assert run(argv) == 0
    [call] = calls
    return call


@pytest.mark.parametrize("fmt", ["--json", "--csv", "--table"])
def test_emit_writes_in_batches(monkeypatch, fmt):
    # under PYTHONUNBUFFERED each write to stdout is a system call: the text
    # goes out in 64 KiB runs, not one piece at a time, and no run is much
    # longer than a batch and a line (the one-string writer made one write)
    sink = _WriteThrough()
    monkeypatch.setattr(sys, "stdout", sink)
    assert run(QUINTIC_2_101 + [fmt]) == 0
    text = "".join(sink.writes)
    longest = max(map(len, text.splitlines(keepends=True)))
    assert len(sink.writes) <= math.ceil(len(text.encode()) / BATCH) + 1
    assert max(map(len, sink.writes)) < BATCH + longest


def test_json_emit_holds_under_a_quarter_of_its_output():
    # zeta -p 2..101 prints 0.7 MB of JSON; json.dumps held all of it at once
    # (a 1.8 MB rise), the encoder's pieces now leave as they are made
    peak, length = _emit_rise(*_emit_call(QUINTIC_2_101 + ["--json"]))
    assert length > 8 * BATCH and peak < length / 4


def _live_at_emit(monkeypatch, argv, start=None):
    """The bytes that tracemalloc counts live when common.emit is called for
    argv (nothing is written), traced from the start of the run with every
    memo of cyarith cleared, or, given start = (module, name), from the
    return of that function."""
    import importlib

    live = []
    monkeypatch.setattr(common, "emit", lambda *args, **kwargs: live.append(
        tracemalloc.get_traced_memory()[0]))
    if start is None:
        for name in ("charsum", "counting", "cyclo", "ffield", "hecke", "zeta"):
            for memo in vars(importlib.import_module(f"cyarith.{name}")).values():
                if hasattr(memo, "cache_clear"):
                    memo.cache_clear()
        tracemalloc.start()
    else:
        module, name = start
        inner = getattr(module, name)

        def traced(*args):
            out = inner(*args)
            tracemalloc.start()
            return out
        monkeypatch.setattr(module, name, traced)
    try:
        assert run(argv) == 0
    finally:
        tracemalloc.stop()
    [at_emit] = live
    return at_emit


def test_zeta_holds_its_coefficients_as_ints_until_the_emit(monkeypatch):
    # the quintic to p = 401 has 78 factors of 205 coefficients, of up to
    # 797 digits at p = 401; held as decimal strings they and the memos
    # were 4.3 MB live at the emit, as ints 2.0-2.2 MB, and the strings are
    # made one at a time as the encoder writes them
    assert run(["zeta", *QUINTIC, "-p", "2", "--no-cache", "--jobs", "1"]) == 0  # imports
    argv = ["zeta", *QUINTIC, "-p", "2..401", "--json", "--deterministic", "--no-cache",
            "--jobs", "1"]
    assert _live_at_emit(monkeypatch, argv) < 3_000_000


def test_dirichlet_json_holds_no_decimal_strings(monkeypatch):
    # what the JSON payload adds to the computed a_n: a tuple of references,
    # 8 B an a_n (92 KB here), where a list of their strings took 599 KB
    import cyarith.hecke as hecke

    cutoff = 10_000
    argv = ["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", str(cutoff), "--json",
            "--deterministic"]
    assert _live_at_emit(monkeypatch, argv, (hecke, "dirichlet_coefficients")) < 16 * cutoff


@pytest.mark.parametrize("argv, times", [
    (QUINTIC_2_101 + ["--csv"], 8),
    (["lseries", *QUINTIC, "--cutoff", "3000", "--deterministic", "--csv"], 64),
])
def test_csv_emit_memory_does_not_grow_with_its_rows(argv, times):
    # csv.writer keeps each row in a buffer of 4 bytes a character, 128 KiB
    # at least (512 KiB for zeta's p = 101 row), and lseries' 21 KB fit in
    # one batch; with the rows repeated until those fixed costs are small
    # beside the output, the emit holds under a quarter of what it writes
    args, fmt, payload, rows, table = _emit_call(argv)
    peak, length = _emit_rise(args, fmt, payload, rows[:1] + rows[1:] * times, table)
    assert length > 8 * BATCH and peak < length / 4


def test_out_refused_mid_range_creates_no_file(tmp_path, capsys):
    # every prime is computed before the first byte is written: the refusal
    # at p = 1031 (F_{1031^2} is past the table bound) leaves nothing behind
    target = tmp_path / "zeta.json"
    assert run(["zeta", "--exponents", "2,3,6", "-p", "2..1100", "--jobs", "1",
                "--no-cache", "--out", str(target)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: p=1031 needs a table of F_1062961")
    assert not target.exists()


def test_env_vars(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CYARITH_CACHE", str(tmp_path))
    assert run(["zeta", "-d", "3", "-n", "1", "-p", "7", "--json",
                "--deterministic"]) == 0
    capsys.readouterr()
    assert list(tmp_path.glob("v3-3-3_p7.json"))


def test_jobs_below_one_refused(capsys):
    argv = ["zeta", "-d", "3", "-n", "1", "-p", "7", "--no-cache", "--json"]
    for jobs in ("0", "-4"):
        assert run(argv + ["--jobs", jobs]) == 1
        assert "must be at least 1" in capsys.readouterr().err
    # checked for every subcommand, not only those that fan out over primes
    assert run(["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "10", "--jobs", "0"]) == 1
    assert "must be at least 1" in capsys.readouterr().err

def test_process_pool_only_for_parallel_runs(capsys):
    argv = ["zeta", "-d", "3", "-n", "1", "-p", "7,13,19", "--no-cache"]
    serial = _json_out(capsys, argv + ["--jobs", "1"])
    assert _json_out(capsys, argv + ["--jobs", "2"]) == serial
    # a serial run does not pay for importing the pool machinery
    code = ("import sys; from cyarith.cli import run; "
            f"run({argv + ['--json', '--jobs', '1']!r}); "
            "print('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "False"


def test_console_pool_prints_the_serial_bytes():
    # the pool's workers take the zeta job by its module path while the
    # front end runs as __main__
    argv = [sys.executable, "-m", "cyarith.cli", "zeta", "-d", "3", "-n", "1",
            "-p", "7,13,19", "--no-cache", "--json", "--deterministic", "--jobs"]
    serial, pooled = (subprocess.run(argv + [jobs], capture_output=True) for jobs in ("1", "2"))
    assert serial.returncode == pooled.returncode == 0 and serial.stderr == pooled.stderr == b""
    assert pooled.stdout == serial.stdout and b'"p": 19' in serial.stdout


def test_extension_below_one_refused(capsys):
    # -r 0 used to be read as -r 1 and print the F_7 result
    for cmd in ("count", "jacobi"):
        assert run([cmd, "-d", "3", "-n", "1", "-p", "7", "-r", "0", "--json"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "extension degree must be positive" in out.err


@pytest.mark.parametrize("argv", [
    [],
    ["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "200", "--no-cache"],
    ["match", "-d", "5", "-n", "3", "-p", "11"],
    ["count", "-d", "5", "-n", "3", "-p", "11"],
    ["zeta", "--exponents", "3,3,3", "-p", "2..71", "--jobs", "1"],
    ["count", "--exponents", "3,3,3", "-p", "2..71", "-r", "2"],
    ["zeta", "-d", "5", "-n", "3", "-p", "2,3", "--jobs", "1"],
])
def test_split_prime_runs_load_no_numpy(argv, tmp_path, capsys):
    # numpy is imported only by the code that builds a field table or a
    # float matrix, and sums of prime conductor 3, 5 or 7 need neither, at
    # split and inert primes and over F_{p^2} alike (a serial run: a pool
    # would load it in its workers); the match reads the factor that the
    # zeta run below caches
    assert run(["zeta", "-d", "5", "-n", "3", "-p", "11", "--cache", str(tmp_path)]) == 0
    capsys.readouterr()
    code = ("import sys\nfrom cyarith.cli import run\n"
            f"argv = {argv!r}\n"
            "if argv:\n"
            f"    assert run(argv + ['--cache', {str(tmp_path)!r}, '--json']) == 0\n"
            "sys.exit('numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cyarith.cli", "count", "-d", "5", "-n", "3",
         "-p", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "bad reduction" in proc.stderr


def test_hecke_cutoff_300(capsys):
    # rank-4 ideal sums at p = 271 and 281
    doc = _json_out(capsys, ["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "300"])
    _validate("hecke", doc)
    assert doc["split_primes"][-2:] == [271, 281]
    a = [int(c) for c in doc["coefficients"]]      # rational for this character
    for p in (271, 281):
        assert 0 < abs(a[p - 1]) <= 4 * p ** 1.5    # four ideals, |J| = p^(3/2)
    for i in range(2, 151):
        for j in range(2, 300 // i + 1):
            if math.gcd(i, j) == 1:
                assert a[i * j - 1] == a[i - 1] * a[j - 1]
