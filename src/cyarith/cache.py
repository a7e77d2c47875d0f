"""On-disk cache of complete local zeta factors.

``local_factor`` is the one path through the cache: it loads a factor, or
computes and stores it.

One JSON file per (exponent vector, prime), laid out as in
docs/schemas/cache.schema.json: a format version, a sha256 self-check of the
canonical encoding of the data, and the data itself (orbit Jacobi sums and
the expanded coefficients).  ``load`` trusts an entry only if the version,
hash and key match, the factor is complete, and rebuilding the LocalFactor
from the stored roots (the checks a fresh factor passes) gives the stored
coefficients; else it is deleted with a warning on the ``cyarith.cache``
logger, and the caller recomputes.
``store`` writes the entry as one compact JSON line (any layout of the same
JSON loads) to a per-writer temp file and renames it into place, so
concurrent writers of one entry never expose a half-written file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path

from .counting import DiagonalVariety
from .cyclo import CycInt
from .errors import InvariantViolationError, ValidationError
from .zeta import LocalFactor, local_factor_middle

FORMAT_VERSION = 1
log = logging.getLogger(__name__)


def entry_path(cache_dir: Path, exps: tuple[int, ...], p: int) -> Path:
    tag = "-".join(str(n) for n in exps)
    return Path(cache_dir) / f"v{tag}_p{p}.json"


def _canonical(data: dict) -> str:
    """The sorted, compact JSON of data: what the self-check hashes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _record_hash(data: dict) -> str:
    return hashlib.sha256(_canonical(data).encode()).hexdigest()


def _record_text(exps: tuple[int, ...], lf: LocalFactor) -> str:
    """The entry for lf as one compact JSON line, the canonical data encoded
    once for both the hash and the file."""
    data = {
        "exponents": list(exps),
        "p": lf.p,
        "cohomology_degree": lf.cohomology_degree,
        "full_degree": lf.full_degree,
        "orbits": [{"m": j.m, "count": c, "coefficients": [str(x) for x in j.coeffs]}
                   for j, c in lf.orbits],
        "coefficients": [str(x) for x in lf.coeffs],
        "precision": lf.precision,
    }
    blob = _canonical(data)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return f'{{"format_version":{FORMAT_VERSION},"self_check":"{digest}","data":{blob}}}\n'


def store(cache_dir: Path, exps: tuple[int, ...], lf: LocalFactor) -> None:
    """Write lf as the entry for (exps, lf.p), replacing any earlier one."""
    path = entry_path(cache_dir, exps, lf.p)
    path.parent.mkdir(parents=True, exist_ok=True)
    # one temp file per writer: a shared name lets one writer's replace move
    # another's half-written file into place
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        tmp.write_text(_record_text(exps, lf))
        tmp.replace(path)   # atomic swap; concurrent writers of the same entry agree
    finally:
        tmp.unlink(missing_ok=True)     # still there only if the write or replace failed


def load(cache_dir: Path, exps: tuple[int, ...], p: int) -> LocalFactor | None:
    """The cached factor for (exps, p), or None; a corrupt entry (see the
    module docstring), or one that cannot be read, is deleted if it can be."""
    path = entry_path(cache_dir, exps, p)
    if not path.exists():
        return None
    try:
        rec = json.loads(path.read_text())
        if not isinstance(rec, dict):
            raise ValueError("record is not a JSON object")
        if rec.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"format version {rec.get('format_version')}")
        data = rec["data"]
        if rec.get("self_check") != _record_hash(data):
            raise ValueError("self-check hash mismatch")
        if tuple(data["exponents"]) != tuple(exps) or data["p"] != p:
            raise ValueError("entry keyed to a different variety or prime")
        if data["precision"] is not None:
            raise ValueError("truncated factors are never cached")
        orbits = tuple((CycInt(o["m"], tuple(int(x) for x in o["coefficients"])),
                        int(o["count"])) for o in data["orbits"])
        lf = LocalFactor(p=p, cohomology_degree=int(data["cohomology_degree"]),
                         full_degree=int(data["full_degree"]), orbits=orbits)
        if lf.coeffs != tuple(int(x) for x in data["coefficients"]):
            raise ValueError("stored coefficients differ from the stored roots' expansion")
        return lf
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            InvariantViolationError) as exc:
        log.warning("discarding corrupt cache entry %s: %s", path, exc)
        try:
            path.unlink()
        except OSError:
            pass
        return None


def local_factor(cache_dir: Path | None, v: DiagonalVariety, p: int,
                 max_root_field: int | None = None) -> LocalFactor:
    """The middle factor of v at p (zeta.local_factor_middle), loaded from
    cache_dir or computed and stored there.  A capped call (max_root_field
    set) may truncate the factor, and truncated factors are cheap and never
    cached, so it computes directly, as does a cache_dir of None.  An entry
    that cannot be written is a ValidationError naming it."""
    if max_root_field is not None or cache_dir is None:
        return local_factor_middle(v, p, max_root_field)
    lf = load(cache_dir, v.exponents, p)
    if lf is None:
        lf = local_factor_middle(v, p)
        try:
            store(cache_dir, v.exponents, lf)
        except OSError as exc:
            path = entry_path(cache_dir, v.exponents, p)
            raise ValidationError(f"cannot write cache entry {path}: {exc}") from exc
    return lf
