"""On-disk cache of complete local zeta factors.

``local_factor`` is the one path through the cache: it loads a factor, or
computes and stores it.

One JSON file per (exponent vector, prime), laid out as in
docs/schemas/cache.schema.json: a format version, a sha256 self-check of the
canonical encoding of the data, and the data itself: only what the variety
cannot give back, the key (exponents, p) and each Galois class's root as
decimal strings, in the factor's class order.  ``load`` hands the roots to
zeta.local_factor_middle, which builds the factor by the plan of a fresh
one, roots in place of sums, so the conductors, orbits, degrees and Weil's
sign come from the exponents and p.  The self-check is computed by the
interpreter's own sha256 (``_sha256``), not hashlib, so no run maps
OpenSSL.  ``load`` trusts an entry only if the version, hash and key match,
it holds one root per class, and the factor rebuilt from them passes every
check a fresh factor passes (RH, whole Galois classes, integrality, degree
and the functional equation); else it is deleted with a warning on the
``cyarith.cache`` logger, and the caller recomputes and stores it.  Only
such a discard imports logging, and the library sets none of it up: the
CLI's ``before_warning`` does, just before the warning is logged.  So an
entry of an earlier format version (1 to 3) is discarded once and rewritten.
``store`` writes the entry as one compact JSON line (any layout of the same
JSON loads) to a per-writer temp file and renames it into place, so
concurrent writers of one entry never expose a half-written file.
"""

from __future__ import annotations

import json
import os

from .counting import DiagonalVariety
from .errors import InvariantViolationError, ValidationError
from .zeta import LocalFactor, local_factor_middle

TYPE_CHECKING = False    # true to type checkers; no run imports typing
if TYPE_CHECKING:
    from pathlib import Path

FORMAT_VERSION = 4

# None, or a function called with the logging module before a discard is
# logged: the CLI's prints the warning on stderr as "warning: ..."
before_warning = None


def entry_path(cache_dir: Path, exps: tuple[int, ...], p: int) -> Path:
    from pathlib import Path
    tag = "-".join(str(n) for n in exps)
    return Path(cache_dir) / f"v{tag}_p{p}.json"


def _canonical(data: dict) -> str:
    """The sorted, compact JSON of data: what the self-check hashes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    """The hex sha256 of text's UTF-8, hashlib.sha256's digest from the
    interpreter's own C module (_sha256 to 3.11, _sha2 from 3.12), which
    links no OpenSSL; hashlib only on a build that has neither."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def _record_hash(data: dict) -> str:
    return _sha256(_canonical(data))


def _record_text(exps: tuple[int, ...], lf: LocalFactor) -> str:
    """The entry for lf as one compact JSON line, the canonical data encoded
    once for both the hash and the file."""
    data = {"exponents": list(exps), "p": lf.p,
            "roots": [[str(x) for x in j.coeffs] for j, _, _ in lf.classes]}
    blob = _canonical(data)
    digest = _sha256(blob)
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
        roots = [[int(x) for x in root] for root in data["roots"]]
        return local_factor_middle(DiagonalVariety(exps), p, roots=roots)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            InvariantViolationError) as exc:
        import logging  # only a discard logs
        if before_warning is not None:
            before_warning(logging)
        logging.getLogger(__name__).warning("discarding corrupt cache entry %s: %s", path, exc)
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
