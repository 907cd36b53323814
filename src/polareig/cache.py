"""Disk cache for enumerated subspace lists and pair catalogs.

Files are JSON-lines: one header object, then one entry per line.  Writes
are deterministic (sorted content, fixed separators) so repeated runs are
byte-identical.  The cache directory comes from an explicit argument or the
POLAR_EIG_CACHE environment variable; with neither, caching is off.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from pathlib import Path


ENV_VAR = "POLAR_EIG_CACHE"


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def resolve_cache_dir(cache_dir: str | os.PathLike | None) -> Path | None:
    if cache_dir is None:
        cache_dir = os.environ.get(ENV_VAR)
    if not cache_dir:
        return None
    path = Path(cache_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _safe(tag: str) -> str:
    return tag.replace("+", "p").replace("-", "m")


def subspace_cache_name(family: str, dim: int, p: int, k: int, level: int) -> str:
    return f"subspaces_{_safe(family)}_d{dim}_p{p}k{k}_lvl{level}.jsonl"


def catalog_cache_name(family: str, dim: int, p: int, k: int, kind: str, s: int) -> str:
    return f"catalog_{_safe(family)}_d{dim}_p{p}k{k}_{kind}_s{s}.jsonl"


def write_jsonl(path: Path, header: dict, lines: list) -> None:
    """Write through a temporary file that replaces path; on failure the
    temporary file is removed and the error re-raised."""
    tmp = path.with_suffix(".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(header) + "\n")
            for entry in lines:
                fh.write(dumps_canonical(entry) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def read_jsonl(path: Path, expect_header: dict) -> list | None:
    """Entries if the file exists, its header matches and every line parses,
    else None."""
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            if json.loads(fh.readline()) != expect_header:
                return None
            return [json.loads(line) for line in fh if line.strip()]
        except ValueError:  # an empty or truncated line, or bytes that are not UTF-8
            return None
