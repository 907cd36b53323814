"""Canonical JSON and the JSON-lines files that hold pair catalogues.

Files are JSON-lines: one header object, then one entry per line.  Writes
are deterministic (sorted content, fixed separators) so repeated runs are
byte-identical, and lines are rendered one at a time as they are written.
``enumerate`` with no ``--out`` writes its catalogue into the directory
given by ``--cache-dir`` or the POLAR_EIG_CACHE environment variable; with
neither, it writes no file and renders no line.  Nothing is ever read back.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from contextlib import suppress
from pathlib import Path


ENV_VAR = "POLAR_EIG_CACHE"


# json.dumps(obj, sort_keys=True, separators=(",", ":")) with one shared
# encoder; json.dumps would build a new encoder for every catalogue line
dumps_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _safe(tag: str) -> str:
    return tag.replace("+", "p").replace("-", "m")


def catalog_path(directory: str | os.PathLike | None, provenance: dict,
                 kind: str, s: int) -> Path | None:
    """The catalogue file for a graph and pair kind, in directory (or else
    $POLAR_EIG_CACHE), which is created if missing; None with neither."""
    if directory is None:
        directory = os.environ.get(ENV_VAR)
    if not directory:
        return None
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path / (f"catalog_{_safe(provenance['family'])}_d{provenance['dim']}"
                   f"_p{provenance['p']}k{provenance['k']}_{kind}_s{s}.jsonl")


def write_jsonl(path: Path, header: dict, lines: Iterable) -> None:
    """Write the header, then one line per entry of lines (any iterable,
    consumed once).

    A regular or new file is written through a temporary file that replaces
    it, and a symlink to one has its target replaced, not the link; on any
    failure, one raised by lines included, the temporary file is removed and
    the error re-raised.  An existing target that is not a regular file (a
    FIFO, a character device, /dev/stdout) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            _write_lines(fh, header, lines)
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_suffix(".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_lines(fh, header, lines)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def _write_lines(fh, header: dict, lines: Iterable) -> None:
    fh.write(dumps_canonical(header) + "\n")
    for entry in lines:
        fh.write(dumps_canonical(entry) + "\n")


# unused by the package; kept because the benchmark launcher wraps it by name
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
