"""Canonical JSON, the one writer of every output file, and the JSON-lines
files that hold pair catalogues.

``write_text`` writes an iterable of strings as they come, to stdout or to
a file, with one policy for every command (see its docstring).  Catalogue
files are JSON-lines: one header object, then one entry per line.  Writes
are deterministic (sorted content, fixed separators) so repeated runs are
byte-identical, and lines are rendered one at a time as they are written.
``enumerate`` with no ``--out`` writes its catalogue into the directory
given by ``--cache-dir``; without it, it writes no file and renders no
line.  Nothing is ever read back.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterable
from contextlib import suppress
from itertools import chain, count
from pathlib import Path


# json.dumps(obj, sort_keys=True, separators=(",", ":")) with one shared
# encoder; json.dumps would build a new encoder for every catalogue line
dumps_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def catalog_path(directory: str | os.PathLike | None, provenance: dict,
                 kind: str, s: int) -> Path | None:
    """The catalogue file for a graph and pair kind, in directory, which is
    created if missing; None without one."""
    if not directory:
        return None
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    family = provenance["family"].replace("+", "p").replace("-", "m")
    return path / (f"catalog_{family}_d{provenance['dim']}"
                   f"_p{provenance['p']}k{provenance['k']}_{kind}_s{s}.jsonl")


def write_text(path: str | os.PathLike | None, chunks: Iterable[str]) -> None:
    """Write chunks (strings, consumed once) as they come to path, or with no
    path to stdout; every file the CLI writes goes through here.  A path that
    is stdout's open file (/dev/stdout, or where stdout is redirected) is
    written through sys.stdout, in order with the rest of the output; any
    other existing file that is not regular (a FIFO, a device) is written in
    place.  A regular or new file, a symlink's target and not the link, is
    replaced by a temporary file this call creates exclusively beside it (an
    error creating it names path); on any failure, one raised by chunks
    included, only that file is removed."""
    if path is None or _same_file(path, sys.stdout):
        sys.stdout.writelines(chunks)
    elif os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        target = os.path.realpath(path)
        for n in count():  # "x": a name no file held, and the mode "w" gives a new file
            tmp = f"{target}.{os.getpid()}-{n}.tmp"
            try:
                fh = open(tmp, "x", encoding="utf-8")
                break
            except FileExistsError:
                pass
            except OSError as exc:  # name the file asked for, not the temporary one
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, target)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise


def _same_file(path, stream) -> bool:
    with suppress(AttributeError, OSError, ValueError):  # missing, or no file behind stream
        return os.path.samestat(os.stat(path), os.fstat(stream.fileno()))
    return False


def write_jsonl(path: Path, header: dict, lines: Iterable) -> None:
    """The header, then one line per entry of lines (any iterable, consumed
    once), each rendered as ``write_text`` writes it."""
    write_text(path, (dumps_canonical(e) + "\n" for e in chain((header,), lines)))


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
