"""Shared file plumbing: atomic writes, digests, provenance headers, CSV helpers."""
from __future__ import annotations

import csv
import errno
import os
from contextlib import contextmanager, suppress
from datetime import datetime
from itertools import dropwhile
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from . import __version__

PROVENANCE_PREFIX = "# drivescore"

# The window_kind values of features.csv, here so the CLI can offer them as
# choices without importing the numpy-backed features layer.
WINDOW_KINDS = ("weekly", "lifetime")

T = TypeVar("T")

# CPython's own SHA-256, not hashlib's: ``import hashlib`` maps OpenSSL's
# libcrypto (3.6 MB of resident memory) into every command just to hash its
# inputs.  The built-in one writes the same digest, about 5x slower (see README).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256


def sha256_digest(path: str | Path) -> str:
    h = sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance_line(seed: int | None = None, inputs: dict[str, str] | None = None) -> str:
    """One-line artifact provenance: tool version, seed, input digests."""
    parts = [f"{PROVENANCE_PREFIX} {__version__}"]
    if seed is not None:
        parts.append(f"seed={seed}")
    for name, digest in (inputs or {}).items():
        parts.append(f"{name}=sha256:{digest[:16]}")
    return " | ".join(parts)


@contextmanager
def atomic_files(*paths: str | Path) -> Iterator[list[TextIO]]:
    """Text files, open for writing while the block runs, that replace ``paths``.

    Each is a new temp file beside its path, made as ``open`` makes files
    (mode 0o666 less the umask); all are renamed into place only once the
    block ends without error.  If it raises, every temp file is removed and
    each path keeps whatever it held before.  A path that is a directory raises
    IsADirectoryError before any file is made, since no rename could replace it.
    """
    paths = [Path(p) for p in paths]
    for path in paths:
        if path.is_dir() and not path.is_symlink():  # a link is replaced, not followed
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    temps: list[tuple[Path, Path, TextIO]] = []
    try:
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
            temps.append((tmp, path, open(tmp, "x", encoding="utf-8", newline="")))
        yield [f for _, _, f in temps]
        for _, _, f in temps:
            f.close()
        for tmp, path, _ in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _, f in temps:
            with suppress(OSError):  # a failed flush: the file is discarded anyway
                f.close()
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form; integers stay compact."""
    x = float(x)  # numpy scalars repr as np.float64(...), plain floats don't
    if x != x:  # NaN -> empty cell
        return ""
    if abs(x) < 1e15 and x == int(x):  # so +-inf falls through to repr
        return str(int(x))
    return repr(x)


def csv_row_writer(f: TextIO, header: Sequence[str], provenance: str | None = None
                   ) -> Callable[[Iterable[Sequence[object]]], None]:
    """Write the provenance line and header to ``f``; return a function that
    writes rows after them, floats in ``fmt_float`` form and datetimes in
    ``isoformat`` form."""
    f.write(f"{provenance}\n" if provenance else "")
    w = csv.writer(f, lineterminator="\n")
    w.writerow(header)
    return lambda rows: w.writerows(
        [fmt_float(v) if isinstance(v, float) else
         v.isoformat() if isinstance(v, datetime) else v for v in row] for row in rows)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]],
              provenance: str | None = None) -> None:
    """Stream a provenance line, ``header`` and ``rows`` into ``path`` atomically."""
    with atomic_files(path) as (f,):
        csv_row_writer(f, header, provenance)(rows)


def iter_csv_records(path: str | Path, columns: Sequence[str],
                     parse_row: Callable[[list[str]], T]) -> Iterator[T]:
    """Parse the data rows of a CSV that must carry ``columns``, one at a time.

    ``parse_row`` gets each row's cells in ``columns`` order.  The ``#`` provenance
    lines before the header and blank rows are skipped; a data row whose first cell
    starts with ``#`` is read like any other.  A missing column, a short row, or a row
    that ``parse_row`` rejects with TypeError, ValueError or OverflowError (an integer
    too large for a float) raises ValueError naming the file and data row; text that
    is not UTF-8 or that ``csv`` rejects (a cell over its field size limit) raises
    ValueError naming the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as f:
        try:
            reader = csv.reader(dropwhile(lambda ln: ln.startswith("#"), f))
            header = next(reader, [])
            index = {name: j for j, name in enumerate(header)}
            missing = [c for c in columns if c not in index]
            if missing:
                raise ValueError(f"{path}: missing columns: {', '.join(missing)}")
            picks = [index[c] for c in columns]
            width = len(header)
            for i, row in enumerate(filter(None, reader), start=1):
                try:
                    if len(row) < width:
                        raise ValueError(f"short row: fewer than {width} cells")
                    record = parse_row([row[j] for j in picks])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{path}: data row {i}: {exc}") from None
                yield record
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
