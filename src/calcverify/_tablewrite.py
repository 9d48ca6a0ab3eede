"""The rule cache's writer, which only a miss and ``save_tables`` load."""

from __future__ import annotations

import itertools
import os
import stat
import sys

from . import tables
from .errors import TableError
from .tables import _gauss_rule, _parse_tables, _read_table


def insert_rule(cache_path: str, n: int, rule: QuadratureRule, corrupt: TableError | None) -> QuadratureRule:
    """``get_or_build``'s miss once ``rule`` is built: the lock, the re-read and the insert."""
    import fcntl  # only a miss takes the lock, so a hit loads no fcntl

    directory = os.path.dirname(cache_path) or "."
    os.makedirs(directory, exist_ok=True)
    try:
        lock = os.open(directory, os.O_RDONLY)
    except PermissionError:
        # a directory that can be searched but not read is written without the lock
        lock = None
    try:
        if lock is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)
        # the file as it stands under the lock, checked whole: another writer
        # may have added rules, or rule n, since get_or_build's read
        try:
            lines = _read_table(cache_path)
            blocks = _parse_tables(lines, cache_path)
            if (cached := blocks.get(n)) is not None:
                _gauss_rule(cached, cache_path)
                return rule
        except FileNotFoundError:
            lines, blocks = [], {}
        except TableError as exc:
            lines, blocks = [], {}
            print(f"warning: discarding corrupt rule cache ({corrupt or exc}); rebuilding", file=sys.stderr)
        head, *block = tables.dumps_tables([rule]).splitlines()
        lines = lines or [head]
        # past each block, in file order, its 'N k' line and k rows, up to the first larger k
        at = 1 + sum(k + 1 for k in itertools.takewhile(lambda k: k < n, blocks))
        lines[at:at] = block
        _write_table(cache_path, "\n".join(lines) + "\n")
    finally:
        # closing the descriptor releases the lock
        if lock is not None:
            os.close(lock)
    return rule


def _write_table(path: str, text: str) -> None:
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    else:
        # the rename would replace a link, device or FIFO with a regular file
        if not stat.S_ISREG(mode):
            raise OSError(f"{path}: not a regular file")
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".gausstab.{os.getpid()}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w") as fh:
            if mode is not None:
                # os.open made the temp file 0600
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
