"""The sweep's CSV: its header, the row template, whole blocks of rows as one
text, and the output file, replaced whole or not at all.

A row is ``mode,delta_rad,theta_rad,replica,fidelity,stderr,seed`` with
radians and fidelities at 9 decimals. `format_block` fills the repeated row
template from one flat tuple, so a block of rows costs one `%` instead of a
format call per row, and `format_row` is the same template for one row.
"""

from __future__ import annotations

import errno
import os
import sys

import numpy as np

CSV_HEADER = "mode,delta_rad,theta_rad,replica,fidelity,stderr,seed"
CSV_ROW = "%s,%.9f,%.9f,%d,%.9f,%.9f,%s"


def format_row(mode, delta, theta, replica, fid, stderr, seed) -> str:
    return CSV_ROW % (mode, delta, theta, replica, fid, stderr, seed)


def format_block(mode, delta, theta, fids, errs, seeds) -> str:
    """The rows of n points, replicas 1 and 2 of each, joined by newlines, by
    one `%` over the repeated row template; `fids` and `errs` are (n, 2)."""
    cells = np.empty((len(seeds), 2, 7), dtype=object)
    for k, column in enumerate((mode, delta[:, None], theta[:, None], (1, 2), fids, errs, np.reshape(seeds, (-1, 1)))):
        cells[..., k] = column
    return "\n".join([CSV_ROW] * (2 * len(seeds))) % tuple(cells.ravel().tolist())


def write_csv(path: str, fill):
    """Write the header, then the text `fill(write)` passes to `write`, to
    `path`; returns what `fill` returns.

    A new path or a regular file (symlinks followed) is written to a
    temporary file beside it that replaces it once `fill` returns; if
    anything raises, the temporary file is removed and `path` is left as it
    was. The new file takes the old file's mode, or 0o666 less the umask as
    open() gives a new file; a file the caller may not write is not
    replaced (PermissionError). A path that is the process's standard output
    (/dev/stdout, whatever it is redirected to) is written through
    `sys.stdout`, so that what is printed after it follows it there; any
    other existing path that is not a regular file (/dev/null, a pipe) is
    written directly. So is a path that can only name a directory (empty,
    or ending in a separator, "." or ".."), which realpath would turn into
    a file name: open() refuses it before `fill` runs.
    """
    if _is_stdout(path):
        sys.stdout.write(CSV_HEADER + "\n")
        return fill(sys.stdout.write)
    if os.path.basename(path) in ("", os.curdir, os.pardir) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            return fill(fh.write)
    target = os.path.realpath(path)
    mode = None
    if os.path.isfile(target):
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        mode = os.stat(target).st_mode & 0o7777
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x", encoding="ascii", newline="")
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, mode)
            fh.write(CSV_HEADER + "\n")
            result = fill(fh.write)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise
    return result


def _is_stdout(path: str) -> bool:
    """`path` is the file open on the process's standard output: the two
    share a device and an inode."""
    try:
        st, out = os.stat(path), os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):  # no such path, or no descriptor behind sys.stdout
        return False
    return (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino)
