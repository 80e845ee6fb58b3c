"""The sweep's CSV: its header, the row template, whole blocks of rows as one
text, and the output file, replaced whole or not at all.

A row is ``mode,delta_rad,theta_rad,replica,fidelity,stderr,seed`` with
radians and fidelities at 9 decimals. `format_row` is the row template for
one row, and the reference for `format_block`, which writes a block of rows
by string joins after converting each distinct float64 of the block once:
an exact sweep's block repeats a handful of fidelities, one stderr and its
delta in almost every row. The file is written as ASCII bytes.
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
    """The rows of n points, replicas 1 and 2 of each, joined by newlines;
    `delta` and `theta` are (n,) float64 arrays and `fids` and `errs` (n, 2).

    Each distinct float64 bit pattern of the block is formatted once, by
    one `%`, into a memo keyed by the bits that lives for this call, so
    -0.0 and 0.0 stay apart and every NaN prints as `nan`, as `format_row`
    prints them; the rows are then joined from the memo's strings.
    """
    bits = np.concatenate((delta, theta, np.ravel(fids), np.ravel(errs))).view(np.uint64).tolist()
    distinct = list(dict.fromkeys(bits))
    floats = np.array(distinct, dtype=np.uint64).view(np.float64).tolist()
    memo = dict(zip(distinct, ("%.9f\n" * len(floats) % tuple(floats)).split("\n")))
    text = list(map(memo.__getitem__, bits))
    n = len(seeds)
    d, t, f, e = text[:n], text[n:2 * n], text[2 * n:4 * n], text[4 * n:]
    return "\n".join([
        f"{mode},{dk},{tk},1,{f1},{e1},{seed}\n{mode},{dk},{tk},2,{f2},{e2},{seed}"
        for dk, tk, f1, f2, e1, e2, seed in zip(d, t, f[::2], f[1::2], e[::2], e[1::2], seeds)
    ])


def write_csv(path: str, fill):
    """Write the header, then the text `fill(write)` passes to `write`, to
    `path` as ASCII bytes; returns what `fill` returns.

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
        with open(path, "wb") as fh:
            return _fill_bytes(fh, fill)
    target = os.path.realpath(path)
    mode = None
    if os.path.isfile(target):
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        mode = os.stat(target).st_mode & 0o7777
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, mode)
            result = _fill_bytes(fh, fill)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise
    return result


def _fill_bytes(fh, fill):
    """The header, then each text `fill` passes, to the binary file `fh`;
    a text that is not ASCII raises UnicodeEncodeError."""
    def write(text):
        return fh.write(text.encode("ascii"))

    write(CSV_HEADER + "\n")
    return fill(write)


def _is_stdout(path: str) -> bool:
    """`path` is the file open on the process's standard output: the two
    share a device and an inode."""
    try:
        st, out = os.stat(path), os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):  # no such path, or no descriptor behind sys.stdout
        return False
    return (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino)
