"""Text serialization of binary codes.

Format (one matrix per file):

    SIC v1 <N> <t> [<w>]
    <N lines of exactly t characters from {0,1}>
    [# trailing comment lines]

The optional header field w asserts constant column weight and is checked
on read.  Rows of the matrix are file lines; columns are codewords.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .codes import BinaryCode
from .errors import MalformedFile, ParameterOutOfRange
from .verify import _bits

MAGIC = "SIC"
VERSION = "v1"
ROW_BLOCK_BYTES = 1 << 20  # text rows read or written at a time


def _check_weight(bits: np.ndarray, w: int | None, error: type) -> None:
    """Raise `error` unless w is None or every column of bits has weight w."""
    if w is not None:
        weights = bits.sum(axis=0, dtype=np.min_scalar_type(len(bits)))  # holds N
        bad = np.flatnonzero(weights != w)
        if bad.size:
            raise error(f"column {int(bad[0])} has weight {int(weights[bad[0]])}, header says {w}")


def write_matrix(code: BinaryCode, path, comments: Iterable[str] = ()) -> None:
    """Write `code` in the format above, ROW_BLOCK_BYTES of text rows at a
    time.  A matrix the reader would reject or read differently (no rows or
    columns, an entry outside {0, 1}, a column off the stated weight)
    raises ParameterOutOfRange before the file opens."""
    bits = _bits(code)  # uint8; _bits refuses entries outside {0, 1}
    if 0 in bits.shape:
        raise ParameterOutOfRange(f"cannot write a {code.N} x {code.t} matrix")
    _check_weight(bits, code.weight, ParameterOutOfRange)
    header = f"{MAGIC} {VERSION} {code.N} {code.t}"
    if code.weight is not None:
        header += f" {code.weight}"
    comments = list(comments)
    for c in comments:  # the reader splits lines with str.splitlines
        if (c + "\n").splitlines() != [c]:
            raise ParameterOutOfRange(f"comment {c!r} holds a line break")
    tail = "".join(f"# {c}\n" for c in comments).encode("ascii")  # fails before the file opens
    rows = _block_rows(code.N, code.t)
    chars = np.full((rows, code.t + 1), ord("\n"), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii"))
        for a in range(0, code.N, rows):
            block = chars[:min(rows, code.N - a)]
            np.add(bits[a:a + rows], ord("0"), out=block[:, :-1])
            fh.write(block)
        fh.write(tail)


def read_matrix(path) -> BinaryCode:
    """Read a file in the format above.  A file laid out as `write_matrix`
    writes it is read ROW_BLOCK_BYTES of rows at a time into the bit
    matrix; any other one (other line ends, or a malformed file, which
    raises MalformedFile) is read line by line."""
    with open(path, "rb") as fh:
        code = _read_blocks(fh)
    return _read_lines(path) if code is None else code


def _block_rows(N: int, t: int) -> int:
    """Rows of t characters and a newline in one block of text."""
    return max(1, min(N, ROW_BLOCK_BYTES // (t + 1)))


def _header(line: str) -> tuple[int, int, int | None]:
    """N, t and w (None if absent) of the header line; MalformedFile if it
    is not one."""
    fields = line.split()
    if len(fields) not in (4, 5) or fields[0] != MAGIC or fields[1] != VERSION:
        raise MalformedFile(f"line 1: expected '{MAGIC} {VERSION} N t [w]', got {line!r}")
    try:
        nums = [int(x) for x in fields[2:]]
    except ValueError:
        raise MalformedFile(f"line 1: non-integer header fields in {line!r}") from None
    N, t = nums[0], nums[1]
    w = nums[2] if len(nums) == 3 else None
    if N < 1 or t < 1 or (w is not None and not 0 <= w <= N):
        raise MalformedFile(f"line 1: inconsistent dimensions N={N} t={t} w={w}")
    return N, t, w


def _read_blocks(fh) -> BinaryCode | None:
    """The code in `fh` if it holds an ASCII header line, N rows of t
    characters from 0/1 each ending in a newline, and then only empty or
    comment lines, all ending as str.splitlines ends them; else None."""
    try:
        line = fh.readline().decode("ascii")
        N, t, w = _header(line)
    except (UnicodeDecodeError, MalformedFile):
        return None
    if (line[-1:] != "\n" or line.splitlines() != [line[:-1]]
            or N * (t + 1) > os.fstat(fh.fileno()).st_size - len(line)):
        return None  # another line end, or too few bytes for the rows
    bits = np.empty((N, t), dtype=np.uint8)
    rows = _block_rows(N, t)
    chars = np.empty((rows, t + 1), dtype=np.uint8)
    for a in range(0, N, rows):
        block = chars[:min(rows, N - a)]
        if fh.readinto(block) != block.nbytes:
            return None
        part = np.subtract(block[:, :-1], ord("0"), out=bits[a:a + rows])  # wraps below "0"
        if (block[:, -1] != ord("\n")).any() or part.max() > 1:
            return None
    try:
        tail = fh.read().decode("ascii").splitlines()
    except UnicodeDecodeError:
        return None
    if any(line and not line.startswith("#") for line in tail):
        return None
    _check_weight(bits, w, MalformedFile)
    return BinaryCode(bits=bits, weight=w)


def _read_lines(path) -> BinaryCode:
    """read_matrix by the lines of the whole decoded text."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MalformedFile("line 1: empty file")
    N, t, w = _header(lines[0])
    if len(lines) < 1 + N:
        raise MalformedFile(f"line {len(lines) + 1}: expected {N} data rows, file ends early")
    bad = next((i for i, line in enumerate(lines[1:1 + N]) if len(line) != t), N)
    if bad:  # t comes from the file: build S{t} only once a row has that length
        bits = np.array(lines[1:1 + bad], dtype=f"S{t}").view(np.uint8).reshape(bad, t)
        bits -= ord("0")
        bad = int(next(iter(np.flatnonzero(bits.max(axis=1) > 1)), bad))
    if bad < N:
        raise MalformedFile(f"line {bad + 2}: expected {t} characters from 0/1")
    for extra, line in enumerate(lines[1 + N:], start=N + 2):
        if line and not line.startswith("#"):
            raise MalformedFile(f"line {extra}: unexpected content after data rows")
    _check_weight(bits, w, MalformedFile)
    return BinaryCode(bits=bits, weight=w)
