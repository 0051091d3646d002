"""Text serialization of binary codes.

Format (one matrix per file):

    SIC v1 <N> <t> [<w>]
    <N lines of exactly t characters from {0,1}>
    [# trailing comment lines]

The optional header field w asserts constant column weight and is checked
on read.  Rows of the matrix are file lines; columns are codewords.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .codes import BinaryCode
from .errors import MalformedFile, ParameterOutOfRange
from .verify import _bits

MAGIC = "SIC"
VERSION = "v1"


def _check_weight(bits: np.ndarray, w: int | None, error: type) -> None:
    """Raise `error` unless w is None or every column of bits has weight w."""
    if w is not None:
        weights = bits.sum(axis=0, dtype=np.min_scalar_type(len(bits)))  # holds N
        bad = np.flatnonzero(weights != w)
        if bad.size:
            raise error(f"column {int(bad[0])} has weight {int(weights[bad[0]])}, header says {w}")


def write_matrix(code: BinaryCode, path, comments: Iterable[str] = ()) -> None:
    """Write `code` in the format above.  A matrix the reader would reject
    or read differently (no rows or columns, an entry outside {0, 1}, a
    column off the stated weight) raises ParameterOutOfRange before the
    file opens."""
    if 0 in _bits(code).shape:  # _bits refuses entries outside {0, 1}
        raise ParameterOutOfRange(f"cannot write a {code.N} x {code.t} matrix")
    _check_weight(code.bits, code.weight, ParameterOutOfRange)
    header = f"{MAGIC} {VERSION} {code.N} {code.t}"
    if code.weight is not None:
        header += f" {code.weight}"
    comments = list(comments)
    for c in comments:  # the reader splits lines with str.splitlines
        if (c + "\n").splitlines() != [c]:
            raise ParameterOutOfRange(f"comment {c!r} holds a line break")
    tail = "".join(f"# {c}\n" for c in comments).encode("ascii")  # fails before the file opens
    chars = np.full((code.N, code.t + 1), ord("\n"), dtype=np.uint8)
    np.add(code.bits != 0, ord("0"), out=chars[:, :-1], dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii"))
        fh.write(chars)
        fh.write(tail)


def read_matrix(path) -> BinaryCode:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MalformedFile("line 1: empty file")
    fields = lines[0].split()
    if len(fields) not in (4, 5) or fields[0] != MAGIC or fields[1] != VERSION:
        raise MalformedFile(f"line 1: expected '{MAGIC} {VERSION} N t [w]', got {lines[0]!r}")
    try:
        nums = [int(x) for x in fields[2:]]
    except ValueError:
        raise MalformedFile(f"line 1: non-integer header fields in {lines[0]!r}") from None
    N, t = nums[0], nums[1]
    w = nums[2] if len(nums) == 3 else None
    if N < 1 or t < 1 or (w is not None and not 0 <= w <= N):
        raise MalformedFile(f"line 1: inconsistent dimensions N={N} t={t} w={w}")
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
