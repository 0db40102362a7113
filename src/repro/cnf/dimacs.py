"""DIMACS CNF reader and writer.

Implements the standard ``p cnf <vars> <clauses>`` format used by SAT
competitions and every mainstream solver, including multi-line clauses,
comment lines, and lenient handling of a missing or inconsistent header.

The reader splits off the comment and header lines with one regular
expression, converts the clause text to int64 in one numpy call, and
cuts it at the zeros into the flat literal and offset arrays a
:class:`CNF` stores.  Only malformed text is read again line by line,
to name the line of the first bad token.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.cnf.formula import CNF, MAX_VAR


class DimacsError(ValueError):
    """Raised when a DIMACS document is malformed."""


#: A comment, header or ``%`` line (first non-blank character), whole.
_SPECIAL_LINE = re.compile(r"^[^\S\n]*([cp%])[^\n]*", re.MULTILINE)


def parse_dimacs(text: str, strict: bool = False) -> CNF:
    """Parse DIMACS CNF text into a :class:`CNF`.

    A clause is any run of non-zero integers terminated by ``0``; clauses
    may span multiple lines.  When ``strict`` is true, the header must be
    present and the declared clause count must match the parsed count.
    A variable (in a literal or the header) above
    :data:`~repro.cnf.formula.MAX_VAR` is an error.
    """
    comments: List[str] = []
    header: Optional[Tuple[int, int]] = None
    # Clause text between the special lines, with each piece's start offset.
    pieces: List[Tuple[int, str]] = []
    pos = 0
    for match in _SPECIAL_LINE.finditer(text):
        pieces.append((pos, text[pos : match.start()]))
        pos = match.end()
        kind = match.group(1)
        if kind == "%":
            # Some competition files end with "%\n0"; stop parsing there.
            pos = len(text)
            break
        line = match.group(0).strip()
        if kind == "c":
            comments.append(line[1:].lstrip())
            continue
        line_no = text.count("\n", 0, match.start()) + 1
        try:
            if header is not None:
                raise DimacsError(f"line {line_no}: duplicate header")
            header = _parse_header(line, line_no)
        except DimacsError:
            _raise_token_error(text, pieces)  # a bad token above comes first
            raise
    pieces.append((pos, text[pos:]))

    # numpy converts each token with Python's int(): the same tokens
    # parse, and the same ones fail, as a token-by-token loop.
    try:
        tokens = np.array(
            "\n".join(piece for _, piece in pieces).split(), dtype=np.int64
        )
    except (ValueError, OverflowError):
        tokens = None
    if tokens is None or (
        len(tokens) and (tokens.min() < -MAX_VAR or tokens.max() > MAX_VAR)
    ):
        _raise_token_error(text, pieces)  # finds the token numpy rejected
    zeros = np.flatnonzero(tokens == 0)
    lits = tokens[tokens != 0]
    # Clause j ends at its terminating zero, less the j zeros before it.
    offsets = np.concatenate(([0], zeros - np.arange(len(zeros))))
    if len(lits) > offsets[-1]:
        if strict:
            raise DimacsError("final clause not terminated by 0")
        offsets = np.append(offsets, len(lits))

    num_clauses = len(offsets) - 1
    if strict:
        if header is None:
            raise DimacsError("missing 'p cnf' header")
        if header[1] != num_clauses:
            raise DimacsError(
                f"header declares {header[1]} clauses, parsed {num_clauses}"
            )
    num_vars = header[0] if header is not None else 0
    return CNF.from_arrays(lits, offsets, num_vars=num_vars, comments=comments)


def _parse_header(line: str, line_no: int) -> Tuple[int, int]:
    parts = line.split()
    if len(parts) != 4 or parts[1] != "cnf":
        raise DimacsError(f"line {line_no}: malformed header {line!r}")
    try:
        num_vars = int(parts[2])
        num_clauses = int(parts[3])
    except ValueError as exc:
        raise DimacsError(f"line {line_no}: non-integer header field") from exc
    if num_vars < 0 or num_clauses < 0:
        raise DimacsError(f"line {line_no}: negative header field")
    if num_vars > MAX_VAR:
        raise DimacsError(
            f"line {line_no}: variable count {num_vars} out of range (max {MAX_VAR})"
        )
    return num_vars, num_clauses


def _raise_token_error(text: str, pieces: List[Tuple[int, str]]) -> None:
    """Re-read ``pieces`` token by token and raise :class:`DimacsError`
    naming the line of the first bad token or out-of-range variable."""
    for start, piece in pieces:
        line_no = text.count("\n", 0, start) + 1
        for offset, line in enumerate(piece.split("\n")):
            for token in line.split():
                try:
                    lit = int(token)
                except ValueError as exc:
                    raise DimacsError(
                        f"line {line_no + offset}: bad token {token!r}"
                    ) from exc
                if abs(lit) > MAX_VAR:
                    raise DimacsError(
                        f"line {line_no + offset}: variable {abs(lit)} "
                        f"out of range (max {MAX_VAR})"
                    )


def parse_dimacs_file(path: Union[str, Path], strict: bool = False) -> CNF:
    """Read and parse a DIMACS file from disk."""
    return parse_dimacs(Path(path).read_text(), strict=strict)


def to_dimacs(cnf: CNF, include_comments: bool = True) -> str:
    """Serialize a :class:`CNF` to DIMACS text."""
    lines: List[str] = []
    if include_comments:
        lines.extend(f"c {comment}" for comment in cnf.comments)
    lines.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}")
    flat = cnf.lits.tolist()
    bounds = cnf.offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        lines.append(" ".join(map(str, flat[a:b])) + " 0")
    return "\n".join(lines) + "\n"


def write_dimacs_file(cnf: CNF, path: Union[str, Path]) -> None:
    """Write a :class:`CNF` to a DIMACS file."""
    Path(path).write_text(to_dimacs(cnf))
