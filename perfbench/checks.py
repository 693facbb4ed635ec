"""Output checks that cannot pass vacuously.

``PipelineRun.verify`` compares with ``assert_allclose`` after truncating
both arrays to the shorter length, and NaN compares equal to NaN there.
These checks instead treat each of the following as a failure, never as
agreement: a missing output, a shape or length mismatch, an empty array,
a non-finite value on either side, and a read-before-write input of the
program that the caller did not supply (the pipeline would silently
default it to zero).
"""

from __future__ import annotations

import re

import numpy as np

_NAME = re.compile(r"[A-Za-z_]\w*")
_DECL = re.compile(r"^(integer|real|logical|double|character)\b", re.I)


def compare_field(what: str, got, want, rtol: float,
                  atol: float) -> list[str]:
    """Failures of ``got`` against the reference ``want`` (empty = ok)."""
    if got is None:
        return [f"{what}: missing"]
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != reference {want.shape}"]
    if want.size == 0:
        return [f"{what}: empty output"]
    failures = []
    for side, arr in (("output", got), ("reference", want)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        if bad:
            failures.append(f"{what}: {bad} non-finite value(s) in {side}")
    if failures:
        return failures
    try:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol,
                                   equal_nan=False)
    except AssertionError as exc:
        detail = " ".join(str(exc).split())
        return [f"{what}: off the reference: {detail}"]
    return []


def _statements(source: str) -> tuple[list[str], list[str]]:
    """(parameters, executable statements) of a fixed-form subroutine."""
    lines: list[str] = []
    for raw in source.splitlines():
        if not raw.strip() or raw[:1] in "cC*!":
            continue
        if len(raw) > 5 and raw[5] not in " 0" and lines:
            lines[-1] += " " + raw[6:].strip()  # continuation card
        else:
            lines.append(raw.strip())
    header = lines[0]
    params = _NAME.findall(header[header.index("(") + 1:header.rindex(")")])
    body = []
    for line in lines[1:]:
        line = re.sub(r"^\d+\s+", "", line)  # statement label
        if _DECL.match(line):
            continue
        body.append(line)
    return [p.lower() for p in params], body


def read_before_write(source: str) -> set[str]:
    """Parameters whose first textual use reads them.

    A small scan independent of the program's front end: an assignment
    ``LHS = RHS`` reads the names of ``RHS`` and of ``LHS``'s subscripts
    before it writes ``LHS``'s base name; ``do v = lo, hi`` reads the
    bounds; any other statement only reads.  For the straight-line
    ordering of the benchmark's programs first textual use is first
    execution.
    """
    params, body = _statements(source)
    seen: dict[str, str] = {}
    for line in body:
        low = line.lower()
        m = re.match(r"^(do\s+)?(\w+)\s*(\([^=]*\))?\s*=(?!=)(.*)$", low)
        if m and not low.startswith("if"):
            reads = _NAME.findall((m.group(3) or "") + " " + m.group(4))
            writes = [m.group(2)]
        else:
            reads, writes = _NAME.findall(low), []
        for name in reads:
            seen.setdefault(name, "read")
        for name in writes:
            seen.setdefault(name, "write")
    return {p for p in params if seen.get(p) == "read"}


def missing_inputs(source: str, spec, fields: dict,
                   scalars: dict) -> list[str]:
    """Read-before-write parameters that nobody supplies.

    The mesh supplies extent variables and index maps; every other
    read-before-write parameter must be in ``fields`` or ``scalars``.
    """
    supplied = {k.lower() for k in (*fields, *scalars)}
    missing = sorted(
        name for name in read_before_write(source)
        if name not in supplied
        and spec.entity_of_extent_var(name) is None
        and spec.index_map(name) is None)
    return [f"input {name!r} is read before written but not supplied"
            for name in missing]
