"""Parsing and formatting the plain-text set file format, and reading set files.

Layout::

    # optional comments anywhere
    basis: 1=1.0, sqrt2=1.4142135623730951   (header; omit for rational sets)
    0, 0
    1, 0
    0, 1

Each element line holds one rational per basis coordinate ("p/q" or "p").
Without a basis header every line is a single rational. Output is always
sorted ascending.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SetFormatError
from .model import BasisDecl, FiniteSet, RealElement, parse_fraction


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _parse_rational(token: str, lineno: int) -> Fraction:
    try:
        return parse_fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SetFormatError(f"bad rational {token.strip()!r}: {exc}", lineno) from None


def _parse_basis(body: str, lineno: int) -> BasisDecl:
    labels, approx = [], []
    for part in body.split(","):
        part = part.strip()
        if "=" not in part:
            raise SetFormatError(f"basis entry {part!r} is not label=value", lineno)
        label, _, value = part.partition("=")
        labels.append(label.strip())
        try:
            approx.append(float(value.strip()))
        except ValueError:
            raise SetFormatError(f"bad basis approximation {value.strip()!r}", lineno) from None
    try:
        return BasisDecl(tuple(labels), tuple(approx))
    except ValueError as exc:
        raise SetFormatError(str(exc), lineno) from None


def parse_set(text: str) -> FiniteSet:
    basis: BasisDecl | None = None
    elements: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("basis:"):
            if basis is not None:
                raise SetFormatError("duplicate basis header", lineno)
            if elements:
                raise SetFormatError("basis header must precede elements", lineno)
            basis = _parse_basis(line[len("basis:"):], lineno)
            continue
        tokens = line.split(",")
        if basis is None:
            if len(tokens) != 1:
                raise SetFormatError(
                    "coordinate vector given but no basis header declared", lineno
                )
            elements.append(_parse_rational(tokens[0], lineno))
        else:
            if len(tokens) != basis.dimension:
                raise SetFormatError(
                    f"expected {basis.dimension} coordinates, got {len(tokens)}", lineno
                )
            coords = tuple(_parse_rational(t, lineno) for t in tokens)
            elements.append(RealElement(basis, coords))
    if not elements:
        raise SetFormatError("no elements in set file")
    try:
        return FiniteSet(elements)
    except ValueError as exc:
        raise SetFormatError(str(exc)) from None


def format_set(A: FiniteSet) -> str:
    lines = []
    if A.basis is not None:
        header = ", ".join(f"{l}={a!r}" for l, a in zip(A.basis.labels, A.basis.approx))
        lines.append(f"basis: {header}")
        for x in A:
            lines.append(", ".join(str(c) for c in x.coords))
    else:
        lines.extend(str(x) for x in A)
    return "\n".join(lines) + "\n"


def read_set_file(path) -> FiniteSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_set(fh.read())

