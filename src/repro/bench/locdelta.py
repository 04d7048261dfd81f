"""DIFT integration cost in lines of code (paper Section V-B1).

The paper reports that integrating the DIFT engine touched **6.81 %** of
the original VP's lines, of which **58.7 %** were plain type conversions.
This module computes the analogous measurement for this repository: it
scans the VP packages (``repro.vp`` + ``repro.sysc``) and classifies each
code line as DIFT-related or not, using the taint/tag vocabulary of the
engine as the marker (the Python analogue of grepping a C++ VP for
``Taint<`` / tag plumbing).

The absolute percentage differs from the paper (Python needs explicit
parallel tag arrays where C++ hides them behind operator overloading),
but the measurement machinery — and the claim that the touched fraction
is small — carries over.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List

#: markers identifying a DIFT-related line of VP code
_DIFT_MARKERS = re.compile(
    r"tag|taint|dift|lub|clearance|classif|declassif|violation|flow\[",
    re.IGNORECASE)

#: markers identifying a pure type/plumbing conversion within those
_CONVERSION_MARKERS = re.compile(
    r"tags\s*[:=]|tags\s*\)|bytearray|Optional\[|bytes\(\[", re.IGNORECASE)


@dataclass
class FileDelta:
    path: str
    code_lines: int
    dift_lines: int
    conversion_lines: int


@dataclass
class LocReport:
    files: List[FileDelta]

    @property
    def total_lines(self) -> int:
        return sum(f.code_lines for f in self.files)

    @property
    def dift_lines(self) -> int:
        return sum(f.dift_lines for f in self.files)

    @property
    def conversion_lines(self) -> int:
        return sum(f.conversion_lines for f in self.files)

    @property
    def dift_fraction(self) -> float:
        return self.dift_lines / self.total_lines if self.total_lines else 0.0

    @property
    def conversion_fraction(self) -> float:
        """Fraction of DIFT lines that are mere type conversions."""
        return (self.conversion_lines / self.dift_lines
                if self.dift_lines else 0.0)

    def summary(self) -> str:
        return (
            f"VP code lines: {self.total_lines}; DIFT-related: "
            f"{self.dift_lines} ({100 * self.dift_fraction:.2f}%); "
            f"type-conversion share of those: "
            f"{100 * self.conversion_fraction:.1f}%  "
            f"[paper: 6.81% touched, 58.7% conversions]")


#: tokens that are layout, not code
_LAYOUT = frozenset((tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                     tokenize.ENDMARKER))


def _code_lines(text: str) -> List[int]:
    """Numbers of the lines that hold code.

    Blank lines, comments and docstrings (any string literal that is a
    statement of its own) do not count, wherever the docstring's quotes
    open or close.
    """
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _LAYOUT)
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return sorted(lines)


def analyze_file(path: Path) -> FileDelta:
    text = path.read_text()
    lines = text.splitlines()
    code = dift = conv = 0
    for number in _code_lines(text):
        line = lines[number - 1]
        code += 1
        if _DIFT_MARKERS.search(line):
            dift += 1
            if _CONVERSION_MARKERS.search(line):
                conv += 1
    return FileDelta(str(path), code, dift, conv)


def analyze(packages: Iterable[str] = ("vp", "sysc")) -> LocReport:
    """Analyze the VP substrate packages of this repository."""
    root = Path(__file__).resolve().parent.parent
    files: List[FileDelta] = []
    for package in packages:
        for path in sorted((root / package).rglob("*.py")):
            files.append(analyze_file(path))
    return LocReport(files)


def per_file_breakdown(report: LocReport) -> Dict[str, float]:
    """File -> DIFT-line fraction, for the most-touched-module view."""
    return {
        Path(f.path).name: (f.dift_lines / f.code_lines if f.code_lines
                            else 0.0)
        for f in report.files
    }
