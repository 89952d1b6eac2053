"""``DESIGN.md`` stays in step with the code that cites it.

The code and tests cite interpretation notes as ``DESIGN.md §2.n``; each
note names the ``file:line`` that makes its reading, and §1 indexes the
paper artefacts the registry reproduces.  These checks fail when a
citation points at a missing section, a note points past the end of a
file, or the index and the registry disagree.  They also keep the retired
micro-benchmark tooling from coming back by name.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.registry import ARTEFACTS

REPO_ROOT = Path(__file__).resolve().parent.parent
DESIGN = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
THIS_FILE = Path(__file__).resolve()

#: ``DESIGN.md`` headings: ``## 1. Title`` and ``### 2.3 Title``.
HEADING = re.compile(r"^#{2,3} (\d+(?:\.\d+)?)\.? (.+)$", re.MULTILINE)
SECTIONS = {m.group(1): m.start() for m in HEADING.finditer(DESIGN)}
#: The sections that make claims about the code: the index and each note
#: (``2`` itself is only the heading of the notes).
ENTRIES = [n for n in SECTIONS if n != "2"]
#: A citation from code: the file name, a section sign and its number.
CITATION = re.compile("DESIGN" + r"\.md §(\d+(?:\.\d+)?)")
#: A code location inside a note: ``path:line`` or ``path:first-last``.
LOCATION = re.compile(r"`((?:src|tests)/[\w/.]+\.py):(\d+)(?:-(\d+))?`")


def section_body(number: str) -> str:
    """The text of one section, up to the next heading of any level."""
    start = SECTIONS[number]
    later = [pos for pos in SECTIONS.values() if pos > start]
    return DESIGN[start : min(later, default=len(DESIGN))]


def citations() -> list[tuple[str, str]]:
    """Every (file, section) pair cited from ``src/`` and ``tests/``."""
    found = set()
    for root in ("src", "tests"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.resolve() == THIS_FILE:
                continue
            for match in CITATION.finditer(path.read_text(encoding="utf-8")):
                found.add((path.relative_to(REPO_ROOT).as_posix(), match.group(1)))
    return sorted(found)


CITED = citations()


class TestCitations:
    def test_citations_are_found(self):
        """Guards the parametrization below: an empty scan checks nothing."""
        assert len(CITED) >= 10

    @pytest.mark.parametrize(
        "path, number", CITED, ids=[f"{p}-{n}" for p, n in CITED]
    )
    def test_cited_section_exists(self, path, number):
        assert number in SECTIONS, f"{path} cites DESIGN.md §{number}"


class TestNotes:
    @pytest.mark.parametrize("number", ENTRIES)
    def test_code_locations_exist(self, number):
        """Every ``file:line`` a section names is a line of that file."""
        body = section_body(number)
        locations = LOCATION.findall(body)
        assert locations, f"§{number} names no code location"
        for rel, first, last in locations:
            path = REPO_ROOT / rel
            assert path.is_file(), f"§{number}: {rel} does not exist"
            n_lines = len(path.read_text(encoding="utf-8").splitlines())
            lo, hi = int(first), int(last or first)
            assert 1 <= lo <= hi <= n_lines, f"§{number}: {rel}:{first}-{last}"

    def test_interpretation_notes_are_numbered_in_order(self):
        notes = [n for n in SECTIONS if n.startswith("2.")]
        assert notes == [f"2.{i}" for i in range(1, len(notes) + 1)]


def index_rows() -> list[tuple[str, tuple[str, ...]]]:
    """(registry id, cases) per row of §1's artefact table."""
    rows = []
    for line in section_body("1").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[1].startswith("`"):
            continue
        aid = cells[1].strip("`")
        spans = [s.strip() for s in cells[2].split(",")]
        cases = []
        for span in spans:
            first, _, last = span.partition("–")
            lo = int(first.removeprefix("case"))
            hi = int(last.removeprefix("case")) if last else lo
            cases.extend(f"case{i}" for i in range(lo, hi + 1))
        rows.append((aid, tuple(cases)))
    return rows


INDEX = index_rows()


class TestExperimentIndex:
    def test_index_covers_every_paper_artefact(self):
        """The registry's ids less the two extension artefacts."""
        assert {aid for aid, _ in INDEX} == set(ARTEFACTS) - {"mobility", "exchange"}

    @pytest.mark.parametrize("aid, cases", INDEX, ids=[aid for aid, _ in INDEX])
    def test_index_row_matches_registry(self, aid, cases):
        assert ARTEFACTS[aid].cases == cases


#: The micro-benchmark ledger and its tools, retired in favour of
#: ``perfbench/``.  The change log and the roadmap record them; the
#: program, its tests, scripts, CI and user docs must not name them.
RETIRED = ("BENCH_ENGINE", "check_perf_regression", "bench_engine_perf", "profile_engine")
SCANNED_DIRS = ("src", "tests", "scripts", "benchmarks", "examples", "scenarios", "results", ".github")
SCANNED_DOCS = ("README.md", "DESIGN.md", "pyproject.toml")
SCANNED_SUFFIXES = {".py", ".md", ".yml", ".yaml", ".json", ".toml", ".txt"}


def scanned_files() -> list[Path]:
    files = [REPO_ROOT / name for name in SCANNED_DOCS]
    for root in SCANNED_DIRS:
        files.extend(
            path
            for path in sorted((REPO_ROOT / root).rglob("*"))
            if path.is_file()
            and path.suffix in SCANNED_SUFFIXES
            and path.resolve() != THIS_FILE
            and "__pycache__" not in path.parts
        )
    return files


class TestRetiredTooling:
    @pytest.mark.parametrize("name", RETIRED)
    def test_name_is_not_referenced(self, name):
        hits = [
            path.relative_to(REPO_ROOT).as_posix()
            for path in scanned_files()
            if name in path.read_text(encoding="utf-8", errors="replace")
        ]
        assert not hits, f"{name} is still named in {hits}"
