"""
OEIS b-file access: fetch, cache, and compare sequence data.

b-files are plain text, one "index value" pair per line, with '#' comment
lines.  Network access goes through a single pluggable fetcher so the
module is fully testable offline; a locally generated snapshot of A224295
ships with the package and is used when neither network nor cache is
available.  The network stack is imported only for a fetch.

Comparison against computed avoider counts uses value-based alignment:
the published offset of a sequence is never trusted, the computed n=1
term is matched against every equal b-file entry instead and the longest
verified run wins, a run with no mismatch winning a tie.  The report's
``full_match`` is the one pass/fail verdict of ``oeis compare`` and the
suites.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence as Seq

OEIS_URL_TEMPLATE = "https://oeis.org/{id}/b{digits}.txt"
CACHE_ENV_VAR = "SHAPEWILF_OEIS_CACHE"
_BUNDLED = {"A224295": "b224295.txt"}

Fetcher = Callable[[str], bytes]


class OeisError(Exception):
    pass


class BFileParseError(OeisError):
    def __init__(self, line_no: int, line: str, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}: {line.rstrip()!r}")


class UnknownSequenceError(OeisError):
    pass


@dataclass(frozen=True)
class Sequence:
    id: str
    entries: tuple[tuple[int, int], ...]  # (index, value), indices increasing
    provenance: str  # "network" | "cache" | "bundled"

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)


@dataclass(frozen=True)
class ComparisonReport:
    matched_prefix_length: int
    alignment_offset: Optional[int]  # b-file index aligned with computed n=1
    first_mismatch: Optional[tuple[int, int, int]]  # (n, computed, published)

    @property
    def aligned(self) -> bool:
        return self.alignment_offset is not None

    @property
    def full_match(self) -> bool:
        """The terms align and none disagrees with the published one, so
        the matched run ends at the last computed term or at the last
        published entry, counted from the anchor on."""
        return self.aligned and self.first_mismatch is None


def parse_b_file(text: str, seq_id: str = "?", provenance: str = "cache") -> Sequence:
    """
    Parse b-file text; lines are "index value", '#' comments are skipped.

    >>> parse_b_file("# c\\n1 1\\n2 2\\n", "A000001").entries
    ((1, 1), (2, 2))
    >>> parse_b_file("1 1\\n2 2\\n3 x\\n")
    Traceback (most recent call last):
        ...
    shapewilf.oeis.BFileParseError: line 3: bad value: '3 x'
    """
    entries: list[tuple[int, int]] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise BFileParseError(line_no, line, "expected 'index value'")
        try:
            idx = int(parts[0])
        except ValueError:
            raise BFileParseError(line_no, line, "bad index") from None
        try:
            val = int(parts[1])
        except ValueError:
            raise BFileParseError(line_no, line, "bad value") from None
        if val < 0:
            raise BFileParseError(line_no, line, "negative value")
        if entries and idx <= entries[-1][0]:
            raise BFileParseError(line_no, line, "indices must increase")
        entries.append((idx, val))
    return Sequence(seq_id, tuple(entries), provenance)


def serialize_b_file(seq: Sequence) -> str:
    """Round-trips with parse_b_file modulo comments."""
    return "".join(f"{i} {v}\n" for i, v in seq.entries)


def _default_fetcher(url: str) -> bytes:
    import urllib.request

    with urllib.request.urlopen(url, timeout=30) as resp:  # pragma: no cover
        return resp.read()


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "shapewilf" / "oeis"


def bundled_sequence(seq_id: str) -> Optional[Sequence]:
    """The snapshot shipped with the package, if any."""
    filename = _BUNDLED.get(seq_id)
    if filename is None:
        return None
    text = resources.files("shapewilf").joinpath("data", filename).read_text()
    return parse_b_file(text, seq_id, provenance="bundled")


def fetch_sequence(
    seq_id: str,
    *,
    cache_dir: Optional[Path | str] = None,
    offline: bool = False,
    fetcher: Optional[Fetcher] = None,
) -> Sequence:
    """
    Return the parsed b-file for an OEIS id, trying the local cache, then
    the network (unless offline), then the bundled snapshot.  A successful
    network fetch is written to the cache, so later offline calls return
    identical entries.
    """
    seq_id = seq_id.strip()
    if not (seq_id.startswith("A") and seq_id[1:].isdigit() and len(seq_id) == 7):
        raise OeisError(f"malformed OEIS id {seq_id!r} (expected e.g. 'A224295')")
    cache_path = Path(cache_dir) if cache_dir else default_cache_dir()
    cache_file = cache_path / f"{seq_id}.txt"
    if cache_file.exists():
        return parse_b_file(cache_file.read_text(), seq_id, provenance="cache")
    if not offline:
        try:
            url = OEIS_URL_TEMPLATE.format(id=seq_id, digits=seq_id[1:])
            raw = (fetcher or _default_fetcher)(url)
            text = raw.decode("utf-8")
            seq = parse_b_file(text, seq_id, provenance="network")
            cache_path.mkdir(parents=True, exist_ok=True)
            cache_file.write_text(text)
            return seq
        except (OSError, UnicodeDecodeError):
            pass  # fall through to the bundled snapshot
    bundled = bundled_sequence(seq_id)
    if bundled is not None:
        return bundled
    raise UnknownSequenceError(
        f"{seq_id}: no cache entry, no bundled snapshot"
        + ("" if offline else ", and the network fetch failed")
    )


def align_and_compare(computed: Seq[int], seq: Sequence) -> ComparisonReport:
    """
    Match computed terms (indexed by n starting at 1) against a run of
    consecutive b-file entries.  The alignment anchors the n=1 term on
    every b-file entry with an equal value; the anchor verifying the
    longest prefix wins.  Among equal prefixes, a run with no mismatch
    beats one that stops at a mismatch, and then the earliest anchor
    wins.  The run stops at the first mismatch or at the end of the
    published data, so it is a full match when no term mismatches,
    wherever the anchor sits.

    >>> seq = parse_b_file("0 1\\n1 1\\n2 2\\n3 6\\n4 24\\n")
    >>> report = align_and_compare([1, 2, 6, 24, 120], seq)
    >>> report
    ComparisonReport(matched_prefix_length=4, alignment_offset=1, first_mismatch=None)
    >>> report.full_match
    True
    """
    terms = list(computed)
    if len(terms) < 3:
        raise ValueError(f"need at least 3 computed terms, got {len(terms)}")
    best = ComparisonReport(0, None, None)
    for start, (idx, val) in enumerate(seq.entries):
        if val != terms[0]:
            continue
        matched = 0
        mismatch = None
        for n, term in enumerate(terms, 1):
            pos = start + n - 1
            if pos >= len(seq.entries):
                break  # published data exhausted; prefix so far stands
            published = seq.entries[pos][1]
            if term != published:
                mismatch = (n, term, published)
                break
            matched += 1
        if best.alignment_offset is None or (matched, mismatch is None) > (
            best.matched_prefix_length, best.first_mismatch is None
        ):
            best = ComparisonReport(matched, idx, mismatch)
    return best
