"""b-file parsing, caching, the bundled snapshot, value-based alignment."""
import pytest

from shapewilf.equivalence import avoider_counts
from shapewilf.perms import parse_pattern_set
from shapewilf.oeis import (
    BFileParseError,
    ComparisonReport,
    OeisError,
    UnknownSequenceError,
    align_and_compare,
    bundled_sequence,
    fetch_sequence,
    parse_b_file,
    serialize_b_file,
)


def test_parse_and_serialize_roundtrip():
    text = "# comment\n0 1\n1 1\n2 2\n10 99\n"
    seq = parse_b_file(text, "A000000")
    assert seq.entries == ((0, 1), (1, 1), (2, 2), (10, 99))
    # round-trip is byte-stable modulo comments
    assert serialize_b_file(seq) == "0 1\n1 1\n2 2\n10 99\n"
    assert parse_b_file(serialize_b_file(seq)).entries == seq.entries


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BFileParseError) as err:
        parse_b_file("1 1\n2 2\n3 x\n")
    assert err.value.line_no == 3
    with pytest.raises(BFileParseError):
        parse_b_file("1 1\n1 2\n")  # non-increasing index
    with pytest.raises(BFileParseError):
        parse_b_file("1\n")
    with pytest.raises(BFileParseError):
        parse_b_file("1 -5\n")


def test_bundled_snapshot_present_and_consistent():
    seq = bundled_sequence("A224295")
    assert seq is not None
    assert seq.provenance == "bundled"
    values = seq.values()
    assert values[:6] == (1, 1, 2, 6, 24, 118)
    assert bundled_sequence("A000001") is None


def test_fetch_offline_falls_back_to_bundle(tmp_path):
    seq = fetch_sequence("A224295", cache_dir=tmp_path, offline=True)
    assert seq.provenance == "bundled"


def test_fetch_unknown_sequence(tmp_path):
    with pytest.raises(UnknownSequenceError):
        fetch_sequence("A000001", cache_dir=tmp_path, offline=True)
    with pytest.raises(OeisError):
        fetch_sequence("bogus", cache_dir=tmp_path)


def test_fetch_caches_and_replays_identically(tmp_path):
    payload = b"# fake\n1 1\n2 3\n3 9\n"
    calls = []

    def fake_fetcher(url):
        calls.append(url)
        return payload

    first = fetch_sequence("A000244", cache_dir=tmp_path, fetcher=fake_fetcher)
    assert first.provenance == "network"
    assert len(calls) == 1
    # second call must come from the cache, byte-identical, no network
    second = fetch_sequence("A000244", cache_dir=tmp_path, offline=True)
    assert second.provenance == "cache"
    assert second.entries == first.entries
    assert (tmp_path / "A000244.txt").read_bytes() == payload


def test_fetch_failure_falls_back(tmp_path):
    def broken_fetcher(url):
        raise OSError("no route")

    seq = fetch_sequence("A224295", cache_dir=tmp_path, fetcher=broken_fetcher)
    assert seq.provenance == "bundled"


def test_alignment_full_match():
    seq = bundled_sequence("A224295")
    computed = avoider_counts(parse_pattern_set("{12345,12354}"), 6)
    report = align_and_compare(computed, seq)
    assert report.matched_prefix_length == 6
    assert report.first_mismatch is None
    # the n=1 value 1 appears at both index 0 and 1; alignment must pick
    # the shift that keeps matching
    assert report.alignment_offset == 1


def test_alignment_detects_catalan_mismatch():
    seq = bundled_sequence("A224295")
    catalan = [1, 2, 5, 14, 42, 132]
    report = align_and_compare(catalan, seq)
    assert report.first_mismatch is not None
    assert report.first_mismatch[0] <= 5
    assert report.matched_prefix_length < len(catalan)


def test_alignment_three_terms_all_match():
    seq = parse_b_file("5 7\n6 9\n7 13\n8 20\n")
    report = align_and_compare([7, 9, 13], seq)
    assert report.matched_prefix_length == 3
    assert report.alignment_offset == 5


def test_alignment_requires_three_terms():
    with pytest.raises(ValueError):
        align_and_compare([1, 2], bundled_sequence("A224295"))


def test_alignment_no_anchor():
    seq = parse_b_file("1 5\n2 6\n")
    report = align_and_compare([3, 4, 5], seq)
    assert report.matched_prefix_length == 0
    assert report.alignment_offset is None


def test_alignment_capped_by_published_data():
    seq = parse_b_file("1 1\n2 2\n3 6\n")
    report = align_and_compare([1, 2, 6, 24, 118], seq)
    assert report.matched_prefix_length == 3
    assert report.first_mismatch is None


def test_full_match_is_bounded_by_the_entries_from_the_anchor_on():
    # Catalan C_0 .. C_10; the computed C_1 .. C_11 anchor at index 1, so
    # only 10 entries lie from the anchor on, and the 11th term is unpublished
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
    seq = parse_b_file("".join(f"{i} {c}\n" for i, c in enumerate(catalan[:11])))
    for terms in (catalan[1:11], catalan[1:]):
        report = align_and_compare(terms, seq)
        assert (report.alignment_offset, report.matched_prefix_length) == (1, 10)
        assert report.first_mismatch is None and report.full_match, len(terms)
    wrong = align_and_compare(catalan[1:10] + [16797], seq)
    assert wrong.first_mismatch == (10, 16797, 16796) and not wrong.full_match
    assert not align_and_compare([3, 4, 5], seq).full_match  # no anchor


def test_a_tie_goes_to_the_anchor_with_no_mismatch():
    # anchors 1 and 4 both verify two terms; anchor 1 stops at a mismatch
    # and anchor 4 at the end of the published data
    seq = parse_b_file("1 1\n2 2\n3 5\n4 1\n5 2\n")
    report = align_and_compare([1, 2, 6], seq)
    assert report == ComparisonReport(2, 4, None) and report.full_match
    # a tie between two runs with no mismatch goes to the earliest anchor
    seq = parse_b_file("1 1\n2 2\n3 3\n4 1\n5 2\n6 3\n")
    assert align_and_compare([1, 2, 3], seq) == ComparisonReport(3, 1, None)
    # a longer run still beats a shorter one with no mismatch
    seq = parse_b_file("1 1\n2 2\n3 5\n4 1\n")
    assert align_and_compare([1, 2, 6], seq) == ComparisonReport(2, 1, (3, 6, 5))
