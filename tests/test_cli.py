"""CLI surface: subcommands, notations, output formats, exit codes."""
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from shapewilf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_av_rows(capsys):
    code, out, _ = run(capsys, "count-av", "--set", "12345,12354", "--n", "5")
    assert code == 0
    assert out.splitlines()[-1].split() == ["5", "118"]

    code, out, _ = run(capsys, "count-av", "--set", "12", "--n", "3")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[1:]] == ["1", "1", "1"]

    code, out, _ = run(capsys, "count-av", "--set", "{312,321,231}", "--n", "3")
    assert code == 0
    assert out.splitlines()[-1].split() == ["3", "3"]


def test_count_av_csv_format(capsys):
    code, out, _ = run(capsys, "--format", "csv", "count-av", "--set", "123", "--n", "4")
    assert code == 0
    assert out.splitlines()[0] == "n,count"
    assert out.splitlines()[-1] == "4,14"


def test_check_wilf_equal_and_divergent(capsys):
    code, _, err = run(
        capsys, "check", "wilf", "--left", "{12345,12354}",
        "--right", "{45123,45213}", "--n", "6",
    )
    assert code == 0
    assert "equal" in err

    code, out, _ = run(capsys, "check", "wilf", "--left", "{123}", "--right", "{12}", "--n", "3")
    assert code == 1
    # fail-fast: stops at the divergent n=2
    assert out.splitlines()[-1].split()[0] == "2"


def test_check_shape_wilf(capsys):
    code, _, _ = run(
        capsys, "check", "shape-wilf", "--left", "{12}", "--right", "{21}", "--n", "4"
    )
    assert code == 0

    code, out, err = run(
        capsys, "--format", "csv", "check", "shape-wilf",
        "--left", "{213,312}", "--right", "{123,132}", "--n", "5",
    )
    assert code == 1
    assert out.splitlines()[0] == "n,board,left_count,right_count,equal"
    assert '"[4,4,4,3]",8,10,False' in out
    assert "diverges" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "check", "wilf", "--left", "{1x}", "--right", "{12}")[0] == 2
    assert run(capsys, "count-av", "--set", "")[0] == 2
    assert run(capsys, "suite", "no-such-suite")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "bijection", "fan", "--filling", "[2,2]/12")[0] == 2
    assert run(capsys, "--threads", "2", "count-av", "--set", "12", "--n", "3")[0] == 2


def test_help_goes_to_stdout_and_exits_0(capsys):
    for argv in [("-h",), ("count-av", "-h"), ("suite", "--help")]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: shapewilf "), argv


def test_bijection_takes_one_expression_and_three_options(capsys):
    code, out, _ = run(capsys, "bijection", "-h")
    assert code == 0
    assert " ".join(out.split("\n\n")[0].split()) == (
        "usage: shapewilf bijection [-h] (--filling FILLING | --verify N_MAX) [--trace] EXPR"
    )
    assert set(re.findall(r"--[a-z-]+", out)) == {"--help", "--filling", "--verify", "--trace"}


def test_malformed_sets_and_negative_n_exit_2_with_one_error_line(capsys):
    for argv in [
        ("count-av", "--set", "{21,12,}", "--n", "3"),
        ("count-av", "--set", "12", "--n", "-1"),
        ("oeis", "compare", "--set", "12", "--n", "-1"),
        ("check", "wilf", "--left", "{123}", "--right", "{132}", "--n", "-3"),
        ("check", "shape-wilf", "--left", "{12}", "--right", "{21}", "--n", "-3"),
        ("bijection", "fan(3,1,3)", "--verify", "-2"),
        ("boards", "--n", "-1"),
        ("suite", "negative-controls", "--n-shape", "0"),
        ("suite", "main-conjecture", "--n-wilf", "0"),
        ("suite", "main-conjecture", "--n-bijection", "-1"),
        ("suite", "conjecture-13452", "--n-oeis", "0"),
        ("suite", "all", "--n-oeis", "2"),
        ("bijection", "fan(3,1,3)", "--filling", "[3,3,3]/12"),
        # argparse's own usage errors; it reads "-inf" as a flag
        ("--time-budget", "-inf", "count-av", "--set", "{123,132}"),
        ("count-av", "--n", "3"),
        ("nonsense",),
        ("check", "wilf", "--left", "12", "--right", "21", "--n", "x"),
    ]:
        code, out, err = run(capsys, "--offline", *argv)
        assert code == 2, argv
        assert out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
        if "--filling" in argv:
            assert err == "error: 2 rows for 3 columns\n", argv


def test_a_fan_of_size_0_is_named_as_the_bad_size(capsys):
    # the error names the bad size, not the apex; an int is a run of
    # digits, so a negative size is a parse error
    for expr in ("fan(0,1,3)", "fan-bottom-last(0)"):
        code, out, err = run(capsys, "bijection", expr, "--verify", "2")
        assert (code, out, err) == (2, "", "error: POP size must be >= 1, got 0\n"), expr
    code, out, err = run(capsys, "bijection", "fan(-3,1,3)", "--verify", "2")
    assert (code, out, err) == (
        2, "", "error: expected an integer at position 4 in 'fan(-3,1,3)'\n"
    )


N = object()  # stands for a size drawn by the property below
TEXT = object()  # stands for a text drawn by the property below


def _drawn(command, draw):
    """The command with each stand-in drawn; a tuple of parts, stand-ins
    among them, is drawn part by part and joined into one argument."""
    def token(part):
        return draw() if part is N or part is TEXT else part

    return ["".join(map(token, tok)) if isinstance(tok, tuple) else token(tok)
            for tok in command]


SIZE_COMMANDS = [
    ("count-av", "--set", "{123}", "--n", N),
    ("oeis", "compare", "--set", "{123}", "--n", N),
    ("check", "wilf", "--left", "{123}", "--right", "{132}", "--n", N),
    ("check", "shape-wilf", "--left", "{12}", "--right", "{21}", "--n", N),
    ("suite", "corollary-13", "--n-wilf", N),
    ("suite", "negative-controls", "--n-shape", N),
    ("suite", "conjecture-13452", "--n-oeis", N),
    ("suite", "main-conjecture", "--n-wilf", N, "--n-shape", N, "--n-bijection", N,
     "--n-oeis", N),
    ("bijection", ("fan(", N, ",", N, ",", N, ")"), "--verify", N),
    ("bijection", ("fan-bottom-last(", N, ")"), "--verify", N),
    ("boards", "--n", N),
]

# a positive size is a run time, so only the negative side is unbounded
SIZES = (st.integers(min_value=1, max_value=4) | st.integers(min_value=-3, max_value=0)
         | st.integers(max_value=-4))


@given(st.sampled_from(SIZE_COMMANDS), st.data())
@settings(max_examples=100, deadline=None)
def test_every_size_option_exits_0_1_or_2(command, data):
    argv = _drawn(command, lambda: str(data.draw(SIZES)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--offline", *argv])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv


def test_time_budget_zero_keeps_n_rows(capsys):
    code, out, _ = run(
        capsys, "--time-budget", "0", "--format", "csv",
        "count-av", "--set", "{123}", "--n", "5",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["1,1", "2,2", "3,5", "4,14", "5,42"]


def test_time_budget_starts_no_level_it_cannot_finish(capsys):
    # the n=10 hub count costs about 7 times the n=9 one, far above 0.5 s
    code, out, _ = run(
        capsys, "--time-budget", "0.5", "--format", "csv",
        "count-av", "--set", "{12345,12354}", "--n", "9",
    )
    assert code == 0
    assert len(out.splitlines()[1:]) == 9


def test_time_budget_extends_counts_up_to_the_cap(capsys):
    from shapewilf.equivalence import BUDGET_CAP

    # Av(123, 132) has 2^(n-1) members: cheap enough to reach the cap
    code, out, _ = run(
        capsys, "--time-budget", "60", "--format", "csv",
        "count-av", "--set", "{123,132}", "--n", "3",
    )
    assert code == 0
    assert out.splitlines()[1:] == [f"{n},{2 ** (n - 1)}" for n in range(1, BUDGET_CAP + 1)]

    code, out, _ = run(
        capsys, "--offline", "--time-budget", "60", "--format", "json-lines",
        "oeis", "compare", "A224295", "--set", "{123,132}", "--n", "3",
    )
    assert json.loads(out)["computed_terms"] == BUDGET_CAP


def test_bijection_single_shot(capsys):
    code, out, _ = run(
        capsys, "bijection", "fan(3,1,3)", "--filling", "[3,3,3]/231",
    )
    assert code == 0
    assert out.strip() == "[3,3,3]/321"


def test_bijection_trace(capsys):
    code, out, _ = run(
        capsys, "bijection", "fan(3,1,3)", "--filling", "[3,3,3]/231", "--trace",
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("# peel")) == 3
    assert lines[-1] == "[3,3,3]/321"


def test_bijection_trace_of_every_bijection_is_pinned(capsys):
    cases = [
        (("fan-bottom-last(3)", "--filling", "[4,4,4,3]/3412"), [
            "# peel level 1: ell=3 pos=2 slots=[1, 2] rank=1",
            "# peel level 2: ell=3 pos=1 slots=[1, 2] rank=0",
            "# peel level 3: ell=2 pos=2 slots=[1, 2] rank=1",
            "# peel level 4: ell=1 pos=1 slots=[1] rank=0",
            "# rebuild level 1: ell=1 slots=[1] rank=0 pos=1",
            "# rebuild level 2: ell=2 slots=[1, 2] rank=1 pos=2",
            "# rebuild level 3: ell=3 slots=[2, 3] rank=0 pos=2",
            "# rebuild level 4: ell=3 slots=[2, 3] rank=1 pos=3",
            "[4,4,4,3]/1423",
        ]),
        (("wedge-valley({132,213},{213,312})", "--filling", "[4,4,4,4]/3421"), [
            "# peel level 1: ell=4 pos=2 slots=[1, 2] rank=1",
            "# peel level 2: ell=3 pos=1 slots=[1, 2] rank=0",
            "# peel level 3: ell=2 pos=1 slots=[1, 2] rank=0",
            "# note: top-row columns hold no 1 below the top row; "
            "all (one) insertion slots valid",
            "# peel level 4: ell=1 pos=1 slots=[1] rank=0",
            "# note: top-row columns hold no 1 below the top row; "
            "all (one) insertion slots valid",
            "# rebuild level 1: ell=1 slots=[1] rank=0 pos=1",
            "# rebuild level 2: ell=2 slots=[1, 2] rank=0 pos=1",
            "# rebuild level 3: ell=3 slots=[1, 2] rank=0 pos=1",
            "# rebuild level 4: ell=4 slots=[1, 2] rank=1 pos=2",
            "[4,4,4,4]/3421",
        ]),
        (("transfer(fan(3,3,1),{12})", "--filling", "[5,5,5,5,5]/13245"), [
            "# transfer: 3 red columns -> inner board [3,3,3]/132; blue rows [4, 5]",
            "[5,5,5,5,5]/12345",
        ]),
        # the red region (column 1, row 1) holds no 1: the filling is its
        # own image, and the trace line is still written
        (("transfer(fan(3,3,1),{12})", "--filling", "[4,4,4,4]/4231"), [
            "# transfer: 0 red columns -> inner board []/; blue rows [1, 2, 3, 4]",
            "[4,4,4,4]/4231",
        ]),
    ]
    for argv, lines in cases:
        code, out, _ = run(capsys, "bijection", *argv, "--trace")
        assert code == 0, argv
        assert out == "\n".join(lines) + "\n", argv


def test_bijection_precondition_exit_1(capsys):
    code, _, err = run(
        capsys, "bijection", "fan(3,1,3)", "--filling", "[3,3,3]/312",
    )
    assert code == 1
    assert err == "bijection failed: input filling contains a pattern of {312,321}\n"


def test_bijection_verify(capsys):
    code, out, _ = run(
        capsys, "bijection", "wedge-valley({132,213},{213,312})", "--verify", "4",
    )
    assert code == 0
    assert "OK" in out


def test_bijection_transfer_identity(capsys):
    code, out, _ = run(
        capsys, "bijection", "transfer(fan(3,3,1),{12})", "--filling", "[4,4,4,4]/4321",
    )
    assert code == 0
    assert out.strip() == "[4,4,4,4]/4321"


def test_bijection_transfer_runs_any_inner_map(capsys):
    # step 2 of the proof chain, and a transfer whose inner map is no fan
    for expr, line in [
        ("transfer(fan(2,2,1),{231,321})",
         "transfer[fan k=2 apex 2->1] (+) {231,321}: OK on 64 boards / 1067 fillings (n <= 5)"),
        ("transfer(wedge-valley({132,213},{213,312}),{12})",
         "transfer[wedge-valley {132,213}->{213,312}] (+) {12}: "
         "OK on 64 boards / 1067 fillings (n <= 5)"),
    ]:
        assert run(capsys, "bijection", expr, "--verify", "5") == (0, line + "\n", ""), expr


def test_bijection_malformed_expressions_exit_2_with_one_error_line(capsys):
    cases = [
        ("transfer(fan(3,3,1))", "expected ',' at position 19 in 'transfer(fan(3,3,1))'"),
        ("transfer({123,213},{12})",
         "expected one of fan, fan-bottom-last, wedge-valley, transfer "
         "at position 9 in 'transfer({123,213},{12})'"),
        ("fan(3,1,3", "expected ')' at position 9 in 'fan(3,1,3'"),
        ("fan(3,1,3)+12", "trailing input at position 10 in 'fan(3,1,3)+12'"),
        ("fan(3,1,x)", "expected an integer at position 8 in 'fan(3,1,x)'"),
        ("fan(3,4,1)", "apex 4 out of range 1..3"),
        ("wedge-valley({12,21},{213,312})",
         "no top-row slot rule for {12,21}; known pairs: {123,213}, {132,213}, "
         "{132,231}, {213,312}, {231,312}, {312,321}"),
        ("transfer(fan(3,3,1),{1x})", "expected '}' at position 22 in 'transfer(fan(3,3,1),{1x})'"),
    ]
    for expr, message in cases:
        code, out, err = run(capsys, "bijection", expr, "--verify", "2")
        assert (code, out, err) == (2, "", f"error: {message}\n"), expr


def test_bijection_takes_exactly_one_of_filling_and_verify(capsys):
    for argv, message in [
        (("--filling", "[3,3,3]/231", "--verify", "3"),
         "argument --verify: not allowed with argument --filling"),
        ((), "one of the arguments --filling --verify is required"),
        # the retired per-map flags
        (("--k", "3", "--verify", "3"), "unrecognized arguments: --k 3"),
    ]:
        code, out, err = run(capsys, "bijection", "fan(3,1,3)", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_boards_listing(capsys):
    code, out, err = run(capsys, "boards", "--n", "3")
    assert code == 0
    assert [l.strip() for l in out.splitlines()[1:]] == [
        "[3,3,3]", "[3,3,2]", "[3,3,1]", "[3,2,2]", "[3,2,1]"
    ]
    assert "5 boards" in err


def test_fillings_listing_and_count(capsys):
    code, out, _ = run(capsys, "fillings", "--board", "[3,3,1]")
    assert code == 0
    assert [l.strip() for l in out.splitlines()[1:]] == ["[3,3,1]/231", "[3,3,1]/321"]

    code, out, _ = run(
        capsys, "fillings", "--board", "[3,3,3]", "--avoid", "{123,213}",
        "--count-only",
    )
    assert code == 0
    assert out.strip() == "4"

    code, out, _ = run(
        capsys, "--format", "csv", "fillings", "--board", "[3,3,1]", "--count-only"
    )
    assert out.splitlines() == ["board,count", '"[3,3,1]",2']


def test_fillings_count_only_bytes(capsys):
    argv = ("fillings", "--board", "[3,3,1]", "--count-only")
    _, out, _ = run(capsys, "--format", "csv", *argv)
    assert out == 'board,count\r\n"[3,3,1]",2\r\n'
    _, out, _ = run(capsys, "--format", "json-lines", *argv)
    assert out == '{"board":"[3,3,1]","count":2}\n'


def test_oeis_verdict_is_one_rule_for_suite_and_compare(capsys, tmp_path):
    # a cached b-file whose n=9 term is wrong: under a time budget the
    # counts run past --n-oeis 8 onto it, and both paths must fail
    from shapewilf.equivalence import avoider_counts
    from shapewilf.perms import parse_pattern_set

    terms = [1, 2, 6, 24, 118, 672, 4256, 29176, 212587]
    (tmp_path / "A224295.txt").write_text(
        "".join(f"{n} {t}\n" for n, t in enumerate(terms, 1))
    )
    # warm the class cache so that level 9 is a lookup, well inside the budget
    avoider_counts(parse_pattern_set("{13452,23451}"), 9)
    common = ("--offline", "--cache-dir", str(tmp_path), "--time-budget", "0.5",
              "--format", "json-lines")
    code, out, _ = run(capsys, *common, "suite", "conjecture-13452", "--n-oeis", "8")
    rec = json.loads(out)
    assert (code, rec["verdict"]) == (1, "FAIL")
    assert rec["witness"]["first_mismatch"] == [9, 212586, 212587]

    code, out, _ = run(
        capsys, *common, "oeis", "compare", "A224295", "--set", "{13452,23451}",
        "--n", "8",
    )
    assert (code, json.loads(out)["first_mismatch"]) == (1, [9, 212586, 212587])


def test_oeis_fetch_and_compare_offline(capsys, tmp_path):
    code, out, err = run(
        capsys, "--offline", "--cache-dir", str(tmp_path), "oeis", "fetch", "A224295"
    )
    assert code == 0
    assert "bundled" in err

    code, out, _ = run(
        capsys, "--offline", "--cache-dir", str(tmp_path), "--format", "json-lines",
        "oeis", "compare", "A224295", "--set", "{12345,12354}", "--n", "6",
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["matched_prefix_length"] == 6

    code, _, _ = run(
        capsys, "--offline", "--cache-dir", str(tmp_path),
        "oeis", "compare", "A224295", "--set", "{123}", "--n", "6",
    )
    assert code == 1


def test_suite_negative_controls_json_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "--offline", "--format", "json-lines", "suite", "negative-controls"
    )
    code2, out2, _ = run(
        capsys, "--offline", "--format", "json-lines", "suite", "negative-controls"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    rec = json.loads(out1.splitlines()[0])
    assert rec["verdict"] == "pass"
    assert rec["witness"]["board"] == "[4,4,4,3]"
    assert "wall_time_ms" not in rec


def test_suite_timings_flag(capsys):
    code, out, _ = run(
        capsys, "--offline", "--timings", "--format", "json-lines",
        "suite", "negative-controls",
    )
    assert code == 0
    assert "wall_time_ms" in json.loads(out.splitlines()[0])


def test_suite_labels(capsys):
    code, out, _ = run(
        capsys, "--offline", "--format", "json-lines", "suite",
        "conjecture-fan-minus-one", "--n-shape", "4",
    )
    assert code == 0
    for line in out.splitlines():
        assert json.loads(line)["label"] == "EVIDENCE"


# each command holds one text drawn by the property below, in an option or
# as a part of an expression
TEXT_COMMANDS = [
    ("count-av", "--n", "4", ("--set=", TEXT)),
    ("oeis", "compare", "--n", "4", ("--set=", TEXT)),
    ("check", "wilf", "--right={12}", "--n", "4", ("--left=", TEXT)),
    ("check", "shape-wilf", "--left={21}", "--n", "3", ("--right=", TEXT)),
    ("fillings", ("--board=", TEXT)),
    ("fillings", "--count-only", ("--board=", TEXT)),
    ("fillings", "--board=[3,3,2]", ("--avoid=", TEXT)),
    ("bijection", "fan(3,1,3)", ("--filling=", TEXT)),
    ("bijection", "--filling=[3,3,3]/321", ("wedge-valley(", TEXT, ",{213,312})")),
    ("bijection", "--filling=[4,4,4,4]/4321", ("transfer(fan(3,3,1),", TEXT, ")")),
    ("bijection", "transfer(fan(3,3,1),{12})", ("--filling=", TEXT)),
    ("bijection", "--verify=2", ("transfer(", TEXT, ",{12})")),
    ("bijection", "--verify=2", (TEXT,)),
]

# near-valid notation, short texts from the notations' own alphabet, and
# any text at all; the size bounds keep every board and pattern cheap to run
WORDS = (st.lists(st.integers(min_value=0, max_value=5), max_size=5)
         | st.integers(min_value=1, max_value=5).flatmap(
             lambda k: st.permutations(list(range(1, k + 1))))
         ).map(lambda vs: "".join(map(str, vs)))
SET_TEXTS = st.lists(WORDS, max_size=3).map(lambda ws: "{" + ",".join(ws) + "}")
BOARD_TEXTS = st.lists(st.integers(min_value=-1, max_value=5), max_size=5).map(
    lambda hs: "[" + ",".join(map(str, hs)) + "]")
FILLING_TEXTS = st.tuples(BOARD_TEXTS, WORDS).map("/".join)
TEXTS = (SET_TEXTS | BOARD_TEXTS | FILLING_TEXTS
         | st.text(alphabet="0123456789{},[]/; <-", max_size=12) | st.text(max_size=8))


@given(st.sampled_from(TEXT_COMMANDS), TEXTS)
@settings(max_examples=200, deadline=None)
def test_every_text_option_exits_0_1_or_2(command, text):
    # "--opt=text" keeps argparse from reading a text such as "-1" as a flag
    argv = _drawn(command, lambda: text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--offline", *argv])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]  # C_0 .. C_10


def test_oeis_compare_passes_when_the_anchor_is_not_the_first_entry(capsys, tmp_path):
    # {123} counts C_1, C_2, ... so the anchor is index 1; at --n 11 the
    # computed terms run one past the b-file, and nothing mismatches
    (tmp_path / "A000108.txt").write_text(
        "".join(f"{i} {c}\n" for i, c in enumerate(CATALAN))
    )
    for n in ("10", "11"):
        code, out, _ = run(
            capsys, "--offline", "--cache-dir", str(tmp_path), "--format", "json-lines",
            "oeis", "compare", "A000108", "--set", "{123}", "--n", n,
        )
        rec = json.loads(out)
        assert (code, rec["matched_prefix_length"], rec["alignment_offset"]) == (0, 10, 1), n
        assert rec["first_mismatch"] == "", n


def test_suite_oeis_check_passes_when_the_anchor_is_not_the_first_entry(capsys, tmp_path):
    # the b-file starts at index 0 = 1, so n=1 anchors at index 1; at
    # --n-oeis 5 the computed terms run one past the published data
    (tmp_path / "A224295.txt").write_text("0 1\n1 1\n2 2\n3 6\n4 24\n")
    for n in ("4", "5"):
        code, out, _ = run(
            capsys, "--offline", "--cache-dir", str(tmp_path), "--format", "json-lines",
            "suite", "conjecture-13452", "--n-oeis", n,
        )
        rec = json.loads(out)
        assert (code, rec["verdict"], rec["witness"]) == (0, "pass", ""), n


def test_malformed_time_budget_exits_2_before_any_output(capsys, tmp_path):
    commands = [
        ("count-av", "--set", "{123,132}", "--n", "3"),
        ("oeis", "compare", "--set", "{123,132}", "--n", "3"),
    ]
    # "--opt=value" keeps argparse from reading "-inf" as a flag
    argvs = [("--time-budget=" + b, *c) for b in ("nan", "-1", "-inf") for c in commands]
    argvs.append(("--time-budget=-1", "suite", "conjecture-13452"))
    for argv in argvs:
        code, out, err = run(capsys, "--offline", "--cache-dir", str(tmp_path),
                             "--format", "csv", *argv)
        assert (code, out) == (2, ""), argv
        budget = argv[0].split("=")[1]
        assert err == f"error: time budget must be >= 0 seconds, got {float(budget)}\n", argv


def test_importing_the_cli_leaves_the_network_stack_unloaded():
    import subprocess
    import sys

    code = "import sys, shapewilf, shapewilf.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


FORCED_FAILURES = Path(__file__).parent / "data" / "suite_all_forced_failures.jsonl"


def test_every_check_kind_fails_with_its_pinned_witness(capsys, tmp_path, monkeypatch):
    """Each kind of suite check is made to fail through the names the
    suites look up; every FAIL record, witness included, is pinned."""
    from dataclasses import replace

    from shapewilf import bijections, equivalence, suites
    from shapewilf.boards import Filling

    other = frozenset({(1, 2)})
    monkeypatch.setattr(suites, "wilf_table",
                        lambda left, right, n: equivalence.wilf_table(left, other, n))
    monkeypatch.setattr(suites, "shape_wilf_table",
                        lambda left, right, n: equivalence.shape_wilf_table(left, other, n))
    # a map whose images leave the board: a shape violation on the first board
    shift = lambda f, trace=None: Filling(f.board, tuple(r + 1 for r in f.rows))
    monkeypatch.setattr(suites, "verify_bijection", lambda oracle, n: bijections.verify_bijection(
        replace(oracle, apply=shift), n))
    monkeypatch.setattr(suites, "symmetry_identity_check", lambda lhs, expr: False)
    monkeypatch.setattr(suites, "find_shape_wilf_divergence", lambda left, right, n: None)
    (tmp_path / "A224295.txt").write_text("1 1\n2 2\n3 6\n4 24\n5 119\n")

    code, out, err = run(
        capsys, "--offline", "--cache-dir", str(tmp_path), "--format", "json-lines",
        "suite", "all", "--n-wilf", "4", "--n-shape", "3", "--n-bijection", "3",
        "--n-oeis", "5",
    )
    assert (code, err) == (1, "0/45 checks passed\n")
    assert out == FORCED_FAILURES.read_text()
    witnesses = {json.loads(line)["kind"]: json.loads(line)["witness"]
                 for line in out.splitlines()}
    assert witnesses["divergence-search"] == {}
    assert witnesses["oeis-compare"]["first_mismatch"] == [5, 118, 119]

    # a b-file that does not parse fails the OEIS check with the error
    (tmp_path / "A224295.txt").write_text("1 1\n2 x\n")
    code, out, _ = run(
        capsys, "--offline", "--cache-dir", str(tmp_path), "--format", "json-lines",
        "suite", "conjecture-13452", "--n-oeis", "5",
    )
    assert code == 1
    assert json.loads(out)["witness"] == {"error": "line 2: bad value: '2 x'"}
