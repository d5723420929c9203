import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hooklab import InvariantError, Partition, Series, cli, mex_map, series
from hooklab.cli import MAX_B_WEIGHT, main
from hooklab.partitions import MAX_ENUMERATION_WEIGHT
from hooklab.verify import MAX_SEQ_NMAX, MAX_VERIFY_ORDER, STATISTICS, THEOREM_IDS, check_bounds

DATA = Path(__file__).parent / "data"
GOLDEN_BIJECTIONS = json.loads((DATA / "bijection_cli.json").read_text())
GOLDEN_VERIFY = json.loads((DATA / "verify_reports.json").read_text())
SEQ_DIGESTS = json.loads((DATA / "seq_bfile_digests.json").read_text())
SEQ_TEXT_DIGESTS = json.loads((DATA / "seq_text_digests.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_thm21_matches(self, capsys):
        code, out, _ = run(capsys, "verify", "thm2.1", "--nmax", "12")
        assert code == 0
        assert "MATCH" in out

    def test_thm33_exception_annotated(self, capsys):
        code, out, _ = run(capsys, "verify", "thm3.3", "--h", "-1", "--nmax", "12")
        assert code == 0
        assert "n=0 exception" in out

    def test_pentagonal(self, capsys):
        code, out, _ = run(capsys, "verify", "pentagonal-truncation", "--k", "3", "--nmax", "25")
        assert code == 0

    def test_pentagonal_cost_does_not_grow_with_k(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "verify", "pentagonal-truncation", "--k", "1000000000",
                           "--nmax", "5", "--order", "5")
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert "MATCH" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "thm4.1", "--h", "0", "--k", "2", "--nmax", "10", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["cells"][0]["params"] == {"h": 0, "k": 2}

    def test_unknown_theorem_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "thm9.9"])
        assert err.value.code == 2

    def test_nmax_beyond_order_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "thm2.1", "--nmax", "70", "--order", "60")
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize("theorem, flag, takes", [
        ("thm2.1", "--h", "none"),
        ("thm2.1", "--k", "none"),
        ("prop2.2", "--k", "none"),
        ("thm3.3", "--k", "--h"),
        ("thm3.4", "--k", "--h"),
        ("thm4.2", "--k", "--h"),
        ("cor3.6", "--h", "--k"),
        ("thm4.3", "--h", "--k"),
        ("pentagonal-truncation", "--h", "--k"),
    ])
    def test_parameter_the_theorem_does_not_take(self, capsys, theorem, flag, takes):
        # refused before any count, which at nmax 80 would take seconds
        start = time.monotonic()
        result = run(capsys, "verify", theorem, flag, "1", "--nmax", "80", "--order", "80")
        assert time.monotonic() - start < 1.0
        assert result == (2, "", f"error: verify {theorem} does not take {flag} "
                                 f"(its parameters: {takes})\n")

    @pytest.mark.parametrize("case", GOLDEN_VERIFY,
                             ids=[" ".join(case["argv"][1:]) for case in GOLDEN_VERIFY])
    def test_output_is_pinned(self, capsys, case):
        # every theorem id, text and --json, at the defaults and at
        # --nmax 12 --order 24 --h -1 --k 2, which an id without both axes refuses
        assert run(capsys, *case["argv"]) == (case["code"], case["stdout"],
                                              case.get("stderr", ""))


class TestSeqCommand:
    def test_fixed_hooks_csv_ends_at_twelve(self, capsys):
        code, out, _ = run(capsys, "seq", "fixed-hooks", "--h", "0", "--nmax", "9", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,count"
        assert out.rstrip().endswith("9,12")

    def test_partition_numbers(self, capsys):
        code, out, _ = run(capsys, "seq", "partition-numbers", "--nmax", "5")
        assert code == 0
        assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == [
            "1", "1", "2", "3", "5", "7",
        ]

    def test_M_sequence(self, capsys):
        code, out, _ = run(capsys, "seq", "M", "--k", "1", "--nmax", "5")
        assert code == 0
        counts = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert counts == ["0", "0", "1", "1", "2", "2"]

    @pytest.mark.parametrize("argv, expected", [
        ((), "1 1\n2 0\n3 1\n4 2\n5 3\n"),
        (("--start", "0"), "0 0\n1 1\n2 0\n3 1\n4 2\n5 3\n"),
        (("--start", "4"), "4 2\n5 3\n"),
        (("--start", "6"), ""),  # no row at or past --start
        (("--nmax", "0"), ""),  # the one row, n = 0, is before the default start
    ], ids=["default-start", "start-0", "start-4", "start-past-nmax", "nmax-0"])
    def test_bfile_format(self, capsys, argv, expected):
        code, out, _ = run(capsys, "seq", "fixed-hooks", "--h", "0", "--nmax", "5",
                           "--format", "bfile", *argv)
        assert (code, out) == (0, expected)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "seq", "first-column-k-hooks", "--k", "1", "--nmax", "5",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["statistic"] == "first-column-k-hooks"
        assert data["params"] == {"k": 1}
        assert data["values"]["5"] == 5

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "seq", "M", "--nmax", "5")
        assert code == 2
        assert "--k" in err

    @pytest.mark.parametrize("argv, message", [
        (["M", "--k", "3", "--h", "5"], "seq M does not take --h (its parameters: --k)"),
        (["partition-numbers", "--k", "0"],
         "seq partition-numbers does not take --k (its parameters: none)"),
        (["fixed-hooks", "--h", "0", "--k", "2"],
         "seq fixed-hooks does not take --k (its parameters: --h)"),
    ])
    def test_parameter_the_statistic_does_not_take(self, capsys, argv, message):
        assert run(capsys, "seq", *argv, "--nmax", "5") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_start_only_with_bfile(self, capsys, fmt):
        message = f"seq --format {fmt} does not take --start (only --format bfile does)"
        for start in ("9", "1", "0"):
            argv = ("seq", "partition-numbers", "--nmax", "12", "--format", fmt, "--start", start)
            assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_deterministic_output(self, capsys):
        first = run(capsys, "seq", "fixed-hooks", "--h", "1", "--nmax", "12")
        second = run(capsys, "seq", "fixed-hooks", "--h", "1", "--nmax", "12")
        assert first == second


class TestBijectionCommand:
    def test_b_forward(self, capsys):
        code, out, _ = run(capsys, "bijection", "B", "--input", "[2,2,1,1,1,1,1]", "--i", "2")
        assert code == 0
        assert json.loads(out)["output"]["mu"] == [7, 2]

    def test_f_forward(self, capsys):
        code, out, _ = run(capsys, "bijection", "F", "--a", "4", "--b", "3",
                           "--lam", "[7,5,3,2]", "--mu", "[9,7,5]")
        assert code == 0
        data = json.loads(out)
        assert data["output"]["nu"] == [7, 6, 5, 5, 3, 3, 2]
        assert data["output"]["rho"] == [3, 2, 2]

    def test_mex_forward(self, capsys):
        code, out, _ = run(capsys, "bijection", "mex", "--input", "[11,6,5,5,4,4,4,2,1]")
        assert code == 0
        assert json.loads(out)["output"]["mu"] == [12, 7, 6, 6, 5, 5, 3, 2, 1, 1]

    def test_b_inverse_with_trace(self, capsys):
        code, out, _ = run(capsys, "bijection", "B", "--input", "[7,2]",
                           "--direction", "inverse", "--trace")
        assert code == 0
        data = json.loads(out)
        assert data["output"]["lam"] == [2, 2, 1, 1, 1, 1, 1]
        assert data["output"]["i"] == 2
        assert data["intermediates"]["s"] == 2

    def test_f_inverse(self, capsys):
        code, out, _ = run(capsys, "bijection", "F", "--direction", "inverse",
                           "--a", "4", "--b", "3",
                           "--nu", "[7,6,5,5,3,3,2]", "--rho", "[3,2,2]")
        assert code == 0
        data = json.loads(out)
        assert data["output"]["lam"] == [7, 5, 3, 2]
        assert data["output"]["mu"] == [9, 7, 5]

    def test_f_cost_does_not_grow_with_capacity(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "bijection", "F", "--a", "10000000", "--b", "0",
                           "--lam", "[]", "--mu", "[]")
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert json.loads(out)["output"] == {"nu": [], "rho": []}
        # nor with the part sizes: the zeros a part slides past are counted, not stored
        start = time.monotonic()
        code, out, _ = run(capsys, "bijection", "F", "--a", "100000000", "--b", "1",
                           "--lam", "[]", "--mu", "[100000000]")
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert json.loads(out)["output"] == {"nu": [], "rho": [100000000]}

    def test_f_inverse_cost_does_not_grow_with_capacity(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "bijection", "F", "--direction", "inverse", "--a", "0",
                           "--b", "10000000", "--nu", "[]", "--rho", "[]")
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert json.loads(out) == {"bijection": "F-inverse", "output": {"lam": [], "mu": []}}
        start = time.monotonic()
        code, out, _ = run(capsys, "bijection", "F", "--direction", "inverse", "--a", "100000000",
                           "--b", "1", "--nu", "[]", "--rho", "[100000000]")
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert json.loads(out)["output"] == {"lam": [], "mu": [100000000]}

    @pytest.mark.parametrize("argv", [
        # B^-1 would build a lambda of about 10^7 parts
        ["--direction", "inverse", "--input", "[10000000,2,2,2]"],
        ["--input", f"[{MAX_B_WEIGHT},1]", "--i", "1"],
    ])
    def test_b_weight_bound_checked_before_the_map(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, "bijection", "B", *argv)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert f"above the B weight bound {MAX_B_WEIGHT}\n" in err

    def test_b_weight_bound_is_inclusive(self, capsys):
        code, out, _ = run(capsys, "bijection", "B", "--direction", "inverse",
                           "--input", f"[{MAX_B_WEIGHT - 6},2,2,2]")
        assert code == 0
        lam = json.loads(out)["output"]["lam"]
        assert sum(lam) == MAX_B_WEIGHT
        code, out, _ = run(capsys, "bijection", "B", "--input", f"[{MAX_B_WEIGHT - 1},1]", "--i", "1")
        assert code == 0
        assert sum(json.loads(out)["output"]["mu"]) == MAX_B_WEIGHT

    def test_precondition_violation_names_check(self, capsys):
        code, _, err = run(capsys, "bijection", "B", "--input", "[3,2]", "--i", "2")
        assert code == 2
        assert "precondition" in err

    def test_malformed_input(self, capsys):
        code, _, err = run(capsys, "bijection", "B", "--input", "[2,1,", "--i", "1")
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize("case", GOLDEN_BIJECTIONS,
                             ids=[" ".join(case["argv"][1:]) for case in GOLDEN_BIJECTIONS])
    def test_output_is_pinned(self, capsys, case):
        # every (map, direction) pair on the README examples and the weight-95
        # example, plus each usage and precondition error, with and without --trace
        assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


class TestStatisticTable:
    def test_default_grids_hold_83_points(self):
        assert sum(len(stat.grid()) for stat in STATISTICS.values()) == 83

    @pytest.mark.parametrize("name", list(STATISTICS))
    def test_seq_matches_the_oracle_counter(self, capsys, name):
        stat = STATISTICS[name]
        for point in stat.grid():
            flags = [arg for param, value in point.items() for arg in (f"--{param}", str(value))]
            code, out, _ = run(capsys, "seq", name, *flags, "--nmax", "12", "--format", "json")
            assert code == 0
            data = json.loads(out)
            assert data["params"] == point
            values = {int(n): count for n, count in data["values"].items()}
            assert values == stat.oracle_values(point, 12), point

    @pytest.mark.parametrize("name", list(STATISTICS))
    def test_series_below_q0_is_an_invariant_error(self, capsys, monkeypatch, name):
        # a constructor that gains a q^-1 term is refused, not exported from q^0 on
        stat = STATISTICS[name]
        constructor = getattr(series, stat.series)
        monkeypatch.setattr(series, stat.series,
                            lambda *args: constructor(*args) + Series.make([1], args[-1], offset=-1))
        point = stat.grid(h=0, k=2)[0]
        flags = [arg for param, value in point.items() for arg in (f"--{param}", str(value))]
        code, out, err = run(capsys, "seq", name, *flags, "--nmax", "12")
        assert (code, out, err) == (2, "", "error: a series starts at q^-1, below q^0\n")

    def test_default_grid_bfiles_are_byte_identical(self, capsys):
        nmax = SEQ_DIGESTS["nmax"]
        digests = _seq_digests(capsys, "--nmax", str(nmax), "--format", "bfile", "--start", "0")
        assert digests == SEQ_DIGESTS["sha256"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_grid_text_is_byte_identical(self, capsys, fmt):
        nmax = SEQ_TEXT_DIGESTS["nmax"]
        digests = _seq_digests(capsys, "--nmax", str(nmax), "--format", fmt)
        assert digests == SEQ_TEXT_DIGESTS["sha256"][fmt]


def _seq_digests(capsys, *argv):
    """SHA-256 of `seq` stdout at every default grid point, keyed "<statistic> h=.. k=.."."""
    digests = {}
    for name, stat in STATISTICS.items():
        for point in stat.grid():
            flags = [arg for item in point.items() for arg in (f"--{item[0]}", str(item[1]))]
            code, out, _ = run(capsys, "seq", name, *flags, *argv)
            assert code == 0
            key = " ".join([name, *(f"{param}={value}" for param, value in point.items())])
            digests[key] = hashlib.sha256(out.encode()).hexdigest()
    return digests


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    @pytest.mark.parametrize("calls", [
        # a given --h, then the default h grid
        [["verify", "thm4.1", "--h", "1", "--nmax", "8"], ["verify", "thm4.1", "--nmax", "8"]],
        [["seq", "M", "--k", "2", "--nmax", "20", "--format", "json"],
         ["seq", "M", "--k", "2", "--nmax", "20", "--format", "bfile"]],
        # argparse exits 2, then a valid call
        [["verify", "thm9.9"], ["seq", "partition-numbers", "--nmax", "10"]],
        [["seq", "M", "--k"], ["seq", "M", "--k", "1", "--nmax", "6"]],
    ], ids=["verify-h-then-grid", "seq-json-then-bfile", "bad-id-then-seq", "bad-k-then-k"])
    def test_one_parser_prints_what_fresh_ones_print(self, capsys, monkeypatch, calls):
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(_outcome(capsys, argv))
        build, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or build())
        cli._parser.cache_clear()
        assert [_outcome(capsys, argv) for argv in calls] == fresh
        assert len(built) == 1


class TestUsageErrors:
    @pytest.mark.parametrize("argv, named", [
        (["verify", "thm3.2", "--nmax", "-3"], "nmax must be >= 0, got -3"),
        (["seq", "M", "--k", "2", "--nmax", "-3"], "nmax must be >= 0, got -3"),
        (["verify", "thm2.1", "--nmax", "-10", "--order", "-5"], "nmax must be >= 0, got -10"),
        (["verify", "thm4.1", "--h", "5", "--k", "2"], "h <= k-1"),
        (["verify", "pentagonal-truncation", "--nmax", "0", "--order", "0"], "n >= 1"),
        (["seq", "fixed-hooks", "--h", "0", "--nmax", "5", "--format", "bfile", "--start", "-3"],
         "start must be >= 0, got -3"),
        (["verify", "thm3.3", "--h", "-2"], "h >= -1"),
    ])
    def test_empty_range_rejected(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert named in err

    def test_enumeration_bound_checked_before_enumerating(self, capsys):
        start = time.monotonic()
        top = str(MAX_ENUMERATION_WEIGHT + 1)
        code, _, err = run(capsys, "verify", "thm2.1", "--nmax", top, "--order", top)
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert f"enumeration bound {MAX_ENUMERATION_WEIGHT}\n" in err

    @pytest.mark.parametrize("argv, bound", [
        (["verify", "thm4.3", "--nmax", "5", "--order", "3000", "--k", "1"],
         f"order=3000 exceeds the series-order bound {MAX_VERIFY_ORDER}"),
        (["verify", "prop2.2", "--nmax", "5", "--order", "20000"],
         f"order=20000 exceeds the series-order bound {MAX_VERIFY_ORDER}"),
        (["seq", "fixed-hooks", "--h", "0", "--nmax", "50000"],
         f"nmax=50000 exceeds the series-order bound {MAX_SEQ_NMAX}"),
        (["verify", "thm2.1", "--nmax", "5", "--order", "100000000"],
         f"order=100000000 exceeds the series-order bound {MAX_VERIFY_ORDER}"),
    ])
    def test_series_order_bound_checked_before_computing(self, capsys, argv, bound):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"{bound}\n" in err

    def test_series_order_bound_is_inclusive(self):
        check_bounds("order", MAX_VERIFY_ORDER, nmax=0, order=MAX_VERIFY_ORDER)
        check_bounds("nmax", MAX_SEQ_NMAX, nmax=MAX_SEQ_NMAX)
        with pytest.raises(ValueError, match=f"series-order bound {MAX_SEQ_NMAX}$"):
            check_bounds("nmax", MAX_SEQ_NMAX, nmax=MAX_SEQ_NMAX + 1)

    @pytest.mark.parametrize("theorem", ["thm3.2", "thm3.5", "thm4.1", "thm4.3"])
    def test_k_checked_before_counting(self, capsys, theorem):
        start = time.monotonic()
        code, out, err = run(capsys, "verify", theorem, "--k", "0", "--nmax", "80", "--order", "80")
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert out == ""
        assert "k must be >= 1, got 0\n" in err

    @pytest.mark.parametrize("theorem, h, nmax, top", [
        # thm3.5's k = 5, h = -3 cells read the mex census 12 above nmax
        ("thm3.5", None, MAX_ENUMERATION_WEIGHT - 11, MAX_ENUMERATION_WEIGHT + 1),
        # thm3.4's ones side reads the ones census at n - h
        ("thm3.4", -3, MAX_ENUMERATION_WEIGHT - 2, MAX_ENUMERATION_WEIGHT + 1),
        ("thm3.4", None, MAX_ENUMERATION_WEIGHT, MAX_ENUMERATION_WEIGHT + 3),
    ])
    def test_thm35_checks_its_largest_weight_first(self, capsys, theorem, h, nmax, top):
        argv = ["verify", theorem, "--nmax", str(nmax), "--order", str(nmax)]
        if h is not None:
            argv += ["--h", str(h)]
        start = time.monotonic()
        code, _, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert f"n = {top} exceeds the enumeration bound" in err

    def test_invariant_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(Partition, "mex", lambda self: 0)
        with pytest.raises(InvariantError, match="not a mex-4 partition"):
            mex_map(Partition((11, 6, 5, 5, 4, 4, 4, 2, 1)))
        code, out, err = run(capsys, "bijection", "mex", "--input", "[11,6,5,5,4,4,4,2,1]")
        assert code == 2
        assert out == ""
        assert "not a mex-4 partition" in err


@st.composite
def cli_argv(draw):
    bound = st.integers(-5, 12)
    param = st.integers(-5, 6)
    command = draw(st.sampled_from(["verify", "seq", "bijection"]))
    if command == "verify":
        argv = ["verify", draw(st.sampled_from(THEOREM_IDS))]
        options = {"--nmax": bound, "--order": bound, "--h": param, "--k": param}
    elif command == "seq":
        argv = ["seq", draw(st.sampled_from(list(STATISTICS))),
                "--format", draw(st.sampled_from(["csv", "json", "bfile"]))]
        options = {"--nmax": bound, "--h": param, "--k": param, "--start": bound}
    else:
        argv = ["bijection", draw(st.sampled_from(["F", "B", "mex"])),
                "--direction", draw(st.sampled_from(["forward", "inverse"]))]
        partition = st.one_of(
            st.lists(st.integers(1, 6), max_size=7).map(lambda xs: sorted(xs, reverse=True)),
            st.lists(st.integers(-1, 6), max_size=5),
        ).map(json.dumps) | st.just("[1,")
        options = {"--input": partition, "--lam": partition, "--mu": partition,
                   "--nu": partition, "--rho": partition,
                   "--a": param, "--b": param, "--i": param, "--k": param}
        if draw(st.booleans()):
            argv.append("--trace")
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    return argv


@settings(max_examples=50, deadline=None)
@given(cli_argv())
def test_exit_code_is_always_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
