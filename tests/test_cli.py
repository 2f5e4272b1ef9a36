"""End-to-end CLI checks.

Most invocations go through ``python -m sigmaprime`` so the argv parsing,
JSON emission, stderr diagnostics, and exit codes are exercised exactly as a
shell user would see them.  The golden digests, the budget refusals that
patch a module and the argv property call ``cli.main`` in process.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaprime import arith, cli, identities, lattice, powersums

CMD = [sys.executable, "-m", "sigmaprime"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def run_json(*args, expect_code=0):
    proc = run(*args)
    assert proc.returncode == expect_code, proc.stderr
    return json.loads(proc.stdout)


def test_psi_rational_encoding():
    doc = run_json("psi", "--s", "-1", "--n", "2")
    assert doc["result"] == {"num": "1", "den": "2"}


def test_powersum_methods_agree():
    for method in ("direct", "moebius", "closed"):
        doc = run_json("powersum", "--k", "2", "--n", "3", "--method", method)
        assert doc["result"] == "5"  # 1^2 + 2^2


def test_sigma_prime():
    doc = run_json("sigma-prime", "--r", "1", "--s", "3", "--m", "2", "--n", "2")
    assert doc["result"] == "10"


def test_conv_brute_and_closed():
    doc = run_json("conv", "--r", "1", "--s", "1", "--n", "3")
    assert doc["result"] == "6"
    doc = run_json("conv", "--r", "1", "--s", "1", "--n", "3", "--method", "closed")
    assert doc["result"] == "6"
    # closed route knows the (1, 3) erratum
    doc = run_json("conv", "--r", "3", "--s", "1", "--n", "2", "--method", "closed")
    assert doc["result"] == "1"
    assert "erratum_notes" in doc


def test_conv_closed_requires_known_pair():
    proc = run("conv", "--r", "2", "--s", "2", "--n", "5", "--method", "closed")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


def test_check_main_verified():
    doc = run_json("check-main", "--poly", "1x^2y^2", "--n", "6", "--set", "Bprime")
    assert doc["verdict"] == "verified"
    assert doc["result"]["lhs"] == doc["result"]["rhs"] == "1920"


def test_check_main_unqualified_poly_is_usage_error():
    proc = run("check-main", "--poly", "1a", "--n", "6")
    assert proc.returncode == 2
    assert proc.stderr == "error: polynomial does not satisfy the symmetry hypothesis\n"


def test_check_main_malformed_poly():
    proc = run("check-main", "--poly", "x^2", "--n", "6")
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1


def test_verify_corrected_passes():
    doc = run_json("verify", "--theorem", "t11", "--range", "2..12")
    assert doc["verdict"] == "verified"
    assert doc["result"]["failures"] == 0
    assert doc["result"]["first_counterexample"] is None
    assert len(doc["result"]["rows"]) == 11


def test_verify_printed_t13_fails_exit_1():
    proc = run("verify", "--theorem", "t13:printed", "--range", "2..6")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "failed"
    assert doc["result"]["first_counterexample"]["n"] == 2
    assert "erratum_notes" in doc
    for row in doc["result"]["rows"]:
        assert row["ok"] is False


def test_verify_csv():
    proc = run("verify", "--theorem", "t11", "--range", "2..5", "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,oracle,closed,ok"
    assert len(lines) == 5


def test_verify_bad_range_is_usage_error():
    for bad in ("5", "9..2", "1..4", "a..b"):
        proc = run("verify", "--theorem", "t11", "--range", bad)
        assert proc.returncode == 2, bad
        assert len(proc.stderr.strip().splitlines()) == 1


def test_count_fast_and_raw():
    doc = run_json("count", "--which", "L", "--r", "1", "--s", "1", "--n", "3")
    assert doc["result"] == "6"
    doc = run_json("count", "--which", "Mp", "--r", "3", "--s", "3", "--n", "3", "--raw")
    assert doc["result"] == "18"


def test_count_budget_exit_3():
    proc = run(
        "count", "--which", "M", "--r", "3", "--s", "3", "--n", "12", "--raw", "--budget", "1000"
    )
    assert proc.returncode == 3
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [
        # each just over the oracle's work limit, so nothing large runs if the check broke
        ("conv", "--r", "1", "--s", "3", "--n", "200000"),
        ("conv", "--r", "2", "--s", "2", "--n", "200000", "--set", "B"),
        ("verify", "--theorem", "t15", "--range", "2..5000"),
        ("fit", "--r", "1", "--s", "3", "--train", "2,3,4,5,7,200000", "--test", "11"),
        ("count", "--which", "Lp", "--r", "1", "--s", "3", "--n", "200000"),
        # check-main has its own ceiling on n, not the oracle's work limit
        ("check-main", "--poly", "1x^2y^2", "--n", "200000"),
        # few σ-table entries, but each a power of some 10**6 bits
        ("conv", "--r", "100000", "--s", "1", "--n", "600", "--set", "B"),
    ],
)
def test_oracle_budget_exit_3(args):
    proc = run(*args)
    assert proc.returncode == 3
    assert proc.stdout == ""
    if args[0] == "check-main":
        assert proc.stderr == "error: identity sides are limited to n <= 2000, got 200000\n"
    else:
        assert proc.stderr.startswith("error: the convolution oracle needs at least ")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("psi", "--s", "1", "--n", "100000000000031"),
        ("sigma-prime", "--r", "1", "--s", "1", "--m", "2", "--n", "100000000000031"),
        ("conv", "--r", "1", "--s", "1", "--n", "100000000000031", "--method", "closed"),
        ("powersum", "--k", "2", "--n", "100000000000031", "--method", "closed"),
    ],
)
def test_trial_division_budget_exit_3(args, capsys):
    # in process: a prime near 10**14 needs trial divisors above the bound
    assert cli.main(list(args)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: factorizing 100000000000031 needs trial divisors above 1000000\n"


@pytest.mark.parametrize(
    "args",
    [
        ("conv", "--r", "2000", "--s", "1", "--n", "600", "--set", "B"),
        ("psi", "--s", "20000", "--n", "6"),
        ("check-main", "--poly", "1x^2000", "--n", "200"),
    ],
)
def test_result_over_digit_limit_exit_3(args, capsys):
    # the result is computed, but has more digits than str() may convert
    assert cli.main(list(args)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a number has more than 4300 decimal digits, the integer-string limit\n"


def _no_work(*args):
    raise AssertionError("the work started before the refusal")


@pytest.mark.parametrize(
    "args, work, message",
    [
        (
            ("check-main", "--poly", "1x^20000", "--n", "200", "--set", which),
            (identities, "_argument_table"),
            "identity sides at n = 200 need about 24038400 units of work, the limit is 10000000",
        )
        for which in ("B", "Bprime")
    ]
    + [
        (
            ("psi", "--s", "1048576", "--n", "2"),
            (powersums, "factorize"),
            "psi(1048576, 2) needs powers of more than 1048576 bits",
        ),
        (
            ("sigma-prime", "--r", "1048576", "--s", "1", "--m", "2", "--n", "2"),
            (lattice, "_coprime_divisor_pairs"),
            "sigma_prime(1048576, 1, 2, 2) needs powers of more than 1048576 bits",
        ),
    ],
)
def test_power_and_degree_budget_exit_3(args, work, message, monkeypatch, capsys):
    # each refusal comes before its first step of work, which here fails the test
    monkeypatch.setattr(*work, _no_work)
    assert cli.main(list(args)) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sigma_prime_pair_scan_budget_exit_3(monkeypatch, capsys):
    # 5040 and 5544 have 60 and 48 divisors; the limit is lowered so that
    # nothing large runs if the check broke
    monkeypatch.setattr(arith, "_WORK_LIMIT", 2879)
    monkeypatch.setattr(lattice, "gcd", _no_work)
    assert cli.main(["sigma-prime", "--r", "1", "--s", "1", "--m", "5040", "--n", "5544"]) == 3
    assert capsys.readouterr() == (
        "",
        "error: sigma_prime at (5040, 5544) scans 2880 divisor pairs, the limit is 2879\n",
    )


def test_fit_consistent():
    doc = run_json("fit", "--r", "1", "--s", "1", "--train", "2,3,4,5,7,9", "--test", "11,13,16")
    assert doc["verdict"] == "consistent"
    assert doc["result"]["coefficients"]["A"] == {"num": "5", "den": "12"}
    assert doc["residuals"]
    assert all(res == {"num": "0", "den": "1"} for res in doc["residuals"])


def test_fit_overlap_is_usage_error():
    proc = run("fit", "--r", "1", "--s", "1", "--train", "2,3,4,5,7", "--test", "7,11")
    assert proc.returncode == 2


def test_probe10_labeled_inconsistent_exit_1():
    proc = run("probe10", "--pair", "5,5")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["result"]["label"] == "numerical evidence"
    assert doc["verdict"] == "inconsistent"


def test_probe10_rejects_other_pairs():
    proc = run("probe10", "--pair", "2,8")
    assert proc.returncode == 2


def test_output_is_deterministic():
    first = run("verify", "--theorem", "t33", "--range", "2..8")
    second = run("verify", "--theorem", "t33", "--range", "2..8")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_no_subcommand_is_usage_error():
    proc = run()
    assert proc.returncode == 2


@pytest.mark.slow
def test_selftest_quick():
    proc = run("selftest", "--quick")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "pass"
    assert doc["result"]["failed_count"] == 0
    stderr_lines = proc.stderr.strip().splitlines()
    assert len(stderr_lines) == len(doc["result"]["criteria"]) == 11
    assert all(line.startswith("PASS") for line in stderr_lines)


_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (argv, exit code, sha256 of stdout) of in-process runs, written against the
# CLI before its handlers returned documents, so any change of bytes shows
# here: every subcommand as JSON, each --csv table, both t13 erratum paths,
# one usage error, one budget refusal and one result over the digit limit.
GOLDEN = [
    (["psi", "--s", "-1", "--n", "12"], 0,
     "e84b208c793e1f9315886572cd7ececcd35c16ad4198bea1c9e14c2a5c642a5a"),
    (["powersum", "--k", "3", "--n", "20", "--method", "moebius"], 0,
     "911b4f4b1f01cdc422f34ee59e0871eb75bd730a019863cc10332c00501b9af9"),
    (["sigma-prime", "--r", "1", "--s", "3", "--m", "12", "--n", "18"], 0,
     "a86ae94cfc225f6a5a544e67142184139089861af166538aa7420518f0a92f17"),
    (["conv", "--r", "1", "--s", "3", "--n", "40", "--set", "B"], 0,
     "9b1c0d8624929fe3a805e225c0934f1a3f9396051194835c8668d8c5c3709178"),
    (["conv", "--r", "3", "--s", "1", "--n", "10", "--method", "closed"], 0,
     "504dee03a7d3b73fccab32409ab50c4a92e74f7e6c5ab62d6013c1091d48eee2"),
    (["check-main", "--poly", "1x^2y^2 + 1a^2b^2", "--n", "12", "--set", "B"], 0,
     "135fa486f1ac591a80bdf1c2cc4ed2064aa566b44044092e32ca06c5288089dd"),
    (["verify", "--theorem", "t11", "--range", "2..12"], 0,
     "f7d724e296abb599b028aae1f7bd167cd89fecd80b6decc5527fd2d1abbb14dd"),
    (["verify", "--theorem", "t13:printed", "--range", "2..9"], 1,
     "c2e310b80c5b938b22fd760f0aac48d634933260d11fafa17ecee3e9dab8eed0"),
    (["count", "--which", "Mp", "--r", "3", "--s", "3", "--n", "6", "--raw"], 0,
     "e368319c6bbca93b4ecce0c1716d7f67b05348b943c81d61423ed8679a3b357d"),
    (["count", "--which", "L", "--r", "1", "--s", "2", "--n", "30"], 0,
     "e59f4a0445b615a150a8727fdbafb6226d5600cf74c0dbd4ef120c1648f36b95"),
    (["fit", "--r", "1", "--s", "1", "--train", "2,3,4,5,7,9", "--test", "11,13,16"], 0,
     "9f232bdba8dde8b2d710a074d56abf972da14fb38ca8e224d350e0402bb50180"),
    (["probe10", "--pair", "5,5"], 1,
     "729d29a0463947e553f76486f2a53098dc3c245ccbff6a1054e2a132c7d9ea46"),
    (["selftest", "--quick"], 0,
     "df3cc1caa09f275bc32327d316d609881c932b879fb222b2f9d50754b2a392ad"),
    (["verify", "--theorem", "t15", "--range", "2..10", "--csv"], 0,
     "66d7948459217b6c884407a55cd45b1e8a25afd7097dee2d8490259184f10c73"),
    (["fit", "--r", "1", "--s", "3", "--train", "2,3,4,5,7,9", "--test", "11,13", "--csv"], 0,
     "d77cc26d160a79c8311a55ee9d1accbfd8572427cb50f77e35da2ecce078075f"),
    (["probe10", "--pair", "3,7", "--csv"], 1,
     "ca717088ec8badb54048b94fc3e3886a124d19f6c82685967025e15756a6d15c"),
    (["selftest", "--quick", "--csv"], 0,
     "78a13feacba73118a144792a55be29909c573af70eb56a95c82db4533ab22f22"),
    (["verify", "--theorem", "t11", "--range", "9..2"], 2, _EMPTY),
    (["count", "--which", "M", "--r", "3", "--s", "3", "--n", "12", "--raw", "--budget", "1000"],
     3, _EMPTY),
    (["psi", "--s", "20000", "--n", "6"], 3, _EMPTY),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_output_matches_golden_digest(argv, code, digest, capsys):
    assert cli.main(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# one argv per subcommand that gives every option, each with a --flag=value
# and, where a flag has a longer name, an abbreviated long option
FULL_ARGVS = [
    ["psi", "--s=-1", "--n", "2"],
    ["powersum", "--k=2", "--n", "7", "--meth", "moebius"],
    ["sigma-prime", "--r=1", "--s", "3", "--m", "2", "--n", "2"],
    ["conv", "--r=1", "--s", "3", "--n", "10", "--se", "B", "--meth", "closed"],
    ["check-main", "--po=1x^2y^2", "--n", "6", "--se", "B"],
    ["verify", "--theorem=t13:printed", "--ra", "2..9", "--jo", "2", "--cs"],
    ["count", "--which=Mp", "--r", "3", "--s", "3", "--n", "12", "--ra", "--bud", "100"],
    ["fit", "--r", "1", "--s=5", "--tr", "2,3", "--te", "11", "--c"],
    ["probe10", "--pa=3,7", "--train", "2,3", "--te", "11", "--csv"],
    ["selftest", "--q", "--csv"],
]


def test_full_argvs_cover_the_table():
    assert [argv[0] for argv in FULL_ARGVS] == list(cli._COMMANDS)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_main_builds_only_the_invoked_subparser(name, monkeypatch, capsys):
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args([name, "--help"])
    whole_table_help = capsys.readouterr().out

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert cli.main([name, "--help"]) == 0
    assert capsys.readouterr().out == whole_table_help
    assert built == ["sigmaprime", f"sigmaprime {name}"]


@pytest.mark.parametrize("argv", FULL_ARGVS, ids=lambda argv: argv[0])
def test_main_parses_as_the_whole_table(argv, monkeypatch):
    seen = []
    help_text, _, options = cli._COMMANDS[argv[0]]

    def stub(args):
        seen.append(args)
        return {"inputs": {}}, 0, [["header"]]

    monkeypatch.setitem(cli._COMMANDS, argv[0], (help_text, stub, options))
    cli.main(list(argv))
    assert seen == [cli._build_parser().parse_args(argv)]


_INT_VALUES = {
    "--n": st.integers(-2, 60),
    "--m": st.integers(-2, 60),
    "--r": st.integers(-1, 8),
    "--s": st.integers(-1, 8),
    "--k": st.integers(-1, 8),
    "--jobs": st.integers(-1, 3),
}
_INT_LISTS = st.one_of(
    st.lists(st.integers(-2, 60), max_size=8).map(lambda ns: ",".join(map(str, ns))),
    st.sampled_from(["", ",", "2,,3", "a", "2;3", "2.5", "2, 3", "1e3"]),
)
_TEXT_VALUES = {
    "--poly": st.sampled_from(
        [
            "1x^2y^2",
            "1a^2b^2 + 1x^2y^2",
            "1x^4 - 1y^4",
            "1 x^1 y^5 - 10 x^3 y^3",
            "0",
            "",
            "x^2",
            "1q",
            "1a",
            "1x^",
            "1x^2y^2 +",
            "+-1",
        ]
    ),
    "--theorem": st.sampled_from(["t11", "t13", "t13:printed", "t35", "t12", "t13:guessed", ""]),
    "--range": st.one_of(
        st.tuples(st.integers(2, 60), st.integers(0, 20)).map(
            lambda pair: f"{pair[0]}..{min(60, pair[0] + pair[1])}"
        ),
        st.sampled_from(["5", "9..2", "1..4", "a..b", "", "2..", "0..3"]),
    ),
    "--train": _INT_LISTS,
    "--test": _INT_LISTS,
}
_CSV_HEADERS = {"verify": "n,oracle,closed,ok", "fit": "n,residual", "probe10": "n,residual"}


@st.composite
def _argvs(draw):
    # one row of the command table, each option drawn or left out, each
    # value small, malformed or one bad choice token
    name = draw(st.sampled_from([name for name in cli._COMMANDS if name != "selftest"]))
    argv = [name]
    for flag, kwargs in cli._COMMANDS[name][2]:
        if flag == "--budget" or not draw(st.integers(0, 9)):
            continue
        if kwargs.get("action") == "store_true":
            argv += [flag] if draw(st.booleans()) else []
            continue
        if "choices" in kwargs:
            value = draw(st.sampled_from([*kwargs["choices"], "bogus"]))
        elif kwargs.get("type") is int:
            value = draw(_INT_VALUES[flag])
        else:
            value = draw(_TEXT_VALUES[flag])
        argv.append(f"{flag}={value}")
    if "--raw" in argv:
        argv.append(f"--budget={draw(st.integers(0, 10**5))}")
    return argv


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_any_argv_exits_cleanly_with_one_document(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), err
    if code >= 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    elif "--csv" in argv:
        header, *rows = out.splitlines()
        assert header == _CSV_HEADERS[argv[0]]
        assert out.endswith("\n")
        assert all(row.count(",") == header.count(",") for row in rows)
    else:
        assert json.loads(out)["command"] == argv[0]
