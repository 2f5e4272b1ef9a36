"""End-to-end CLI checks through a real subprocess.

Every invocation goes through ``python -m sigmaprime`` so the argv parsing,
JSON emission, stderr diagnostics, and exit codes are exercised exactly as a
shell user would see them.
"""

import json
import subprocess
import sys

import pytest

from sigmaprime import cli

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
    monkeypatch.setitem(cli._COMMANDS, argv[0], (help_text, seen.append, options))
    cli.main(list(argv))
    assert seen == [cli._build_parser().parse_args(argv)]
