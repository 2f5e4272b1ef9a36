"""End-to-end CLI checks.

Most invocations go through ``python -m sigmaprime`` so the argv parsing,
JSON emission, stderr diagnostics, and exit codes are exercised exactly as a
shell user would see them.  The golden digests, the budget refusals that
patch a module and the argv properties call ``cli.main`` in process; the
table parser is held to argparse, and the document writer to
``json.dumps(indent=2)``, by differential properties.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmaprime import arith, cli, identities, lattice, patternfit, powersums
from sigmaprime.lattice import sigma_prime

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
    for args, message in (
        (
            ("--which", "M", "--r", "3", "--s", "3", "--n", "12", "--budget", "1000"),
            "raw enumeration of M(3,3;12) needs at least 301070 tuple visits, budget is 1000",
        ),
        # the tuple budget admits it, but listing B(9000) is over the work limit
        (
            ("--which", "L", "--r", "1", "--s", "1", "--n", "9000", "--budget", str(10**40)),
            "listing B(9000) needs about 10584000 units of work, the limit is 10000000",
        ),
    ):
        proc = run("count", "--raw", *args)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        # each just over the oracle's work limit, so nothing large runs if the check broke
        ("conv", "--r", "1", "--s", "3", "--n", "200000"),
        ("conv", "--r", "2", "--s", "2", "--n", "200000", "--set", "B"),
        ("verify", "--theorem", "t15", "--range", "2..5000"),
        ("fit", "--r", "1", "--s", "3", "--train", "2,3,4,5,7,200000", "--test", "11"),
        ("count", "--which", "Lp", "--r", "1", "--s", "3", "--n", "200000"),
        # check-main's identity work, in the same units
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
        assert proc.stderr.startswith("error: identity sides at n = 200000 need about ")
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
    "args, needs",
    [
        (
            ("fit", "--r", "10007", "--s", "99991", "--train", "2,3,4,5,7,9", "--test", "11,13"),
            "the exact solve of the fit needs about 239424000",
        ),
        (("powersum", "--k", "200000", "--n", "1000"), "the direct power sum needs 15264649000"),
        (("powersum", "--k", "1000000", "--n", "100"), "the direct power sum needs 18692358400"),
        (("powersum", "--k", "10007", "--n", "10007"), "the direct power sum needs 751285532"),
    ],
)
def test_big_power_budget_exit_3(args, needs, capsys, monkeypatch):
    # each ran 20-57 s and then exited 1 or 3 while its estimate missed the
    # cost of its big powers; now each is refused before its first power
    def no_work(*args):
        raise AssertionError("the work started")

    for module, name in (
        (powersums, "_direct_power_sum"),
        (patternfit, "_solve_exact"),
        (patternfit, "_convolutions"),
    ):
        monkeypatch.setattr(module, name, no_work)
    assert cli.main(list(args)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {needs} units of work, the limit is 10000000\n"


@pytest.mark.parametrize(
    "args",
    [
        ("conv", "--r", "2000", "--s", "1", "--n", "600", "--set", "B"),
        ("psi", "--s", "20000", "--n", "6"),
        ("sigma-prime", "--r", "6000", "--s", "1", "--m", "6", "--n", "6"),
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
            (identities, "_left_moments"),
            f"identity sides at n = 200 need about {work} units of work, the limit is 10000000",
        )
        for which, work in (("B", 81391142800), ("Bprime", 81388513600))
    ]
    + [
        (
            ("psi", "--s", "1048576", "--n", "2"),
            (powersums, "factorize"),
            "psi(1048576, 2) needs powers of more than 1048576 bits",
        ),
        (
            ("sigma-prime", "--r", "1048576", "--s", "1", "--m", "2", "--n", "2"),
            (lattice, "factorize"),
            "sigma_prime(1048576, 1, 2, 2) needs powers of more than 1048576 bits",
        ),
    ]
    + [
        # computed, this ran 9.4 s over B and 13.1 s over B'
        (
            ("check-main", "--poly", "1x^2000", "--n", "200", "--set", which),
            (identities, "_left_moments"),
            f"identity sides at n = 200 need about {work} units of work, the limit is 10000000",
        )
        for which, work in (("B", 833139200), ("Bprime", 832870400))
    ],
)
def test_power_and_degree_budget_exit_3(args, work, message, monkeypatch, capsys):
    # each refusal comes before its first step of work, which here fails the test
    monkeypatch.setattr(*work, _no_work)
    assert cli.main(list(args)) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


_DIGIT_LIMIT_LINE = "error: a number has more than 4300 decimal digits, the integer-string limit\n"


@pytest.mark.parametrize(
    "args",
    [
        # computed, this ran 2.7-3.7 s before its result met the digit limit
        ("conv", "--r", "131242", "--s", "131242", "--n", "50"),
        ("conv", "--r", "2000", "--s", "1", "--n", "600", "--set", "B"),
        ("count", "--which", "Lp", "--r", "1", "--s", "2000", "--n", "600"),
        ("count", "--which", "M", "--r", "2000", "--s", "1", "--n", "600", "--raw"),
    ],
)
def test_unprintable_oracle_result_exit_3_before_work(args, monkeypatch, capsys):
    monkeypatch.setattr(lattice, "_moment_sums", _no_work)
    assert cli.main(list(args)) == 3
    assert capsys.readouterr() == ("", _DIGIT_LIMIT_LINE)


def _refused(r, s, n):
    try:
        cli._refuse_unprintable_oracle(r, s, n)
    except arith.BudgetExceededError as exc:
        assert f"error: {exc}\n" == _DIGIT_LIMIT_LINE.replace("4300", "640")
        return True
    return False


def test_unprintable_check_refuses_only_what_str_refuses():
    # across each n's edge at the smallest limit Python allows: every refused
    # result is one str() refuses, and every (n - 1)**e, e = max(r, s), of at
    # least 653 digits, 2 % over the limit, is refused
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        refusals = 0
        for n in (2, 3, 4, 5, 9, 17, 50, 600):
            edge = 2127 if n == 2 else 640 / math.log10(n - 1)
            for e in sorted({int(edge * f) for f in (0.5, 0.97, 0.99, 1, 1.01, 1.02, 1.03, 2)}):
                for r, s in ((e, 0), (1, e)):
                    refused = _refused(r, s, n)
                    refusals += refused
                    if (n - 1) ** e >= 10**652:
                        assert refused, (r, s, n)
                    for which in lattice.SOLUTION_SETS:
                        value = lattice.brute_convolution(r, s, n, which)
                        if refused:
                            with pytest.raises(ValueError, match="integer string conversion"):
                                str(value)
        assert refusals > 20
        sys.set_int_max_str_digits(0)  # no limit, so nothing is refused
        assert not _refused(131242, 131242, 50)
    finally:
        sys.set_int_max_str_digits(saved)


def test_sigma_prime_answers_past_the_old_pair_scan_limit(monkeypatch, capsys):
    # 97821761637600 has 17280 divisors, so a divisor-pair scan would test 3e8
    # pairs; the product over its primes needs no scan, so a tiny work limit is moot
    monkeypatch.setattr(arith, "_WORK_LIMIT", 1)
    argv = ["sigma-prime", "--r", "1", "--s", "1", "--m", "97821761637600", "--n", "97821761637600"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["result"] == str(sigma_prime(1, 1, 97821761637600, 97821761637600))


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


@pytest.mark.parametrize("option", ["--train", "--test"])
def test_probe10_empty_list_is_a_usage_error(option, capsys):
    # an explicit empty list is refused as fit refuses it, not read as the default
    assert cli.main(["probe10", "--pair", "5,5", f"{option}="]) == 2
    message = "error: expected a comma-separated integer list, got ''\n"
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("test, message", [
    ("2", "test points [2] overlap the training set"),
    ("-3", "test points must be >= 2, got -3"),
])
@pytest.mark.parametrize("argv", [
    ["probe10", "--pair", "5,5"],
    ["fit", "--r", "5", "--s", "5", "--train", "2,3,4,5,7,9"],
    ["fit", "--r", "1", "--s", "1", "--train", "2,3,4,5,7,9"],
], ids=["probe10", "fit-inconsistent", "fit-consistent"])
def test_bad_test_points_are_a_usage_error_whatever_the_fit(argv, test, message, capsys):
    # an inconsistent fit refuses the test points that a consistent one refuses
    assert cli.main([*argv, f"--test={test}"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


# A fresh interpreter imports the CLI, lists what that import loaded, then
# runs selftest --quick plain and as CSV in the same process.
_COLD_IMPORT = """
import contextlib, hashlib, io, json, sys
before = set(sys.modules)
import sigmaprime.cli as cli
loaded = sorted({"dataclasses", "sigmaprime.acceptance"} & (set(sys.modules) - before))
runs = []
for argv in (["selftest", "--quick"], ["selftest", "--quick", "--csv"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    runs.append([argv, code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


@pytest.mark.slow
def test_cold_import_leaves_out_dataclasses_and_the_checklist():
    # records are NamedTuples, and only selftest imports the acceptance checklist
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["loaded"] == []
    assert doc["runs"] == [list(row) for row in GOLDEN if row[0][0] == "selftest"]


# strings with json's escapes, non-ASCII and astral characters; ints up to
# about 4000 digits, either sign
_JSON_TEXT = st.text(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f600') | st.characters()
)
_JSON_INTS = st.integers() | st.builds(
    lambda digits, sign, low: sign * (10**digits + low),
    st.integers(3900, 3999), st.sampled_from((1, -1)), st.integers(0, 10**6),
)
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | _JSON_INTS | _JSON_TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_TEXT, kids, max_size=4),
    max_leaves=24,
)


@settings(deadline=None)
@given(_JSON_DOCS)
@example({})
@example([])
@example({"a": [True, False, None, 0, -1, ""], "b": {}, "c": [[], {"d": {"e": []}}]})
def test_json_writer_matches_json_dumps(doc):
    # json.dumps(indent=2) is the writer's oracle
    assert cli._json(doc) == json.dumps(doc, indent=2)


def test_json_writer_raises_as_json_does():
    over = {"result": [10**4300]}
    with pytest.raises(ValueError, match="integer string conversion"):
        json.dumps(over, indent=2)
    with pytest.raises(ValueError, match="integer string conversion"):
        cli._json(over)
    for value in (1.5, (1,), Fraction(1, 2), b"x", {"a": {1, 2}}):
        with pytest.raises(TypeError):
            cli._json(value)


def _document(argv):
    # the document main writes for argv, "command" key first
    args = cli._parse_table(list(argv))
    body, _, _ = cli._COMMANDS[args.command][1](args)
    return {"command": args.command, **body}


@pytest.mark.parametrize(
    "argv", [argv for argv, code, _ in GOLDEN if code < 2], ids=lambda argv: " ".join(argv)
)
def test_json_writer_matches_json_dumps_on_golden_documents(argv, capsys):
    doc = _document(argv)
    assert cli._json(doc) == json.dumps(doc, indent=2)


def _pure_python_encoder(*args, **kwargs):
    raise AssertionError("json's pure-Python encoder ran")


# the first golden run of each subcommand, as JSON and as CSV
_ONE_PER_SUBCOMMAND = list({
    (argv[0], "--csv" in argv): (argv, code, digest)
    for argv, code, digest in reversed(GOLDEN)
    if code < 2
}.values())


@pytest.mark.parametrize(
    "argv, code, digest", _ONE_PER_SUBCOMMAND, ids=[" ".join(row[0]) for row in _ONE_PER_SUBCOMMAND]
)
def test_documents_are_written_without_the_pure_python_encoder(
    argv, code, digest, monkeypatch, capsys
):
    # json.dumps runs _make_iterencode whenever indent is set, at about twice
    # the cost of the writer; an indent= edit in main fails here
    monkeypatch.setattr(json.encoder, "_make_iterencode", _pure_python_encoder)
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


def _full_names(argv):
    # argv with each abbreviated option spelled out by its unique prefix
    flags = [flag for flag, _ in cli._COMMANDS[argv[0]][2]]
    full = [argv[0]]
    for token in argv[1:]:
        flag, eq, value = token.partition("=")
        if flag.startswith("--") and flag not in flags:
            (flag,) = [name for name in flags if name.startswith(flag)]
        full.append(flag + eq + value)
    return full


def _abbreviated(argv):
    # argv with each option cut to its shortest prefix that names it alone
    flags = [flag for flag, _ in cli._COMMANDS[argv[0]][2]] + ["--help"]
    short = [argv[0]]
    for token in argv[1:]:
        if token in flags:
            prefixes = (token[:end] for end in range(3, len(token)))
            token = next(
                (cut for cut in prefixes if [f for f in flags if f.startswith(cut)] == [token]),
                token,
            )
        short.append(token)
    return short


# (abbreviated argv, full-name argv) of each FULL_ARGVS row and golden argv
# with an option to abbreviate; psi and sigma-prime have none
_ABBREVIATIONS = [
    (short, full)
    for short, full in [(argv, _full_names(argv)) for argv in FULL_ARGVS]
    + [(_abbreviated(argv), argv) for argv, _, _ in GOLDEN]
    if short != full
]


@pytest.mark.parametrize("short, full", _ABBREVIATIONS, ids=lambda argv: " ".join(argv))
def test_abbreviations_run_as_the_full_names(short, full, monkeypatch, capsys):
    # argparse alone reads an abbreviation, building only the named subparser;
    # the full names stay on the table path, which builds none
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    expected = cli.main(list(full)), capsys.readouterr().out
    assert built == []
    assert (cli.main(list(short)), capsys.readouterr().out) == expected
    assert built == ["sigmaprime", f"sigmaprime {short[0]}"]


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
            "-1 x^3 y^3 + 1 x^1 y^5",
            "-22 x^7 y^1 + 112 x^5 y^3",
            "-1x^2 - 1y^2",
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
        if not draw(st.integers(0, 19)):
            value = "--"
        elif "choices" in kwargs:
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


# the check-main polynomial starts with "-", as to_text prints a negative
# leading coefficient
_PLAIN_ARGVS = [
    ["psi", "--s", "3", "--n", "100"],
    ["check-main", "--poly", "-1 x^3 y^3 + 1 x^1 y^5", "--n", "13", "--set", "B"],
]


def test_plain_argv_builds_no_parser(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv in _PLAIN_ARGVS:
        assert cli.main(list(argv)) == 0
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert built == []


def test_plain_command_imports_no_locale():
    # -X importtime lists on stderr every module the run imports; argparse's
    # messages would pull in locale
    for argv in _PLAIN_ARGVS:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *CMD[1:], *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
        assert "argparse" in imported
        assert "locale" not in imported, argv


_ROW_KEYWORDS = {"type", "required", "choices", "default", "action", "dest", "metavar", "help"}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_option_rows_use_only_what_the_table_parser_reads(name):
    # a row with nargs, another action or another type would silently part
    # the table parser from argparse; this fails instead
    for flag, kwargs in cli._COMMANDS[name][2]:
        assert flag.startswith("--") and set(kwargs) <= _ROW_KEYWORDS, flag
        assert kwargs.get("type", int) is int, flag
        assert kwargs.get("action", "store_true") == "store_true", flag
        # argparse converts a str default through the type; the table parser does not
        assert not ("type" in kwargs and isinstance(kwargs.get("default"), str)), flag


_WHOLE_TABLE = cli._build_parser()


def _argparse(argv):
    # argparse's Namespace for argv, or None where it prints help or an error
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _WHOLE_TABLE.parse_args(argv)
        except SystemExit:
            return None


_ODD_VALUES = st.sampled_from(
    [
        " 7", "+3", "1_0", "7 8", "-3", "-٣", "-1.5", "-", "--", "", "-1 x^2", "-1x^2",
        "-h x", "-- x", "--n=1 2", "- 7", "-3 ", "B", "t11", "a=b",
    ]
)
_ODD_TOKENS = st.sampled_from(
    ["-", "--", "-h", "--help", "--he", "stray", "7", "-5", "--bogus", "-n", "--=3", "--n 5"]
)


@st.composite
def _wild_argvs(draw):
    # an _argvs() draw recast into the other forms argparse reads: spaced
    # values, prefixes unique or ambiguous, odd values, a repeated flag, help
    # flags and stray tokens; one draw per token keeps 2000 examples quick
    name, *tokens = draw(_argvs())
    argv = [name]
    for token in tokens:
        flag, eq, value = token.partition("=")
        shape = draw(st.integers(0, 15))
        if shape < 4:
            flag = flag[: draw(st.integers(2, len(flag)))]
        if shape in (4, 5):
            eq, value = "=", draw(_ODD_VALUES)
        if not eq:
            argv.append(flag)
        elif shape % 2:
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    extra = draw(st.integers(0, 3))
    if extra == 1 and len(argv) > 1:
        start = draw(st.integers(1, len(argv) - 1))
        argv += argv[start : start + 2]
    elif extra == 2:
        argv.insert(draw(st.integers(1, len(argv))), draw(_ODD_TOKENS))
    return argv


@settings(max_examples=2000, deadline=None)
@given(_wild_argvs())
@example(["check-main", "--poly=--", "--n", "6"])  # argparse alone would store [] for a "--" value
@example(["check-main", "--poly", "-h x", "--n", "6"])  # -h with an explicit argument
@example(["check-main", "--poly", "--n=1 2", "--n", "6"])  # --n with an explicit argument
def test_table_parse_is_argparse_where_it_answers(argv):
    args = cli._parse_table(list(argv))
    if args is not None:
        assert args == _argparse(argv)


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_table_parse_answers_every_argv_argparse_accepts(argv):
    assert cli._parse_table(list(argv)) == _argparse(argv)


def test_table_parse_reads_every_printed_polynomial():
    # to_text starts a negative leading coefficient with "-", and argparse
    # reads such a spaced value as a value, so the table parser must too
    rng = random.Random(23)
    polys = list(identities.PROOF_POLYNOMIALS)
    polys += [identities.Poly4() - f for f in polys]
    polys += [identities.random_symmetric_poly(rng) for _ in range(20)]
    for f in polys:
        argv = ["check-main", "--poly", f.to_text(), "--n", "13"]
        args = cli._parse_table(argv)
        assert args is not None, argv
        assert args == _argparse(argv)


_VALUE_OPTIONS = [
    (name, flag)
    for name, (_, _, options) in cli._COMMANDS.items()
    for flag, kwargs in options
    if kwargs.get("action") != "store_true"
]


@pytest.mark.parametrize("name, flag", _VALUE_OPTIONS, ids=[n + f for n, f in _VALUE_OPTIONS])
def test_dash_dash_value_is_one_usage_line(name, flag, capsys):
    # a lone "--" value is dropped by argparse, which would hand the handler []
    argv = [name, f"{flag}=--"]
    message = f"error: argument {flag}: expected one argument\n"
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", message)
    with pytest.raises(SystemExit) as info:
        cli._build_parser().parse_args(argv)
    assert info.value.code == 2
    assert capsys.readouterr() == ("", message)


def _regex_parse_range(text):
    # the regex form of cli._parse_range, kept as its oracle
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise ValueError(f"range must look like LO..HI, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 2 or hi < lo:
        raise ValueError(f"range must satisfy 2 <= LO <= HI, got {text!r}")
    return lo, hi


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text",
    ["2..9", "٢..٩", "2..3..4", "..3", "2..", " 2..3", "9..2", "1..4", "+2..3", "2..3\n"],
)
def test_parse_range_matches_the_regex_form(text):
    assert _outcome(cli._parse_range, text) == _outcome(_regex_parse_range, text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="019.٢ +-\n_", max_size=8))
def test_parse_range_matches_the_regex_form_on_any_text(text):
    assert _outcome(cli._parse_range, text) == _outcome(_regex_parse_range, text)
