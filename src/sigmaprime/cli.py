"""Command-line surface.

Every subcommand prints exactly one JSON document on stdout; where a
command's result is a table, ``--csv`` switches the output to CSV with a
header row.  Arbitrary-precision integers are serialized as decimal
strings and rationals as {"num": ..., "den": ...} string pairs, so
consumers never face 64-bit overflow.  Identical invocations produce
byte-identical stdout.

Every subcommand is one row of a table: its help text, its handler and its
option rows.  A run builds the subparser of the subcommand it names and no
other; with no arguments, -h or an unknown command it builds them all, so
the usage message lists every subcommand.  A handler returns the document
without its "command" key, its exit code, and its CSV rows (header first)
or None; main adds "command" and alone writes stdout, so a run that errs
writes nothing there.  CSV is joined by hand, as the csv module would drop
the quotes that selftest puts around every detail.

Exit codes: 0 success or verified, 1 verification failure or inconsistent
fit, 2 usage error, 3 a budget refused the work before it started: arith's
one work limit (the oracle behind conv, verify, count and fit, check-main's
identity work, the direct and Moebius power sums, sigma-prime's divisor-pair
scan), arith's power-bits ceiling (psi, sigma-prime), arith's trial-division
ceiling, check-main's n ceiling, a raw count's --budget, or the output size
(a number of more than Python's integer-string limit, 4300 digits by
default).  Errors print a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .acceptance import run_all
from .identities import (
    THEOREM_BY_RS,
    Poly4,
    TheoremId,
    eval_theorem,
    main_identity_sides,
    parse_theorem_id,
    verify_theorem,
)
from .lattice import brute_convolution, sigma_prime
from .patternfit import (
    DEFAULT_TEST_NS,
    DEFAULT_TRAIN_NS,
    fit_and_validate,
    probe_weight10,
)
from .powersums import coprime_power_sum, psi
from .representations import DEFAULT_BUDGET, BudgetExceededError, CountSpec, count_fast, count_raw

__all__ = ["main", "console_entry"]

_METHOD_MAP = {"direct": "direct", "moebius": "moebius_faulhaber", "closed": "closed_table"}
_COUNTER_MAP = {"L": "L", "M": "M", "Lp": "Lprime", "Mp": "Mprime"}


class _Parser(argparse.ArgumentParser):
    # argparse's default error handler prints multi-line usage; the contract
    # here is a one-line stderr diagnostic and exit code 2
    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise ValueError(f"range must look like LO..HI, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 2 or hi < lo:
        raise ValueError(f"range must satisfy 2 <= LO <= HI, got {text!r}")
    return lo, hi


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _rat(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _cmd_psi(args):
    return {"inputs": {"s": args.s, "n": args.n}, "result": _rat(psi(args.s, args.n))}, 0, None


def _cmd_powersum(args):
    value = coprime_power_sum(args.k, args.n, _METHOD_MAP[args.method])
    return {
        "inputs": {"k": args.k, "n": args.n, "method": args.method},
        "result": str(value),
    }, 0, None


def _cmd_sigma_prime(args):
    value = sigma_prime(args.r, args.s, args.m, args.n)
    return {
        "inputs": {"r": args.r, "s": args.s, "m": args.m, "n": args.n},
        "result": str(value),
    }, 0, None


def _cmd_conv(args):
    body = {
        "inputs": {"r": args.r, "s": args.s, "n": args.n, "set": args.set, "method": args.method},
    }
    if args.method == "brute":
        body["result"] = str(brute_convolution(args.r, args.s, args.n, args.set))
        return body, 0, None
    if args.set != "Bprime":
        raise ValueError("closed forms are stored for the coprime set only; use --set Bprime")
    tag = THEOREM_BY_RS.get(tuple(sorted((args.r, args.s))))
    if tag is None:
        covered = ", ".join(f"{r},{s}" for r, s in sorted(THEOREM_BY_RS))
        raise ValueError(f"no stored closed form for ({args.r},{args.s}); covered pairs: {covered}")
    value = eval_theorem(TheoremId(tag), args.n)
    if value.denominator != 1:
        raise ArithmeticError(f"stored form for {tag} came out non-integral at n={args.n}")
    body["result"] = str(value.numerator)
    if tag == "t13":
        body["erratum_notes"] = (
            "the printed coefficient set for the (1,3) form is exactly 8 times the true "
            "value; the corrected set is used here"
        )
    return body, 0, None


def _cmd_check_main(args):
    f = Poly4.from_text(args.poly)
    lhs, rhs = main_identity_sides(f, args.n, args.set)
    return {
        "inputs": {"poly": f.to_text(), "n": args.n, "set": args.set},
        "result": {"lhs": str(lhs), "rhs": str(rhs), "equal": lhs == rhs},
        "verdict": "verified" if lhs == rhs else "failed",
    }, 0 if lhs == rhs else 1, None


def _cmd_verify(args):
    tid = parse_theorem_id(args.theorem)
    lo, hi = _parse_range(args.range_)
    report = verify_theorem(tid, lo, hi, jobs=args.jobs)
    first = report.first_counterexample

    def point(row) -> dict:
        return {"n": row.n, "oracle": str(row.oracle), "closed": _rat(row.closed)}

    body = {
        "inputs": {"theorem": str(tid), "range": f"{lo}..{hi}", "jobs": args.jobs},
        "result": {
            "rows": [{**point(row), "ok": row.ok} for row in report.rows],
            "checked": len(report.rows),
            "failures": sum(1 for row in report.rows if not row.ok),
            "first_counterexample": None if first is None else point(first),
        },
        "verdict": "verified" if report.all_pass else "failed",
    }
    if tid.name == "t13":
        body["erratum_notes"] = (
            "the printed coefficient set for the (1,3) form is exactly 8 times the oracle "
            "for every n; the corrected set matches it"
        )
    rows = [["n", "oracle", "closed", "ok"]] + [
        [str(row.n), str(row.oracle), str(row.closed), str(row.ok).lower()] for row in report.rows
    ]
    return body, 0 if report.all_pass else 1, rows


def _cmd_count(args):
    spec = CountSpec(_COUNTER_MAP[args.which], args.r, args.s, args.n)
    value = count_raw(spec, args.budget) if args.raw else count_fast(spec)
    return {
        "inputs": {"which": args.which, "r": args.r, "s": args.s, "n": args.n, "raw": args.raw},
        "result": str(value),
    }, 0, None


def _fit_body(report, inputs: dict):
    # fit and probe10 share this body; a weight-10 probe's report carries a label
    coeffs = report.coefficients
    result = {
        "coefficients": (
            {c: _rat(getattr(coeffs, c)) for c in "ABCD"} if coeffs is not None else "inconsistent"
        ),
        "degenerate": None if coeffs is None else coeffs.degenerate,
        "train_ns": list(report.train_ns),
        "test_ns": list(report.test_ns),
    }
    if report.label is not None:
        result["label"] = report.label
    body = {
        "inputs": inputs,
        "result": result,
        "verdict": report.verdict,
        "residuals": [_rat(res) for res in report.residuals],
    }
    rows = [["n", "residual"]]
    rows += [[str(n), str(res)] for n, res in zip(report.test_ns, report.residuals)]
    return body, 0 if report.verdict == "consistent" else 1, rows


def _cmd_fit(args):
    train = _parse_int_list(args.train)
    test = _parse_int_list(args.test)
    report = fit_and_validate(args.r, args.s, train, test)
    return _fit_body(report, {"r": args.r, "s": args.s, "train": list(train), "test": list(test)})


def _cmd_probe10(args):
    r, s = (int(part) for part in args.pair.split(","))
    train = _parse_int_list(args.train) if args.train else DEFAULT_TRAIN_NS
    test = _parse_int_list(args.test) if args.test else DEFAULT_TEST_NS
    report = probe_weight10(r, s, train, test)
    return _fit_body(report, {"pair": args.pair, "train": list(train), "test": list(test)})


def _cmd_selftest(args):
    results = run_all(quick=args.quick)
    for res in results:
        print(("PASS" if res.passed else "FAIL") + f" {res.name}: {res.detail}", file=sys.stderr)
    passed = sum(1 for res in results if res.passed)
    body = {
        "inputs": {"quick": args.quick},
        "result": {
            "criteria": [
                {"name": res.name, "passed": res.passed, "detail": res.detail} for res in results
            ],
            "passed_count": passed,
            "failed_count": len(results) - passed,
        },
        "verdict": "pass" if passed == len(results) else "fail",
    }
    rows = [["criterion", "passed", "detail"]] + [
        [res.name, str(res.passed).lower(), '"' + res.detail.replace('"', '""') + '"']
        for res in results
    ]
    return body, 0 if passed == len(results) else 1, rows


_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
_SET = {"choices": ("B", "Bprime"), "default": "Bprime"}
_R, _S, _N = ("--r", _INT), ("--s", _INT), ("--n", _INT)

# subcommand -> (help, handler, option rows (flag, add_argument keywords))
_COMMANDS = {
    "psi": ("evaluate psi_s(n)", _cmd_psi, (_S, _N)),
    "powersum": ("coprime power sum S_k(n)", _cmd_powersum, (
        ("--k", _INT), _N,
        ("--method", {"choices": sorted(_METHOD_MAP), "default": "direct"}))),
    "sigma-prime": ("two-variable coprime divisor sum", _cmd_sigma_prime, (
        _R, _S, ("--m", _INT), _N)),
    "conv": ("convolution sum over a solution set", _cmd_conv, (
        _R, _S, _N, ("--set", _SET),
        ("--method", {"choices": ("brute", "closed"), "default": "brute"}))),
    "check-main": ("evaluate both sides of the six-term identity", _cmd_check_main, (
        ("--poly", {"required": True, "metavar": "TEXT"}), _N, ("--set", _SET))),
    "verify": ("check a stored closed form against the oracle", _cmd_verify, (
        ("--theorem", {"required": True, "metavar": "ID[:printed|:corrected]"}),
        ("--range", {"required": True, "metavar": "LO..HI", "dest": "range_"}),
        ("--jobs", {"type": int, "default": 1,
                    "help": "accepted for compatibility; rows run in one process"}),
        ("--csv", _FLAG))),
    "count": ("representation counter", _cmd_count, (
        ("--which", {"choices": sorted(_COUNTER_MAP), "required": True}), _R, _S, _N,
        ("--raw", _FLAG), ("--budget", {"type": int, "default": DEFAULT_BUDGET}))),
    "fit": ("fit the closed-form ansatz to oracle values", _cmd_fit, (
        _R, _S, ("--train", {"required": True, "metavar": "CSV"}),
        ("--test", {"required": True, "metavar": "CSV"}), ("--csv", _FLAG))),
    "probe10": ("run the fitter at an unproven weight-10 pair", _cmd_probe10, (
        ("--pair", {"choices": ("1,9", "3,7", "5,5"), "required": True}),
        ("--train", {"default": None, "metavar": "CSV"}),
        ("--test", {"default": None, "metavar": "CSV"}), ("--csv", _FLAG))),
    "selftest": ("run the acceptance checklist", _cmd_selftest, (
        ("--quick", _FLAG), ("--csv", _FLAG))),
}


def _build_parser(names=_COMMANDS) -> _Parser:
    parser = _Parser(prog="sigmaprime", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in names:
        help_text, _, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        body, code, rows = _COMMANDS[args.command][1](args)
        if getattr(args, "csv", False):
            sys.stdout.write("\n".join(",".join(row) for row in rows) + "\n")
        else:
            sys.stdout.write(json.dumps({"command": args.command, **body}, indent=2) + "\n")
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        # Python refuses to convert an int of more than sys.get_int_max_str_digits()
        # digits to or from text with a plain ValueError.  Lifting the limit would
        # make str() quadratic in the output size, so the number is refused instead.
        if "integer string conversion" in str(exc):
            limit = sys.get_int_max_str_digits()
            print(
                f"error: a number has more than {limit} decimal digits, "
                "the integer-string limit",
                file=sys.stderr,
            )
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    raise SystemExit(main())
