"""Command-line surface.

Every subcommand prints exactly one JSON document on stdout; where a
command's result is a table, ``--csv`` switches the output to CSV with a
header row.  Arbitrary-precision integers are serialized as decimal
strings and rationals as {"num": ..., "den": ...} string pairs, so
consumers never face 64-bit overflow.  Identical invocations produce
byte-identical stdout.

Every subcommand is one row of a table: its help text, its handler and its
option rows.  A plain well-formed argv is read straight from those rows and
builds no parser, so a cold command never imports the locale module that
argparse's messages pull in, and the acceptance checklist is imported by
selftest alone.  A value in its own token may start with "-" where argparse
too reads it as a value: a negative integer, or text with a space that
starts with neither -h nor --, such as a polynomial with a negative leading
coefficient.  Help, abbreviated options, every usage error and every unusual
form go to argparse, the one source of help, of error text and of the
abbreviation rule; a run then builds the subparser of the subcommand it
names and no other, and with no arguments, -h or an unknown command it
builds them all, so the usage message lists every subcommand.  A handler
returns the document without its "command" key, its exit code, and its CSV
rows (header first) or None; main adds "command" and alone writes stdout, so
a run that errs writes nothing there.  One small writer gives a document
exactly the bytes of json.dumps(doc, indent=2), each string through json's
C escaper, as json.dumps itself runs its pure-Python encoder whenever indent
is set.  CSV is joined by hand, as the csv module would drop the quotes that
selftest puts around every detail.

Exit codes: 0 success or verified, 1 verification failure or inconsistent
fit, 2 usage error, 3 a budget refused the work before it started: arith's
one work limit (the moment core behind conv, verify, count, fit and
check-main, whose estimate counts moments, degree and right-side rows, and
the direct and Moebius power sums), arith's power-bits ceiling (psi,
sigma-prime), arith's trial-division ceiling, a raw count's --budget, or the
output size (a number of more than Python's integer-string limit, 4300
digits by default; conv --method brute and count refuse a result that is
certainly that large after the oracle's gate and before its work).  Errors
print a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .identities import (
    THEOREM_BY_RS,
    Poly4,
    TheoremId,
    eval_theorem,
    main_identity_sides,
    parse_theorem_id,
    verify_theorem,
)
from .lattice import SOLUTION_SETS, _convolution_work, brute_convolution, sigma_prime
from .patternfit import DEFAULT_TEST_NS, DEFAULT_TRAIN_NS, fit_and_validate, probe_weight10
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

    # argparse drops a "--" value, as in --n=--, and would store an empty list
    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _parse_range(text: str) -> tuple[int, int]:
    # isdecimal() accepts exactly what \d+ matches: one or more Unicode digits
    lo, sep, hi = text.partition("..")
    if not (sep and lo.isdecimal() and hi.isdecimal()):
        raise ValueError(f"range must look like LO..HI, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo < 2 or hi < lo:
        raise ValueError(f"range must satisfy 2 <= LO <= HI, got {text!r}")
    return lo, hi


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _json(value, pad: str = "\n") -> str:
    # json.dumps(value, indent=2) for the types the handlers return, each int
    # through int.__repr__ as in json.  pad is the line break and indent that
    # close the value's brackets; a dict's str values, most of the leaves, are
    # escaped without a call.
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)  # over the digit limit, json's ValueError
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": "
            + (encode_basestring_ascii(item) if type(item) is str else _json(item, inner))
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]) + pad + "]"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _digit_limit_message() -> str:
    limit = sys.get_int_max_str_digits()
    return f"a number has more than {limit} decimal digits, the integer-string limit"


def _refuse_unprintable_oracle(r: int, s: int, n: int) -> None:
    # The oracle's sum over B(n) or B'(n) takes in (n - 1, 1, 1, 1) and
    # (1, n - 1, 1, 1), so it is at least (n - 1)**e, e = max(r, s).  After the
    # oracle's own gate and before its work, refuse a result that this bound
    # puts over the integer-string limit (0 means none): with bits the bit
    # length of (n - 1)**64 less 1, (n - 1)**e >= 2**(e * bits / 64), and
    # 10**limit < 2**(limit * 3322 // 1000 + 1).
    _convolution_work(r, s, (n,))
    limit = sys.get_int_max_str_digits()
    if limit and max(r, s) * (((n - 1) ** 64).bit_length() - 1) >= 64 * (limit * 3322 // 1000 + 1):
        raise BudgetExceededError(_digit_limit_message())


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
        _refuse_unprintable_oracle(args.r, args.s, args.n)
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
    _refuse_unprintable_oracle(spec.r, spec.s, spec.n)
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
    train = DEFAULT_TRAIN_NS if args.train is None else _parse_int_list(args.train)
    test = DEFAULT_TEST_NS if args.test is None else _parse_int_list(args.test)
    report = probe_weight10(r, s, train, test)
    return _fit_body(report, {"pair": args.pair, "train": list(train), "test": list(test)})


def _cmd_selftest(args):
    from .acceptance import run_all  # the checklist is loaded by selftest alone

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
_SET = {"choices": SOLUTION_SETS, "default": "Bprime"}
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


def _parse_table(argv: list[str]) -> argparse.Namespace | None:
    # The Namespace that _build_parser().parse_args(argv) returns, read from
    # the option rows, or None where that is not certain: help, every usage
    # error and every unusual form are left to argparse, which writes the
    # message and picks the exit code.
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = dict(_COMMANDS[argv[0]][2])
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in rows:
            # an abbreviation, help or a stray token
            return None
        kwargs = rows[flag]
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            # argparse takes a token that starts with "-" as a value when it is
            # a negative number, or when it contains a space and does not start
            # with -h, an option string.  One that starts with -- is left to it,
            # as its text before "=" may name an option ("--n=1 2"), and so is
            # a missing value
            value = next(tokens, "--")
            if value.startswith("-") and not value[1:].isdecimal() and (
                " " not in value or value[:2] in ("-h", "--")
            ):
                return None
        if value == "--":
            # argparse drops a "--" value and stores an empty list
            return None
        if kwargs.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0])
    for flag, kwargs in rows.items():
        if kwargs.get("required") and flag not in given:
            return None
        default = kwargs.get("default", False if kwargs.get("action") else None)
        setattr(args, kwargs.get("dest", flag[2:].replace("-", "_")), given.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_table(argv)
    if args is None:
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
            sys.stdout.write(_json({"command": args.command, **body}) + "\n")
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        # Python refuses to convert an int of more than sys.get_int_max_str_digits()
        # digits to or from text with a plain ValueError.  Lifting the limit would
        # make str() quadratic in the output size, so the number is refused instead.
        if "integer string conversion" in str(exc):
            print(f"error: {_digit_limit_message()}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    raise SystemExit(main())
