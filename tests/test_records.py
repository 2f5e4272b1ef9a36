"""The package's twelve record types: construction, defaults, immutability,
value equality and hash, repr, and the validating constructors."""

import copy
import pickle
from fractions import Fraction

import pytest

from sigmaprime.acceptance import Criterion, CriterionResult
from sigmaprime.identities import TheoremId, VerifyReport, VerifyRow
from sigmaprime.lattice import PreIdentityReport
from sigmaprime.patternfit import FitReport, PatternCoeffs
from sigmaprime.powersums import ClosedForm
from sigmaprime.representations import CountSpec, LMReport, LMRow

_ROW = VerifyRow(2, 1, Fraction(1), True)
_T11 = TheoremId("t11")
_LM_ROW = LMRow(2, {}, {}, (), 0, 0, True)

# (class, positional arguments, keyword arguments naming the same record, repr)
RECORDS = [
    (CountSpec, ("L", 1, 1, 400), {"which": "L", "r": 1, "s": 1, "n": 400},
     "CountSpec(which='L', r=1, s=1, n=400)"),
    (LMRow, (2, {"L": 1}, {}, ("M",), 1, 1, True),
     {"n": 2, "fast": {"L": 1}, "raw": {}, "skipped": ("M",), "conv_plain": 1,
      "conv_coprime": 1, "ok": True},
     "LMRow(n=2, fast={'L': 1}, raw={}, skipped=('M',), conv_plain=1, conv_coprime=1, ok=True)"),
    (LMReport, (1, 3, (_LM_ROW,), True, False),
     {"r": 1, "s": 3, "rows": (_LM_ROW,), "all_pass": True, "skipped_any": False},
     "LMReport(r=1, s=3, rows=(LMRow(n=2, fast={}, raw={}, skipped=(), conv_plain=0, "
     "conv_coprime=0, ok=True),), all_pass=True, skipped_any=False)"),
    (TheoremId, ("t13", "printed"), {"name": "t13", "variant": "printed"},
     "TheoremId(name='t13', variant='printed')"),
    (VerifyRow, (2, 1, Fraction(1), True), {"n": 2, "oracle": 1, "closed": Fraction(1), "ok": True},
     "VerifyRow(n=2, oracle=1, closed=Fraction(1, 1), ok=True)"),
    (VerifyReport, (_T11, (_ROW,), True, None),
     {"theorem": _T11, "rows": (_ROW,), "all_pass": True, "first_counterexample": None},
     "VerifyReport(theorem=TheoremId(name='t11', variant='corrected'), "
     "rows=(VerifyRow(n=2, oracle=1, closed=Fraction(1, 1), ok=True),), all_pass=True, "
     "first_counterexample=None)"),
    (PreIdentityReport, (1, 3, 2, 1, 1, 1, 1, 1, 1, True),
     {"r": 1, "s": 3, "n": 2, "conv_rs": 1, "conv_sr": 1, "xy_rs": 1, "xy_sr": 1, "ab_rs": 1,
      "ab_sr": 1, "all_equal": True},
     "PreIdentityReport(r=1, s=3, n=2, conv_rs=1, conv_sr=1, xy_rs=1, xy_sr=1, ab_rs=1, "
     "ab_sr=1, all_equal=True)"),
    (PatternCoeffs, (Fraction(1, 2), Fraction(0), Fraction(-1, 3), Fraction(0), True),
     {"A": Fraction(1, 2), "B": Fraction(0), "C": Fraction(-1, 3), "D": Fraction(0),
      "degenerate": True},
     "PatternCoeffs(A=Fraction(1, 2), B=Fraction(0, 1), C=Fraction(-1, 3), D=Fraction(0, 1), "
     "degenerate=True)"),
    (FitReport, (1, 1, None, (2, 3), (5,), (Fraction(1),), "inconsistent", "numerical evidence"),
     {"r": 1, "s": 1, "coefficients": None, "train_ns": (2, 3), "test_ns": (5,),
      "residuals": (Fraction(1),), "verdict": "inconsistent", "label": "numerical evidence"},
     "FitReport(r=1, s=1, coefficients=None, train_ns=(2, 3), test_ns=(5,), "
     "residuals=(Fraction(1, 1),), verdict='inconsistent', label='numerical evidence')"),
    (ClosedForm, (((Fraction(1, 2), 2, -1),),), {"terms": ((Fraction(1, 2), 2, -1),)},
     "ClosedForm(terms=((Fraction(1, 2), 2, -1),))"),
    (CriterionResult, ("x", True, "d"), {"name": "x", "passed": True, "detail": "d"},
     "CriterionResult(name='x', passed=True, detail='d')"),
    (Criterion, ("x", (1,), (2,), max), {"name": "x", "quick": (1,), "full": (2,), "check": max},
     "Criterion(name='x', quick=(1,), full=(2,), check=<built-in function max>)"),
]

_IDS = [cls.__name__ for cls, _, _, _ in RECORDS]

_OTHER = {
    CountSpec: "M",
    TheoremId: "t11",
    VerifyReport: TheoremId("t13"),
    ClosedForm: (),
    CriterionResult: "y",
    Criterion: "y",
}

# records that hold a dict, and so have no hash
_UNHASHABLE = {LMRow, LMReport}


def test_twelve_records():
    assert len({cls for cls, _, _, _ in RECORDS}) == 12


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text):
    assert cls(*args) == cls(**kwargs)
    assert [getattr(cls(*args), name) for name in kwargs] == list(args)


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_IDS)
def test_repr(cls, args, kwargs, text):
    assert repr(cls(*args)) == repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_IDS)
def test_fields_cannot_be_assigned(cls, args, kwargs, text):
    record = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_IDS)
def test_equality_and_hash_by_value(cls, args, kwargs, text):
    first, second = cls(*args), cls(*copy.deepcopy(args))
    assert first == second and not first != second
    name = next(iter(kwargs))  # the first field, changed to a valid other value
    assert first != cls(**{**kwargs, name: _OTHER.get(cls, 7)})
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_IDS)
def test_copies_and_pickles_keep_the_value(cls, args, kwargs, text):
    record = cls(*args)
    assert copy.copy(record) == copy.deepcopy(record) == record
    if cls is not Criterion:  # its check is a function
        assert pickle.loads(pickle.dumps(record)) == record


def test_defaults():
    assert TheoremId("t11") == TheoremId("t11", "corrected")
    assert TheoremId(name="t11").variant == "corrected"
    coeffs = PatternCoeffs(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert coeffs.degenerate is False
    assert FitReport(1, 1, None, (), (), (), "inconsistent").label is None


def test_methods_and_properties():
    assert str(TheoremId("t11")) == "t11"
    assert str(TheoremId("t13", "printed")) == "t13:printed"
    assert str(TheoremId("t13")) == "t13:corrected"
    assert CountSpec("L", 1, 1, 4).solution_set == "B"
    assert CountSpec("Mprime", 1, 1, 4).solution_set == "Bprime"
    assert PreIdentityReport(1, 3, 2, 1, 2, 3, 4, 5, 6, False).values() == (1, 2, 3, 4, 5, 6)
    assert Criterion("c", (3, 4), (5,), lambda *a: (True, str(a))).run(True) == CriterionResult(
        "c", True, "(3, 4)"
    )
    form = ClosedForm(((Fraction(1, 2), 2, -1),))  # S_1(n) = n**2 psi_{-1}(n) / 2
    assert form.evaluate(10) == 20
    assert copy.deepcopy(form).evaluate(10) == pickle.loads(pickle.dumps(form)).evaluate(10) == 20


@pytest.mark.parametrize(
    "args, message",
    [
        (("t10",), "unknown theorem tag 't10'"),
        (("T11",), "unknown theorem tag 'T11'"),
        (("t13", "print"), "variant must be 'printed' or 'corrected', got 'print'"),
        (("t11", ""), "variant must be 'printed' or 'corrected', got ''"),
    ],
)
def test_theorem_id_refuses(args, message):
    with pytest.raises(ValueError) as info:
        TheoremId(*args)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        TheoremId(**dict(zip(("name", "variant"), args)))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        (("Lp", 1, 1, 4), "counter must be one of ('L', 'M', 'Lprime', 'Mprime'), got 'Lp'"),
        (("L", 0, 1, 4), "counters need r, s >= 1, got (0, 1)"),
        (("M", 1, -2, 4), "counters need r, s >= 1, got (1, -2)"),
        (("Mprime", 1, 1, 1), "counters need n >= 2, got 1"),
        (("X", 0, 0, 0), "counter must be one of ('L', 'M', 'Lprime', 'Mprime'), got 'X'"),
    ],
)
def test_count_spec_refuses(args, message):
    with pytest.raises(ValueError) as info:
        CountSpec(*args)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        CountSpec(**dict(zip(("which", "r", "s", "n"), args)))
    assert str(info.value) == message


def test_replace_builds_through_the_constructor():
    # _replace makes a new record through __new__, so it validates and
    # precomputes as a call of the class does
    assert CountSpec("L", 1, 1, 4)._replace(which="M") == CountSpec("M", 1, 1, 4)
    with pytest.raises(ValueError, match="counters need n >= 2, got 1"):
        CountSpec("L", 1, 1, 4)._replace(n=1)
    with pytest.raises(ValueError, match="unknown theorem tag 't12'"):
        TheoremId("t11")._replace(name="t12")
    k2 = ((Fraction(1, 3), 3, -1), (Fraction(1, 6), 1, 1))  # the table's form of S_2(n)
    assert ClosedForm(((Fraction(1, 2), 2, -1),))._replace(terms=k2).evaluate(10) == 1 + 9 + 49 + 81
    report = FitReport(1, 1, None, (), (), (), "inconsistent")._replace(label="numerical evidence")
    assert report.label == "numerical evidence" and type(report) is FitReport


def test_records_are_tuples():
    spec = CountSpec("L", 1, 3, 40)
    assert spec == ("L", 1, 3, 40) and spec[1:] == (1, 3, 40)
    which, r, s, n = spec
    assert (which, r, s, n) == tuple(spec) and len(spec) == 4
    assert TheoremId("t11") == ("t11", "corrected")
