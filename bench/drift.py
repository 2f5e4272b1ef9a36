"""Machine-speed drift correction.

On a shared machine the speed of a fixed pure-Python loop can drift by half
within a minute, and process CPU time drifts with it.  Every timing in the
benchmark is therefore corrected by a stdlib-only reference computation run
between slices of at most about SLICE_S seconds of work:

    corrected = raw * NOMINAL_REF_S / median(reference passes around the slice)

The reference never calls sigmaprime, so no change to the package can move
it.  It mixes the operations the package spends its time in (small-int
gcd, big-int pow, dict inserts, Fraction adds) so that it slows down and
speeds up the way the package does.  Corrected seconds are seconds on a
machine where one reference pass takes NOMINAL_REF_S.

A command run in a freshly forked child spends about a third of its time in
the kernel, copying the pages it writes to, and that share drifts apart
from pure computation.  Such a command is corrected by faulting_reference()
run in the same child right after it, with NOMINAL_FORKED_REF_S.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from math import gcd

NOMINAL_REF_S = 0.003
NOMINAL_FORKED_REF_S = 0.005
SLICE_S = 0.04
PAGE = 4096
COW_PAGES = 200

_MERSENNE_127 = (1 << 127) - 1
_REF_EXPECTED = None
# written here, so that a forked child copies every page it writes to
_COW_BUFFER = bytearray(b"\x01" * (COW_PAGES * PAGE))


def _reference_pass() -> tuple[int, int, int]:
    acc = 0
    table: dict[int, int] = {}
    frac = Fraction(0)
    for i in range(1, 2400):
        acc += gcd(i * 7919, 3 * i + 1)
        table[(i * 2654435761) & 0xFFFF] = i
        if i % 4 == 0:
            frac += Fraction(1, i)
        if i % 32 == 0:
            acc ^= pow(3, i * 97 + 5, _MERSENNE_127)
    return acc, len(table), frac.denominator % 1_000_003


def reference() -> float:
    """Run one reference pass; return its wall time in seconds.

    The pass's result is compared with the first pass of the process, so a
    broken interpreter shows up as an error rather than as a fast reference.
    """
    global _REF_EXPECTED
    t0 = time.perf_counter()
    value = _reference_pass()
    elapsed = time.perf_counter() - t0
    if _REF_EXPECTED is None:
        _REF_EXPECTED = value
    elif value != _REF_EXPECTED:
        raise RuntimeError("reference computation changed its result")
    return elapsed


def faulting_reference() -> float:
    """reference() after a first write to each of COW_PAGES inherited pages.

    Meant to run in a freshly forked child, where each write is a
    copy-on-write fault.
    """
    t0 = time.perf_counter()
    buf = _COW_BUFFER
    for offset in range(0, len(buf), PAGE):
        buf[offset] = 2
    return time.perf_counter() - t0 + reference()


class DriftClock:
    """Times calls, runs the reference between slices, and corrects each call.

    time(fn) runs fn and returns its result; the reference runs whenever the
    open slice has reached SLICE_S of raw time.  With reference=None the
    caller passes each call's own reference pass to add() instead.
    finish() corrects every call by the median of the reference passes
    within two slices of it: drift moves over seconds, so the window still
    follows it while one disturbed pass no longer sets a slice's scale.
    Afterwards raw[i] and corrected[i] hold the i-th call's times.
    """

    def __init__(self, reference=reference, nominal: float = NOMINAL_REF_S) -> None:
        self._reference = reference
        self._nominal = nominal
        self.refs: list[float] = [] if reference is None else [reference()]
        self.raw: list[float] = []
        self.corrected: list[float] = []
        self._slices: list[tuple[list[float], int]] = []  # calls, index of the pass after them
        self._open: list[float] = []

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        self.add(time.perf_counter() - t0)
        return result

    def add(self, raw_s: float, ref_s: float | None = None) -> None:
        """Record a call timed elsewhere, with the reference pass run right after it."""
        self._open.append(raw_s)
        if ref_s is not None:
            self._close(ref_s)
        elif sum(self._open) >= SLICE_S:
            self._close(self._reference())

    def _close(self, ref_s: float) -> None:
        self.refs.append(ref_s)
        self._slices.append((self._open, len(self.refs) - 1))
        self._open = []

    def finish(self) -> "DriftClock":
        if self._open:
            self._close(self._reference())
        for calls, after in self._slices:
            window = self.refs[max(0, after - 2) : after + 2]
            scale = self._nominal / statistics.median(window)
            self.raw.extend(calls)
            self.corrected.extend(t * scale for t in calls)
        self._slices = []
        return self

    def summary(self) -> dict:
        """Raw and corrected totals plus the measured reference speed."""
        return {
            "raw_s": sum(self.raw),
            "corrected_s": sum(self.corrected),
            "ref_ms_median": statistics.median(self.refs) * 1e3,
            "ref_ms_min": min(self.refs) * 1e3,
            "ref_ms_max": max(self.refs) * 1e3,
            "ref_passes": len(self.refs),
        }
