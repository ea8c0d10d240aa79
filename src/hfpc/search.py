"""Pruned exhaustive search over generator candidates, one profile per
translate class of codes, and reproduction of the results table.

The raw candidate space for (family, t) is the integer interval [0, 2^4t) in
the BitVector layout; the candidate stream is its ascending subset of
plausible generators (weight 2t plus the cheap order filters).  A search is
one pass in the calling process: one kernel call scans the whole space, in
mode "all" to its end and in mode "first" up to the first accepted
candidate.
Accepted candidates are re-assembled through the reference constructors in
hfpc.families before being reported, which cross-checks the scan kernels;
re-assembly and profiling work on int words, and the Hadamard verdict of
each re-assembled code is computed once, by the constructor, and reused by
the profile.  Every accepted code C is propelinear, so pi_x(C) = x + C for
each codeword x: the image of C under pi_g^m, g the searched generator, is
a translate of C by a codeword, with the rank and kernel of C, and the
search profiles one code per such class of translates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import itemgetter, xor
from typing import Iterable

from . import _backend
from ._scan_py import _quaternion_rank, _rank
from .families import (
    SEARCH_TAGS,
    Reject,
    assemble,
    assemble_quaternion_explicit,
    element_labels,
)
from .gf2 import BitVector
from .hadamard import CodeProfile, _with_generators, profile
from .propelinear import PropelinearCode

__all__ = [
    "DEEP_GATE",
    "SearchTask",
    "AcceptedCode",
    "SearchResult",
    "TableCell",
    "candidate_count",
    "run_search",
    "analytic_nonexistence",
    "reproduce_table",
]

_FAMILY_CODE = {"4tu2": 0, "2t22u": 1, "2t4u": 2}

# Cells with more candidates than this require the deep flag.  The gate sits
# just below the 300,546,630 candidates of the two-generator cells at t = 8, so
# every cell of word length 32 and up needs --deep.  With the joins such cells
# scan in seconds, not hours: a two-generator scan checks one top per necklace,
# so 2t4u t = 8 scans in 0.01-0.02 s and 4tu2 t = 10 in 0.12-0.17 s after a
# 0.1-0.2 s join table; what grows fast with t is the tqu scan: 2.2-2.3 s
# at t = 11 with its tables (two runs of tools/table_times.py --scan tqu 11)
# and 32-38 s at t = 13 (full range, one process, 2 vCPU).
DEEP_GATE = 1 << 28


@dataclass(frozen=True)
class SearchTask:
    family: str
    t: int
    mode: str = "all"  # or "first"


@dataclass(frozen=True)
class AcceptedCode:
    family: str
    t: int
    candidate: str  # the searched generator: a, or d for the quaternion family
    profile: CodeProfile
    vector_values: frozenset[int] = field(repr=False, hash=False, compare=False)


@dataclass
class SearchResult:
    family: str
    t: int
    accepted: list[AcceptedCode]
    counters: dict[str, int]
    distinct_code_sets: int
    wall_time: float  # informational only; excluded from canonical output


_TWO_GEN_COUNTERS = ("examined", "rejected_power", "rejected_hadamard")
_QUATERNION_COUNTERS = (
    "examined",
    "rejected_power",
    "rejected_no_b",
    "rejected_relation",
    "rejected_hadamard",
)


def candidate_count(tag: str, t: int) -> int:
    """Exact size of the filtered candidate stream: its rank at the end of the
    word range, as the scan kernels rank it for their examined counters."""
    if tag in _FAMILY_CODE:
        return _rank(1 << (4 * t), 2 * t, 1 if tag == "4tu2" else 0)
    if tag == "tqu":
        if t % 2 == 0:
            raise ValueError("quaternion family requires odd t")
        return _quaternion_rank(1 << (4 * t), t)
    raise ValueError("no candidate stream for family %r" % tag)


# The search does not call this.  The subrange tests of the scan kernels do,
# and the benchmark's tracer hooks this name for its search.chunks metric, so
# it stays until that hook goes.
def _partition(lo: int, hi: int, chunks: int) -> list[tuple[int, int]]:
    """Contiguous subranges by leading range fraction; exact cover of [lo, hi)."""
    span = hi - lo
    chunks = min(chunks, span)  # so that no subrange is empty
    return [
        (lo + m * span // chunks, lo + (m + 1) * span // chunks)
        for m in range(chunks)
    ]


def _scan(family: str, t: int, first_only: bool = False) -> tuple:
    """The scan kernel's (accepted items, counters) over the whole word range
    [0, 2^4t), in one call.  The kernel is looked up in _backend at call
    time, so that replacing it there replaces it here."""
    hi = 1 << (4 * t)
    if family == "tqu":
        return _backend.scan_quaternion(t, 0, hi, first_only)
    return _backend.scan_two_generator(_FAMILY_CODE[family], t, 0, hi, first_only)


def _verify(family: str, t: int, item) -> PropelinearCode:
    """The reference constructor's code for one accepted scan item: the word
    a, or the (d, a, b) triple of the quaternion family."""
    n = 4 * t
    if family == "tqu":
        code = assemble_quaternion_explicit(t, *(BitVector(n, x) for x in item))
    else:
        code = assemble(family, t, BitVector(n, item))
    if isinstance(code, Reject):
        raise RuntimeError(
            "scan kernel accepted %s %s %s but the reference constructor rejected "
            "it (%s); kernel and reference disagree" % (family, t, item, code.reason)
        )
    return code


def _power_positions(family: str, t: int) -> tuple[int, ...]:
    """Positions in element order of the words of g^0 .. g^P, for the searched
    generator g (d for tqu, a otherwise) and P = t or 2t, the order of pi_g;
    g^P is u for 4tu2 and e otherwise."""
    labels = element_labels(family, t)
    period = t if family == "tqu" else 2 * t
    end = (0, 0, 1) if family == "4tu2" else (0, 0, 0)
    return tuple(map(labels.index, [(k, 0, 0) for k in range(period)] + [end]))


def _translate_key(code: PropelinearCode, powers: itemgetter) -> tuple[int, ...]:
    """A key of the code set C + w, equal for all translates of C that the
    search meets, with w the word of a power of g; powers picks the words
    w_0 .. w_P of g^0 .. g^P from code.values.

    C is propelinear, so pi_x(C) = x + C for each codeword x, and
    pi_g^k(g) = w_k + w_{k+1}.  The pi_g^m-image of (C, g) is (w_m + C,
    pi_g^m(g)): its words w'_k are w_m + w_{m+k}, so its sequence
    pi_g^k(g) is that of C shifted by m (indices mod P: w_{k+P} is w_k, or
    w_k + u for 4tu2, and C + u = C).  When its least word occurs once, k*
    lands on the same power of g and both keys are C + w_{k*}; a tie can
    only split a class, which costs a profile, not a wrong one.  A key is
    only ever shared by translates C + x with x in C, and those have the
    span and the kernel of C, as 0 is in C.  The key is the sorted tuple of
    the words, which takes less memory than a frozenset of them.
    """
    ws = powers(code.values)
    steps = list(map(xor, ws, ws[1:]))  # pi_g^k(g), k < P
    w = ws[steps.index(min(steps))]
    return tuple(sorted(map(w.__xor__, code.values)))


def _accepted_codes(
    family: str, t: int, codes: Iterable[PropelinearCode]
) -> tuple[list[AcceptedCode], int]:
    """The report of each re-assembled code, in order, and the number of
    profiles computed: one per translate class (see _translate_key).  A code
    whose class was profiled before gets that profile with its own
    generator fields, the bytes profile(code) would give."""
    accepted: list[AcceptedCode] = []
    profile_cache: dict[tuple[int, ...], CodeProfile] = {}
    searched = "d" if family == "tqu" else "a"
    powers = itemgetter(*_power_positions(family, t))
    for code in codes:
        key = _translate_key(code, powers)
        prof = profile_cache.get(key)
        if prof is None:
            prof = profile_cache[key] = profile(code)
        else:
            prof = _with_generators(prof, code)
        cand = format(code.generator_word(searched), "0%db" % (4 * t))
        accepted.append(AcceptedCode(family, t, cand, prof, code.vector_values))
    return accepted, len(profile_cache)


def run_search(task: SearchTask, workers: int = 1) -> SearchResult:
    """Scan the candidate space; accepted candidates are re-assembled and profiled.

    Each accepted candidate is re-assembled and fully checked by the
    reference constructor; the profile, with its asserted bounds, is computed
    once per class of codes that are translates of each other by a codeword
    (pi_x(C) = x + C; see _translate_key) and shared within the class.

    Mode "all" counts the whole stream; mode "first" stops counting at the
    first accepted candidate in stream order.  workers has no effect: every
    search is one kernel call in this process.  The keyword stays because
    the benchmark's data recorder still passes workers=1.
    """
    if task.family not in SEARCH_TAGS:
        raise ValueError("unknown family %r" % task.family)
    if task.family == "tqu" and task.t % 2 == 0:
        raise ValueError("quaternion family requires odd t")
    t0 = time.perf_counter()
    counter_names = (
        _QUATERNION_COUNTERS if task.family == "tqu" else _TWO_GEN_COUNTERS
    )
    accepted_raw, ctr = _scan(task.family, task.t, task.mode == "first")
    counters = dict(zip(counter_names, ctr))

    codes = (_verify(task.family, task.t, item) for item in accepted_raw)
    accepted, _ = _accepted_codes(task.family, task.t, codes)
    counters["accepted"] = len(accepted)
    return SearchResult(
        family=task.family,
        t=task.t,
        accepted=accepted,
        counters=counters,
        distinct_code_sets=len({a.vector_values for a in accepted}),
        wall_time=time.perf_counter() - t0,
    )


def analytic_nonexistence(tag: str, t: int) -> bool:
    """Cells excluded by the parity / square-order arguments, no search needed."""
    if t == 1:
        return False
    if tag in ("4tu2", "2t4u"):
        return t % 2 == 1
    if tag == "2t22u":
        return not (t % 2 == 0 and math.isqrt(t) ** 2 == t)
    if tag == "tqu":
        return False  # odd-t only; even t is not-applicable, not nonexistence
    raise ValueError("unknown family %r" % tag)


@dataclass(frozen=True)
class TableCell:
    family: str
    t: int
    status: str  # searched | analytic | not-applicable | skipped-budget
    profiles: tuple[tuple[int, int], ...] = ()
    candidates: int = 0
    accepted: int = 0
    distinct: int = 0


def reproduce_table(t_max: int, deep: bool = False) -> list[list[TableCell]]:
    """One row per t, one cell per family, mirroring the results table."""
    rows = []
    for t in range(1, t_max + 1):
        row = []
        for tag in SEARCH_TAGS:
            if tag == "tqu" and t % 2 == 0:
                row.append(TableCell(tag, t, "not-applicable"))
                continue
            if analytic_nonexistence(tag, t):
                row.append(TableCell(tag, t, "analytic"))
                continue
            count = candidate_count(tag, t)
            if count > DEEP_GATE and not deep:
                row.append(TableCell(tag, t, "skipped-budget", candidates=count))
                continue
            result = run_search(SearchTask(tag, t, mode="all"))
            profs = tuple(sorted({a.profile.rk for a in result.accepted}))
            row.append(
                TableCell(
                    tag,
                    t,
                    "searched",
                    profiles=profs,
                    candidates=count,
                    accepted=len(result.accepted),
                    distinct=result.distinct_code_sets,
                )
            )
        rows.append(row)
    return rows
