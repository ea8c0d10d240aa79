"""Spans around the calls into each layer of ``hfpc``, recorded from outside.

``Tracer.install`` replaces a layer's function, in every module that looks
it up, with a wrapper that records a span (name, start, end, parent span,
request id) and, for some layers, a small value read from the result, such
as the counter tuple a scan returns.  A hook whose function no longer exists
is reported as absent instead of failing the run.  Spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _scan_info(args, result):
    accepted, counters = result
    return [len(accepted), *counters]


def _search_info(args, result):
    return [len(result.accepted), result.distinct_code_sets]


def _rejected(args, result):
    return int(type(result).__name__ == "Reject")


# span name -> (places where callers look the function up, info extractor);
# the first place is where the function is defined.
HOOKS = {
    # stdout is a fresh buffer per command, so its position is what main wrote
    "cli.main": ([("hfpc.cli", "main")], lambda a, r: sys.stdout.tell()),
    "search.run_search": ([("hfpc.search", "run_search"), ("hfpc.cli", "run_search")],
                          _search_info),
    "search.partition": ([("hfpc.search", "_partition")], lambda a, r: len(r)),
    "scan.two_gen": ([("hfpc._backend", "scan_two_generator")], _scan_info),
    "scan.quaternion": ([("hfpc._backend", "scan_quaternion")], _scan_info),
    "families.assemble": ([("hfpc.families", "assemble"), ("hfpc.search", "assemble"),
                           ("hfpc.cli", "assemble")], _rejected),
    "families.assemble_quaternion_explicit": (
        [("hfpc.families", "assemble_quaternion_explicit"),
         ("hfpc.search", "assemble_quaternion_explicit")], _rejected),
    "hadamard.profile": ([("hfpc.hadamard", "profile"), ("hfpc.search", "profile"),
                          ("hfpc.cli", "profile")], None),
    "cchm.code_to_cchm": ([("hfpc.cchm", "code_to_cchm"), ("hfpc.cli", "code_to_cchm")], None),
    "cchm.cchm_to_code": ([("hfpc.cchm", "cchm_to_code"), ("hfpc.cli", "cchm_to_code")], None),
    "cchm.is_cchm": ([("hfpc.cchm", "is_cchm"), ("hfpc.cli", "is_cchm")], None),
    "cchm.cchm_equivalent": ([("hfpc.cchm", "cchm_equivalent")], None),
}


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or None, request id, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = 0
        self.absent: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.request, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span[5] = info(args, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self, hooks: dict = HOOKS) -> None:
        for name, (places, info) in hooks.items():
            fn = _lookup(*places[0])
            if fn is None:
                self.absent.add(name)
                continue
            wrapper = self.span(name, fn, info)
            for module, attr in places:
                mod = sys.modules.get(module)
                if mod is not None and getattr(mod, attr, None) is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span are disjoint.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def _busy(spans: list[list], name: str) -> float:
    """Time inside outermost spans of one name."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total += span[2] - span[1]
    return total


_IRREGULAR = {
    "search.self_s": "search.run_search",
    "search.profile_cache_hits": "search.run_search",
    "search.chunks": "search.partition",
    "cli.self_s": "cli.main",
    "cli.stdout_bytes": "cli.main",
}


def _hooks_of(metric: str) -> tuple[str, ...]:
    if metric.startswith("scan."):
        return ("scan.two_gen", "scan.quaternion")
    return (_IRREGULAR.get(metric) or metric.rsplit(".", 1)[0],)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of everything traced so far; absent layers map to
    the string "absent"."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def infos(name):
        return [spans[i][5] for i in by_name.get(name, ())]

    def self_sum(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    out: dict[str, object] = {}
    # scan info: number accepted, then the counter tuple the kernel returns
    two_gen, quat = infos("scan.two_gen"), infos("scan.quaternion")
    accepted = sum(i[0] for i in two_gen + quat)
    examined = sum(i[1] for i in two_gen + quat)
    rej_power = sum(i[2] for i in two_gen + quat)
    two_gen_busy, quat_busy = _busy(spans, "scan.two_gen"), _busy(spans, "scan.quaternion")
    scan_busy = two_gen_busy + quat_busy
    out.update({
        "scan.two_gen.busy_s": two_gen_busy,
        "scan.quaternion.busy_s": quat_busy,
        "scan.calls": len(two_gen) + len(quat),
        "scan.examined": examined,
        "scan.rejected_power": rej_power,
        "scan.rejected_hadamard": sum(i[3] for i in two_gen) + sum(i[5] for i in quat),
        "scan.rejected_no_b": sum(i[3] for i in quat),
        "scan.rejected_relation": sum(i[4] for i in quat),
        "scan.power_survivor_frac": (examined - rej_power) / examined if examined else 0.0,
        "scan.accept_frac": accepted / examined if examined else 0.0,
        "scan.cand_per_s": examined / scan_busy if scan_busy else 0.0,
    })
    searches = infos("search.run_search")
    out.update({
        "search.self_s": self_sum("search.run_search"),
        "search.chunks": sum(infos("search.partition")),
        "search.profile_cache_hits": sum(a - d for a, d in searches),
    })
    assembles = infos("families.assemble") + infos("families.assemble_quaternion_explicit")
    out.update({
        "families.assemble.calls": len(assembles),
        "families.assemble.busy_s": _busy(spans, "families.assemble")
        + _busy(spans, "families.assemble_quaternion_explicit"),
        "families.assemble.reject_frac": sum(assembles) / len(assembles) if assembles else 0.0,
        "hadamard.profile.calls": calls("hadamard.profile"),
        "hadamard.profile.busy_s": _busy(spans, "hadamard.profile"),
    })
    for fn in ("code_to_cchm", "cchm_to_code", "is_cchm", "cchm_equivalent"):
        name = "cchm." + fn
        out[name + ".calls"] = calls(name)
        out[name + ".busy_s"] = _busy(spans, name)
    out.update({
        "cli.self_s": self_sum("cli.main"),
        "cli.stdout_bytes": sum(infos("cli.main")),
    })
    for key in out:
        if any(hook in tracer.absent for hook in _hooks_of(key)):
            out[key] = "absent"
    return out


def check_spans(spans: list[list]) -> list[str]:
    """Problems that would make the per-layer numbers meaningless."""
    problems = []
    if any(s < -1e-9 for s in self_times(spans)):
        problems.append("negative self time")
    if any(span[2] is None or span[2] < span[1] for span in spans):
        problems.append("unfinished span")
    return problems
