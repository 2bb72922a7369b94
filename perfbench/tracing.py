"""Spans around ``likeiper``'s public functions, recorded from outside it.

``Tracer.install`` replaces each target function, in every ``likeiper``
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent) or only counts calls.  ``Tracer.restore`` puts
the originals back.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute, span name, mode).  "span" records a span; "keep"
#: also keeps the call's arguments and result; "count" only counts calls.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("likeiper.series", "series_compose_zmap", "series.compose_zmap", "span"),
    ("likeiper.series", "series_mul", "series.mul", "span"),
    ("likeiper.series", "series_log", "series.log", "span"),
    ("likeiper.bigreal", "BigReal.__init__", "bigreal.objects", "count"),
    ("likeiper.bigreal", "BigReal.to_decimal_string", "bigreal.to_decimal_string", "span"),
    ("likeiper.constants", "load_stieltjes", "constants.load_stieltjes", "span"),
    ("likeiper.constants", "polygamma_half", "constants.polygamma_half", "span"),
    ("likeiper.constants", "zeta_int", "constants.zeta_int", "span"),
    ("likeiper.constants", "euler_gamma", "constants.euler_gamma", "span"),
    ("likeiper.datafiles", "parse_indexed_table", "datafiles.parse", "span"),
    ("likeiper.lambda_core", "tiny_series", "lambda_core.tiny_series", "span"),
    ("likeiper.lambda_core", "trend_series", "lambda_core.trend_series", "span"),
    ("likeiper.lambda_core", "lambda_table", "lambda_core.lambda_table", "keep"),
    ("likeiper.lambda_core", "lambda1_closed_form", "lambda_core.lambda1_closed_form", "span"),
    ("likeiper.lambda_core", "conjecture_scan", "lambda_core.conjecture_scan", "span"),
    ("likeiper.recurrences", "prediction_run", "recurrences.prediction_run", "span"),
    ("likeiper.recurrences", "self_seeded_run", "recurrences.self_seeded_run", "span"),
    ("likeiper.recurrences", "phi_nlogn", "recurrences.phi_nlogn", "span"),
    ("likeiper.zeros", "load_zeros", "zeros.load_zeros", "span"),
    ("likeiper.zeros", "z_partial", "zeros.z_partial", "span"),
    ("likeiper.zeros", "z_tail_bound", "zeros.z_tail_bound", "span"),
    ("likeiper.zeros", "delta_bound", "zeros.delta_bound", "span"),
    ("likeiper.zeros", "inversion_check", "zeros.inversion_check", "span"),
    ("likeiper.goldens", "verify_table", "goldens.verify_table", "keep"),
    ("likeiper.probe", "f_eval", "probe.f_eval", "span"),
    ("likeiper.probe", "zeta_complex", "probe.zeta_complex", "span"),
    ("likeiper.probe", "zeta_deriv", "probe.zeta_deriv", "span"),
    ("likeiper.probe", "line_probe", "probe.line_probe", "keep"),
    ("likeiper.cli", "main", "cli.main", "span"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name, self.start, self.end = name, start, start
        self.parent, self.child_time = parent, 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.kept: Dict[str, list] = defaultdict(list)
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, keep: bool) -> Callable:
        clock, stack, spans = time.perf_counter, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, clock(), parent)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if parent is not None:
                    parent.child_time += span.duration
            if keep:
                self.kept[name].append((args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, attr, name, mode in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:  # a method: patch the class once
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, mode, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, mode, original)
            for holder in [m for key, m in sys.modules.items()
                           if key == "likeiper" or key.startswith("likeiper.")]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, wrapped)
        return self

    def _wrap(self, name: str, mode: str, fn: Callable) -> Callable:
        if mode == "count":
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn, keep=mode == "keep")

    def _patch(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- queries ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.counts[name] + sum(1 for s in self.spans if s.name == name)

    def total_time(self, name: str) -> float:
        """Time inside spans of ``name``, not counting a span nested in
        another span of the same name twice."""
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and parent.name != name:
                parent = parent.parent
            if parent is None:
                total += span.duration
        return total

    def self_time(self, name: str) -> float:
        return sum(s.self_time for s in self.spans if s.name == name)
