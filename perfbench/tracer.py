"""Outside-in spans around budgex's functions, recorded from the benchmark.

Each traced function is wrapped at every place budgex looks it up, not only
where it is defined: callers use ``from .x import f``, so ``budgex.cli`` and
``budgex.metrics`` hold their own references to ``run_protocol``, and
``budgex.protocol`` holds its own ``score_pool``. Methods are wrapped on the
class that defines them, which covers every subclass that inherits them.
``Tracer.restore`` puts every original back.

A span's self time is its duration minus the durations of the traced calls
nested inside it, so the self times of one pass sum to at most its wall time.
Spans live in memory only; a forked worker's spans are lost, which is why the
benchmark traces only in-process passes.
"""

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


def _result_len(args, kwargs, result):
    return len(result)


def _arg_len(position, name):
    """Rows counted as the length of one argument, passed by position or name."""
    def rows(args, kwargs, result):
        return len(kwargs[name] if name in kwargs else args[position])
    return rows


def _domain_rows(args, kwargs, result):
    pool = kwargs["pool_phis"] if "pool_phis" in kwargs else args[0]
    current = kwargs["current_phis"] if "current_phis" in kwargs else args[1]
    return len(pool) + len(current)


def _replications(args, kwargs, result):
    return kwargs["replications"] if "replications" in kwargs else args[3]


@dataclass(frozen=True)
class Span:
    """One traced function.

    layer names the module in metric names (``budgex._rng`` reports as
    ``rng``, since metric names may not start with ``_``); qualname is
    ``func`` or ``Class.method`` in that module. rows counts the work a call
    was given and out what it returned; everywhere marks functions every
    workload calls, whose times go on the traced run's JSON line.
    """

    layer: str
    qualname: str
    rows: object = None
    out: object = None
    everywhere: bool = False
    alias: str = None

    @property
    def module(self):
        return "budgex." + ("_rng" if self.layer == "rng" else self.layer)

    @property
    def name(self):
        return f"{self.layer}.{self.alias or self.qualname}"


SPANS = (
    Span("core", "FeatureMap.apply_many", rows=_result_len, everywhere=True),
    Span("core", "read_jsonl", rows=_result_len),
    Span("core", "write_jsonl", rows=_arg_len(1, "records")),
    Span("envs", "env_from_json"),
    Span("envs", "sample_pool", rows=_result_len),
    Span("envs", "sample_obs", rows=_result_len),
    Span("envs", "_BernoulliEnv.draw_outcomes", rows=_result_len,
         everywhere=True, alias="draw_outcomes"),
    Span("rng", "unit_uniform", rows=_result_len, everywhere=True),
    Span("acquisition", "fit_propensity", rows=_arg_len(0, "obs_records")),
    Span("acquisition", "train_domain_classifier", rows=_domain_rows),
    Span("acquisition", "ensemble_variance", rows=_arg_len(2, "candidate_phis")),
    Span("acquisition", "composite_scores", rows=_arg_len(0, "unit_ids")),
    Span("acquisition", "select_top_m", rows=_arg_len(0, "breakdowns"),
         out=_result_len),
    Span("acquisition", "score_pool", rows=_result_len),
    Span("estimator", "fit_ridge_arrays", rows=_arg_len(0, "phis"), everywhere=True),
    Span("estimator", "sandwich_from_arrays", rows=_arg_len(0, "phis")),
    Span("protocol", "run_protocol", everywhere=True),
    Span("protocol", "run_round", everywhere=True),
    Span("protocol", "_ActiveContext.score_round", rows=_result_len),
    Span("protocol", "_assign_and_observe", rows=_arg_len(2, "ids"), everywhere=True),
    Span("protocol", "_dump_scores"),
    Span("metrics", "pehe"),
    Span("metrics", "pehe_exact_segments"),
    Span("metrics", "uplift_curve", rows=_arg_len(0, "scores")),
    Span("metrics", "bound_violation_audit", rows=_replications),
    Span("metrics", "clt_diagnostic", rows=_replications),
    Span("cli", "main"),
    Span("cli", "cmd_run"),
    Span("cli", "cmd_evaluate"),
    Span("cli", "cmd_sweep"),
    Span("cli", "_sweep_cell"),
)


class SpanStats:
    __slots__ = ("calls", "rows", "out", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.out = 0
        self.self_s = 0.0
        self.durations = []


class Tracer:
    """Wraps SPANS while installed; use as a context manager."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.stats = {s.name: SpanStats() for s in spans}
        self.missing = []
        self._patches = []
        self._nested = []  # per open span: summed duration of traced children

    def _wrap(self, span, fn):
        stats = self.stats[span.name]
        nested = self._nested

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = nested.pop()
                if nested:
                    nested[-1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - children
                stats.durations.append(elapsed)
            if span.rows is not None:
                stats.rows += span.rows(args, kwargs, result)
            if span.out is not None:
                stats.out += span.out(args, kwargs, result)
            return result

        return traced

    def install(self):
        for span in self.spans:
            try:
                owner = importlib.import_module(span.module)
            except ImportError:
                self.missing.append(span.name)
                continue
            cls_name, _, attr = span.qualname.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            original = vars(holder).get(attr) if holder is not None else None
            if not callable(original):
                self.missing.append(span.name)
                continue
            wrapper = self._wrap(span, original)
            if cls_name:
                sites = [(holder, attr)]
            else:
                sites = [(mod, key)
                         for mod_name, mod in list(sys.modules.items())
                         if mod_name == "budgex" or mod_name.startswith("budgex.")
                         for key, value in list(vars(mod).items())
                         if value is original]
            for obj, key in sites:
                setattr(obj, key, wrapper)
                self._patches.append((obj, key, original))
        return self

    def restore(self):
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False
