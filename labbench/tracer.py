"""Outside-in tracer for the bayesrates library.

The library has no timing of its own, so this module wraps its public entry
points at run time, from outside: module functions, the regime classes'
methods, and every name a module bound with ``from ... import``, so that a
call through ``cli.certify_subset`` is timed exactly like a call through
``experiments.certify_subset``.  Nothing under ``src/`` is edited and
``uninstall`` puts every original function back.

Spans record name, start, end and parent index.  They are kept in memory and
written once, by the caller, when the invocation ends.  A pool worker forked
from the traced process inherits the wrappers; it starts a span list of its
own on its first traced call and writes it to ``worker_dir`` when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import multiprocessing.util
import os
import pickle
import sys
import time

# span name per module-level function; a name shared by several functions
# sums their time into one layer metric
FUNCTIONS = {
    "cli": {
        "parse_config": "cli.parse_config",
        "build_regime": "cli.build_regime",
        "write_csv": "cli.write_csv",
        "_update_summary": "cli.update_summary",
    },
    "experiments": {
        "certify_subset": "experiments.certify_subset",
        "run_replications": "experiments.run_replications",
        "replicate": "experiments.replicate",
        "cumulative_log_ratio": "experiments.cumulative_log_ratio",
        "thickness_records": "experiments.thickness_records",
    },
    "numerics": {
        "logsumexp": "numerics.logsumexp",
        "softmax": "numerics.softmax",
    },
    "divergences": {
        "markov_divergences": "divergences.markov_divergences",
        **{
            name: "divergences.quadrature"
            for name in (
                "kl", "v_divergence", "hellinger", "h_affinity_gap",
                "kl_contrast", "v_star", "weighted_hellinger",
                "weighted_hellinger_between", "h_star", "kleijn_certificate",
                "mixture_density",
            )
        },
    },
    "geometry": {
        "mixture_closure_report": "geometry.mixture_closure_report",
        "thickness_profile": "geometry.thickness_profile",
        "greedy_cover": "geometry.greedy_cover",
        "build_sieve_from_cover": "geometry.build_sieve_from_cover",
    },
    "inference": {
        "factorization_check": "inference.factorization_check",
        "conditional_sqrt_ratio_identity": "inference.conditional_identity",
        "update": "inference.update",
    },
}

# span name per method of every ``*Regime`` class in ``experiments``
REGIME_METHODS = {
    "closure_violation": "experiments.closure_violation",
    "mixture_truth_gap": "experiments.mixture_truth_gap",
    "hull_gap_bound": "experiments.hull_gap_bound",
    "stationary_hull_gap_bound": "experiments.hull_gap_bound",
    "cesaro_kls": "experiments.cesaro_kls",
    "sample": "experiments.sample",
    "loglik_matrix": "experiments.loglik_matrix",
    "ref_loglik": "experiments.loglik_matrix",
    "truth_dist": "experiments.truth_dist",
    "pair_dist": "experiments.pair_dist",
}

PACKAGE = "bayesrates"


class Tracer:
    """Records spans around wrapped calls; one instance per invocation."""

    def __init__(self, worker_dir: str) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counters = {"csv_bytes": 0, "pickled_bytes": 0, "replications": 0}
        self.worker_dir = worker_dir
        self._pid = os.getpid()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter_worker(self) -> None:
        # first traced call in a forked pool worker: drop the parent's copy
        # and write this worker's spans when multiprocessing finalizes it
        self._pid = os.getpid()
        self.spans, self._stack = [], []
        multiprocessing.util.Finalize(None, self._write_worker, exitpriority=0)

    def _write_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{self._pid}.json")
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def _open(self, name: str) -> list:
        if os.getpid() != self._pid:
            self._enter_worker()
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the caller opens by hand, around code no wrapper covers."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if after is not None:
                    after(args, kwargs)

        return wrapper

    def _after_write_csv(self, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        try:
            self.counters["csv_bytes"] += os.path.getsize(path)
        except OSError:
            pass

    def _before_run_replications(self, args, kwargs) -> None:
        plan = args[0] if args else kwargs["plan"]
        jobs = args[1] if len(args) > 1 else kwargs.get("jobs", 1)
        self.counters["replications"] += plan.replications
        if jobs > 1:
            # computed, not measured: the pool ships the plan as it is at the
            # call once per chunk, with the chunk size run_replications chooses
            chunk = max(1, plan.replications // (8 * jobs))
            chunks = math.ceil(plan.replications / chunk)
            self.counters["pickled_bytes"] += len(pickle.dumps(plan)) * chunks

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target in every ``bayesrates`` namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        before = {"experiments.run_replications": self._before_run_replications}
        after = {"cli.write_csv": self._after_write_csv}
        for short, table in FUNCTIONS.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            if home is None:
                continue
            for attr, name in table.items():
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, before.get(name), after.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        experiments = sys.modules.get(f"{PACKAGE}.experiments")
        for cls_name, cls in list(vars(experiments).items() if experiments else ()):
            if not (isinstance(cls, type) and cls_name.endswith("Regime")):
                continue
            for attr, name in REGIME_METHODS.items():
                original = cls.__dict__.get(attr)
                if callable(original):
                    self._patch(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# the span invoke.py opens around each ``cli.main`` call; its self time is the
# part of a subcommand that no wrapped layer covers
ENVELOPES = ("cli.check", "cli.simulate", "cli.sieve")

# per-layer metric -> (kind, span name); kinds: self time, inclusive total,
# call count, or a counter kept by the tracer
LAYER_METRICS = {
    "cli.import_s": ("self", "cli.import"),
    "cli.parse_config_s": ("self", "cli.parse_config"),
    "cli.build_regime_s": ("self", "cli.build_regime"),
    "cli.check_s": ("total", "cli.check"),
    "cli.simulate_s": ("total", "cli.simulate"),
    "cli.sieve_s": ("total", "cli.sieve"),
    "cli.write_csv_s": ("self", "cli.write_csv"),
    "cli.csv_bytes": ("counter", "csv_bytes"),
    "cli.update_summary_s": ("self", "cli.update_summary"),
    "experiments.certify_subset_total_s": ("total", "experiments.certify_subset"),
    "experiments.closure_violation_s": ("self", "experiments.closure_violation"),
    "experiments.closure_violation_calls": ("calls", "experiments.closure_violation"),
    "experiments.mixture_truth_gap_s": ("self", "experiments.mixture_truth_gap"),
    "experiments.mixture_truth_gap_calls": ("calls", "experiments.mixture_truth_gap"),
    "experiments.hull_gap_bound_s": ("self", "experiments.hull_gap_bound"),
    "experiments.cesaro_kls_s": ("self", "experiments.cesaro_kls"),
    "experiments.cesaro_kls_calls": ("calls", "experiments.cesaro_kls"),
    "experiments.sample_s": ("self", "experiments.sample"),
    "experiments.loglik_matrix_s": ("self", "experiments.loglik_matrix"),
    "experiments.cumulative_log_ratio_s": ("self", "experiments.cumulative_log_ratio"),
    "experiments.replicate_s": ("self", "experiments.replicate"),
    "experiments.replicate_p50_ms": ("p50_ms", "experiments.replicate"),
    "experiments.replicate_p95_ms": ("p95_ms", "experiments.replicate"),
    "experiments.replications": ("counter", "replications"),
    "experiments.run_replications_total_s": ("total", "experiments.run_replications"),
    "experiments.pickled_bytes": ("counter", "pickled_bytes"),
    "experiments.thickness_records_s": ("self", "experiments.thickness_records"),
    "experiments.truth_dist_s": ("self", "experiments.truth_dist"),
    "experiments.pair_dist_s": ("self", "experiments.pair_dist"),
    "numerics.logsumexp_s": ("self", "numerics.logsumexp"),
    "numerics.softmax_s": ("self", "numerics.softmax"),
    "divergences.markov_divergences_s": ("self", "divergences.markov_divergences"),
    "divergences.markov_divergences_calls": ("calls", "divergences.markov_divergences"),
    "divergences.quadrature_s": ("self", "divergences.quadrature"),
    "divergences.quadrature_calls": ("calls", "divergences.quadrature"),
    "geometry.mixture_closure_report_s": ("self", "geometry.mixture_closure_report"),
    "geometry.thickness_profile_s": ("self", "geometry.thickness_profile"),
    "geometry.greedy_cover_s": ("self", "geometry.greedy_cover"),
    "geometry.build_sieve_from_cover_s": ("self", "geometry.build_sieve_from_cover"),
    "inference.factorization_check_s": ("self", "inference.factorization_check"),
    "inference.conditional_identity_s": ("self", "inference.conditional_identity"),
    "inference.update_calls": ("calls", "inference.update"),
}


def layer_metrics(invocations: list[dict]) -> tuple[dict[str, float], float]:
    """Per-layer values summed over traced invocations, and the layers' main-process self time.

    Each item carries the ``spans`` and ``counters`` one invocation wrote and
    the ``worker_spans`` of its pool workers.  Worker spans count toward the
    layers, so on a pool workload a layer's self time sums over processes.
    The returned self time covers the main processes' layer spans only: the
    self time of the subcommand envelopes, which no layer claims, is
    ``cli.unattributed_s`` instead.
    """
    selfs: dict[str, float] = {}
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    layer_self = 0.0
    unattributed = 0.0
    for inv in invocations:
        for (name, *_), own in zip(inv["spans"], self_times(inv["spans"])):
            if name in ENVELOPES:
                unattributed += own
            else:
                layer_self += own
        for spans in [inv["spans"], *inv["worker_spans"]]:
            own = self_times(spans)
            for i, (name, start, end, parent) in enumerate(spans):
                selfs[name] = selfs.get(name, 0.0) + own[i]
                calls[name] = calls.get(name, 0) + 1
                durations.setdefault(name, []).append(end - start)
                # a name nested inside itself counts once toward its inclusive total
                ancestor, nested = parent, False
                while ancestor >= 0:
                    if spans[ancestor][0] == name:
                        nested = True
                        break
                    ancestor = spans[ancestor][3]
                if not nested:
                    totals[name] = totals.get(name, 0.0) + (end - start)
        for key, value in inv["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out: dict[str, float] = {}
    for metric, (kind, name) in LAYER_METRICS.items():
        if kind == "self":
            out[metric] = selfs.get(name, 0.0)
        elif kind == "total":
            out[metric] = totals.get(name, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(name, 0)
        elif kind == "counter":
            out[metric] = counters.get(name, 0)
        elif kind == "p50_ms":
            out[metric] = 1e3 * _percentile(durations.get(name, []), 0.50)
        else:
            out[metric] = 1e3 * _percentile(durations.get(name, []), 0.95)
    out["cli.unattributed_s"] = unattributed
    return out, layer_self
