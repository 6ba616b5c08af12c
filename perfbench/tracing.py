"""Spans around ullgm's layer boundaries, recorded from outside the package.

``traced(tracer)`` swaps the module-level names that ``ullgm.chain`` and
``ullgm.predictive`` look up at call time, the methods of
``SuffStatsCache`` and ``linear_gaussian.cholesky_with_tol`` for wrappers
that record one span per call, and puts the originals back on exit. The
sampler's arithmetic and random stream are untouched, so traced draws must
be byte-identical to untraced ones for the same seed.

The benchmark runs in one process on one thread, so a span never waits on
another layer: a span's duration is work done by it and its children.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# (span name, owner path, attribute). Owners are modules of ullgm or the
# SuffStatsCache class; span names are "<layer module>.<function>".
TARGETS = (
    ("chain.run_chain", "chain", "run_chain"),
    ("chain.summarize", "chain", "summarize"),
    ("chain.init_chain", "chain", "init_chain"),
    ("core.validate_dataset", "chain", "validate_dataset"),
    ("core.center_design", "chain", "center_design"),
    ("model_space.model_mh_step", "chain", "model_mh_step"),
    ("g_sampler.mh_update_g", "chain", "mh_update_g"),
    ("linear_gaussian.sample_sigma2", "chain", "sample_sigma2"),
    ("linear_gaussian.sample_alpha", "chain", "sample_alpha"),
    ("latent.update_all_latents", "chain", "update_all_latents"),
    ("linear_gaussian.cache_init", "SuffStatsCache", "__init__"),
    ("linear_gaussian.set_z", "SuffStatsCache", "set_z"),
    ("linear_gaussian.chol", "SuffStatsCache", "chol"),
    ("linear_gaussian.has_full_rank", "SuffStatsCache", "has_full_rank"),
    ("linear_gaussian.r2_and_w", "SuffStatsCache", "_r2_and_w"),
    ("linear_gaussian.r2", "SuffStatsCache", "r2"),
    ("linear_gaussian.log_marginal", "SuffStatsCache", "log_marginal"),
    ("linear_gaussian.sample_beta", "SuffStatsCache", "sample_beta"),
    ("linear_gaussian.light_stats", "SuffStatsCache", "light_stats"),
    ("linear_gaussian.cholesky_with_tol", "linear_gaussian", "cholesky_with_tol"),
    ("predictive.log_predictive_draws", "predictive", "log_predictive_draws"),
    ("likelihoods.log_pmf", "predictive", "log_pmf"),
)


def _owners():
    from ullgm import chain, linear_gaussian, predictive

    return {
        "chain": chain,
        "linear_gaussian": linear_gaussian,
        "predictive": predictive,
        "SuffStatsCache": linear_gaussian.SuffStatsCache,
    }


class Tracer:
    """In-memory spans plus the counters read off wrapped return values.

    A span is [name, start_ns, end_ns, parent], parent being the index of
    the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.models: set[bytes] = set()

    def reset(self) -> None:
        """Drop recorded spans and counts; installed observers keep working."""
        self.spans = []
        self.counts.clear()
        self.models.clear()

    def wrap(self, name: str, fn, observe=None):
        """fn with a span around each call; observe(result) runs after it."""
        clock = time.perf_counter_ns

        def traced_call(*args, **kwargs):
            spans, open_ = self.spans, self._open
            span = [name, 0, 0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if observe is not None:
                observe(result)
            return result

        traced_call.__wrapped__ = fn
        return traced_call

    def _observers(self):
        counts = self.counts

        def model_move(result):
            M, accepted = result
            counts["model_space.accepted"] += bool(accepted)
            self.models.add(M.key)

        def g_move(result):
            counts["g_sampler.accepted"] += bool(result[1])

        def latent_sweep(result):
            accepted = result[1]
            counts["latent.accepted"] += int(accepted.sum())
            counts["latent.coords"] += accepted.shape[0]

        return {
            "model_space.model_mh_step": model_move,
            "g_sampler.mh_update_g": g_move,
            "latent.update_all_latents": latent_sweep,
        }


@contextmanager
def traced(tracer: Tracer):
    """Install tracer's wrappers on every TARGETS entry; restore on exit."""
    owners = _owners()
    observers = tracer._observers()
    saved = []
    try:
        for name, owner_key, attr in TARGETS:
            owner = owners[owner_key]
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observers.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def totals(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: call count, inclusive ns and self ns."""
    calls, inclusive, own = Counter(), Counter(), Counter()
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        calls[name] += 1
        inclusive[name] += end - start
        own[name] += self_ns
    return calls, inclusive, own
