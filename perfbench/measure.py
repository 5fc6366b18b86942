"""Serving a workload's traces, checking the outcomes, and turning them
into the end-to-end and per-layer metrics."""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

from calibrate import REFERENCE_S, Meter, clock, reference_loop
from tracing import Instrumentation, SpanRecorder
from workloads import Workload

# name -> (unit, better).  Order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "host_wall_s": ("s", "lower"),
    "host_wall_ratio_2x": ("ratio", "lower"),
    "sim_tpot_p50_ms": ("ms", "lower"),
    "sim_tpot_p90_ms": ("ms", "lower"),
    "sim_slo_attainment": ("share", "higher"),
    "sim_tokens_per_s": ("tokens/s", "higher"),
    "sim_finished_share": ("share", "higher"),
}
# Printed with every run but not gated: across seeds or runs they spread
# wider than any usable regression bound (see README.md).
REPORTED = {
    "sim_ttft_p50_s": "s",
    "sim_ttft_p90_s": "s",
    # host_wall_s before calibration (see calibrate.py): what this
    # machine measured, at whatever speed it ran.
    "host_measured_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_request": "count",
    "sim.run.self_s": "s",
    "core.schedule.calls": "count",
    "core.schedule.calls_per_request": "count",
    "core.schedule.host_s": "s",
    "core.schedule.us_per_call": "us",
    "core.schedule.pending_mean": "count",
    "core.schedule.empty_share": "share",
    "core.dispatch.host_s": "s",
    "core.allocate.host_s": "s",
    "core.batching_dp.host_s": "s",
    "core.scale_plan.host_s": "s",
    "costmodel.calls": "count",
    "costmodel.host_s": "s",
    "costmodel.repeat_share": "share",
    "sessions.prefix.match.calls": "count",
    "sessions.prefix.match.host_s": "s",
    "sessions.prefix.match.us_per_call": "us",
    "sessions.prefix.match.repeat_share": "share",
    "sessions.prefix.match.ns_per_prompt_token": "ns",
    "sessions.prefix.write.host_s": "s",
    "sessions.prefix.hit_rate": "share",
    "kvcache.tiers.host_s": "s",
    "kvcache.tiers.offloaded_tokens": "tokens",
    "kvcache.tiers.swapped_in_tokens": "tokens",
    "fleet.route.calls": "count",
    "fleet.route.host_s": "s",
    "fleet.control.ticks": "count",
    "fleet.control.host_s": "s",
    "fleet.disagg.dispatch.host_s": "s",
    "fleet.disagg.handoffs": "count",
    "fleet.steal.moves": "count",
    "workloads.generate_s": "s",
    "experiments.build_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    """What one serve of one trace produced, reduced to what the metrics
    and the checks need."""

    submitted: int
    finished: int
    aborted: list[int]
    stranded: list[int]
    attained: int
    makespan: float
    tokens_per_s: float
    ttft_s: list[float]
    tpot_ms: list[float]
    cache_stats: dict
    # Every request's simulated timeline: two serves of the same trace
    # must produce the identical signature.
    signature: tuple
    problems: list[str] = field(default_factory=list)


@dataclass
class Served:
    """One serve of one trace."""

    host_s: float  # calibrated host seconds (see calibrate.py)
    measured_s: float  # process CPU seconds as measured
    outcome: Outcome


def serve(meter: Meter, system, trace, ideal, span=None) -> Served:
    """Serve a copy of ``trace`` to idle, inside ``span`` when given, and
    check what it produced.

    The collector starts each serve from the same state: the previous
    serve's garbage is collected and everything alive before the serve
    (the run's other traces, imported modules) is frozen out of the
    collector's scans.  Without this one serve of the same trace varied by
    about 20% in host time, depending on what the collector found."""
    from repro.workloads.trace_gen import clone_requests

    requests = clone_requests(trace)  # serving mutates Request objects
    gc.collect()
    gc.freeze()
    try:
        with span or contextlib.nullcontext():
            host, measured, result = meter.time(lambda: system.run(requests))
    finally:
        gc.unfreeze()
    return Served(host, measured, outcome(requests, result, ideal))


def outcome(requests, result, ideal) -> Outcome:
    """Check conservation and per-request sanity, and collect figures."""
    from repro.metrics.slo import slo_report
    from repro.metrics.summary import throughput_tokens_per_s

    problems = []
    submitted_ids = [r.request_id for r in requests]
    if len(set(submitted_ids)) != len(submitted_ids):
        problems.append("duplicate request ids in the trace")
    known = set(submitted_ids)
    reported = [r.request_id for r in result.requests]
    aborted = [r.request_id for r in result.aborted]
    if len(set(reported)) != len(reported) or len(set(aborted)) != len(aborted):
        problems.append("a request is reported twice")
    if set(aborted) & set(reported):
        problems.append("a request is both aborted and reported")
    if not (set(reported) | set(aborted)) <= known:
        problems.append("the result holds requests that were never submitted")
    aborted_set = set(aborted)
    finished = [r for r in requests if r.finished]
    stranded = [
        r.request_id for r in requests
        if not r.finished and r.request_id not in aborted_set
    ]
    if len(finished) + len(aborted) + len(stranded) != len(requests):
        problems.append("conservation: finished + aborted + stranded != submitted")
    if len(result.finished_requests) != len(finished):
        problems.append("the result's finished list disagrees with the requests")
    for r in finished:
        if not (r.arrival_time <= r.first_token_time <= r.finish_time):
            problems.append(f"request {r.request_id}: arrival <= first token <= "
                            f"finish does not hold")
        if r.generated != r.output_len:
            problems.append(f"request {r.request_id}: generated {r.generated} "
                            f"of {r.output_len} tokens")
    return Outcome(
        submitted=len(requests),
        finished=len(finished),
        aborted=aborted,
        stranded=stranded,
        attained=slo_report(result, ideal).attained,
        makespan=result.makespan,
        tokens_per_s=throughput_tokens_per_s(result),
        ttft_s=[r.first_token_time - r.arrival_time for r in finished],
        tpot_ms=[
            (r.finish_time - r.first_token_time) / (r.generated - 1) * 1e3
            for r in finished if r.generated > 1
        ],
        cache_stats=dict(result.cache_stats or {}),
        signature=(
            result.makespan,
            tuple(
                (r.request_id, r.state.value, r.first_token_time,
                 r.finish_time, r.generated, r.preemptions)
                for r in requests
            ),
        ),
        problems=problems[:20],
    )


def _pct(values: list[float], p: int) -> float:
    """The p-th percentile (exclusive method), p in 1..99."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[p - 1]


def sim_metrics(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Simulated serving figures pooled over the run's traces.

    Returns name -> (value, sample note)."""
    ttft = [v for o in outcomes for v in o.ttft_s]
    tpot = [v for o in outcomes for v in o.tpot_ms]
    submitted = sum(o.submitted for o in outcomes)
    makespan = sum(o.makespan for o in outcomes)
    finished = sum(o.finished for o in outcomes)
    return {
        "sim_ttft_p50_s": (_pct(ttft, 50), f"n={len(ttft)} requests"),
        "sim_ttft_p90_s": (_pct(ttft, 90), f"n={len(ttft)} requests"),
        "sim_tpot_p50_ms": (_pct(tpot, 50), f"n={len(tpot)} requests"),
        "sim_tpot_p90_ms": (_pct(tpot, 90), f"n={len(tpot)} requests"),
        "sim_slo_attainment": (
            sum(o.attained for o in outcomes) / submitted,
            f"n={submitted} submitted",
        ),
        "sim_tokens_per_s": (
            statistics.mean(o.tokens_per_s for o in outcomes),
            f"mean over {len(outcomes)} traces, {makespan:.0f} simulated s",
        ),
        "sim_finished_share": (finished / submitted, f"n={submitted} submitted"),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Set-up is a few milliseconds, so one sample is mostly timer noise:
# every run repeats it this many times, on one fixed trace seed whatever
# the run's seed, and reports the calibrated median.
SETUP_REPEATS = 31
SETUP_SEED = 0


@dataclass
class Run:
    """One benchmark run of one workload: its traces and what it saw."""

    workload: Workload
    seed: int
    traces: list = field(default_factory=list)
    generate_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    setup_readings: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def sub_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def generate(self) -> None:
        """Time SETUP_REPEATS set-ups (generate the SETUP_SEED trace,
        build one system) for ``setup_s``, each after a reading of the
        reference loop, then draw the traces the run serves.  Both modes
        do this in the same order, so a trace carries the same request ids
        in every process."""
        for _ in range(SETUP_REPEATS):
            gc.collect()
            self.setup_readings.append(reference_loop())
            start = clock()
            self.workload.generate(SETUP_SEED)
            built = clock()
            self.workload.build()
            self.generate_s.append(built - start)
            self.build_s.append(clock() - built)
        self.traces = [self.workload.generate(self.sub_seed(k))
                       for k in range(self.workload.traces)]

    def setup_s(self) -> float:
        """Calibrated median set-up time (see calibrate.py)."""
        measured = statistics.median(g + b for g, b in zip(self.generate_s, self.build_s))
        return measured * REFERENCE_S / statistics.median(self.setup_readings)

    def ideal(self):
        from repro.experiments.endtoend import reference_ideal_model

        return reference_ideal_model(num_gpus=self.workload.num_gpus)

    def check_same(self, first: Outcome, again: Outcome, what: str) -> None:
        if first.signature != again.signature:
            self.problems.append(f"{what}: simulated outcome differs between "
                                 f"two serves of the same trace")

    def note(self, k: int, o: Outcome) -> None:
        self.problems.extend(f"trace {k}: {p}" for p in o.problems)


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, list[Outcome]]:
    """Serve every trace and its first half, then keep re-serving them in
    turn until ``seconds`` of measuring have passed; re-serves add host
    timings and must repeat the first serve's simulated outcome exactly.
    Returns the metrics (name -> (value, note)) and the first full-trace
    outcomes."""
    ideal = run.ideal()
    build = run.workload.build
    k_total = len(run.traces)
    full_s: list[list[float]] = [[] for _ in range(k_total)]
    half_s: list[list[float]] = [[] for _ in range(k_total)]
    measured_s: list[list[float]] = [[] for _ in range(k_total)]
    first_full: list[Outcome] = []
    first_half: list[Outcome] = []
    meter = Meter()
    start = time.perf_counter()
    passes = 0
    while passes < k_total or time.perf_counter() - start < seconds:
        k = passes % k_total
        trace = run.traces[k]
        half = serve(meter, build(), trace[: len(trace) // 2], ideal)
        full = serve(meter, build(), trace, ideal)
        half_s[k].append(half.host_s)
        full_s[k].append(full.host_s)
        measured_s[k].append(full.measured_s)
        if passes < k_total:
            run.note(k, full.outcome)
            run.note(k, half.outcome)
            first_full.append(full.outcome)
            first_half.append(half.outcome)
        else:
            run.check_same(first_full[k], full.outcome, f"trace {k}")
            run.check_same(first_half[k], half.outcome, f"trace {k} half")
        passes += 1
    full_med = [statistics.median(v) for v in full_s]
    half_med = [statistics.median(v) for v in half_s]
    serves = sum(len(v) for v in full_s)
    metrics = {
        "setup_s": (run.setup_s(), f"calibrated median of {SETUP_REPEATS} set-ups"),
        "host_wall_s": (
            statistics.median(full_med),
            f"calibrated; median over {k_total} traces, {serves} full serves, "
            f"reference loop median {statistics.median(meter.readings) * 1e3:.1f} ms "
            f"vs {REFERENCE_S * 1e3:.1f} ms",
        ),
        "host_wall_ratio_2x": (
            statistics.median(f / h for f, h in zip(full_med, half_med)),
            f"median over {k_total} traces of full / first half",
        ),
        "host_measured_s": (
            statistics.median(statistics.median(v) for v in measured_s),
            "host_wall_s before calibration",
        ),
        "peak_rss_mb": (peak_rss_mb(), "of the whole run"),
    }
    metrics.update(sim_metrics(first_full))
    return metrics, first_full


def measure_layers(run: Run, spans_path) -> tuple[dict, list[Outcome], dict]:
    """Serve every trace untraced, then again with the wrappers installed;
    split the traced serve time across layers.  Returns the per-layer
    metrics, the traced outcomes and the span totals."""
    ideal = run.ideal()
    build = run.workload.build
    meter = Meter()
    untraced = [serve(meter, build(), trace, ideal) for trace in run.traces]
    rec = SpanRecorder()
    traced: list[Served] = []
    with Instrumentation(rec):
        for k, trace in enumerate(run.traces):
            traced.append(serve(meter, build(), trace, ideal, rec.serve()))
            run.note(k, traced[-1].outcome)
            run.check_same(untraced[k].outcome, traced[-1].outcome, f"trace {k} traced")
    totals = rec.totals()
    run.problems.extend(_activity_problems(run.workload, totals))
    outcomes = [s.outcome for s in traced]
    metrics = _layer_metrics(run, totals, rec.counts, outcomes)
    metrics["trace.overhead_ratio"] = (sum(s.host_s for s in traced)
                                       / sum(s.host_s for s in untraced))
    rec.write(spans_path)
    return metrics, outcomes, totals


def _activity_problems(workload: Workload, totals: dict) -> list[str]:
    calls = {name: t["calls"] for name, t in totals.items()}
    problems = [f"{name}: expected calls, recorded none"
                for name in workload.active if not calls.get(name)]
    problems += [f"{name}: expected no calls, recorded {calls[name]}"
                 for name in workload.idle if calls.get(name)]
    return problems


def _layer_metrics(run: Run, totals: dict, counts, outcomes: list[Outcome]) -> dict:
    """Per-layer figures, as means per trace (counts and seconds) or as
    ratios over the whole run."""
    k = len(outcomes)
    requests = sum(o.submitted for o in outcomes)

    def t(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    schedule_calls = t("core.schedule", "calls")
    cost_calls = t("costmodel", "calls")
    match_calls = t("sessions.prefix.match", "calls")
    cache: dict[str, float] = {}
    for o in outcomes:
        for key, value in o.cache_stats.items():
            cache[key] = cache.get(key, 0) + value
    hit = cache.get("hit_tokens", 0)
    return {
        "sim.events": counts["sim.events"] / k,
        "sim.events_per_request": ratio(counts["sim.events"], requests),
        "sim.run.self_s": t("sim.run") / k,
        "core.schedule.calls": schedule_calls / k,
        "core.schedule.calls_per_request": ratio(schedule_calls, requests),
        "core.schedule.host_s": t("core.schedule") / k,
        "core.schedule.us_per_call": ratio(t("core.schedule", "incl_s"), schedule_calls) * 1e6,
        "core.schedule.pending_mean": ratio(counts["core.schedule.pending"], schedule_calls),
        "core.schedule.empty_share": ratio(counts["core.schedule.empty"], schedule_calls),
        "core.dispatch.host_s": t("core.dispatch") / k,
        "core.allocate.host_s": t("core.allocate") / k,
        "core.batching_dp.host_s": t("core.batching_dp") / k,
        "core.scale_plan.host_s": t("core.scale_plan") / k,
        "costmodel.calls": cost_calls / k,
        "costmodel.host_s": t("costmodel") / k,
        "costmodel.repeat_share": ratio(counts["costmodel.repeats"], cost_calls),
        "sessions.prefix.match.calls": match_calls / k,
        "sessions.prefix.match.host_s": t("sessions.prefix.match") / k,
        "sessions.prefix.match.us_per_call": ratio(
            t("sessions.prefix.match", "incl_s"), match_calls) * 1e6,
        "sessions.prefix.match.repeat_share": ratio(
            counts["sessions.prefix.match.repeats"], match_calls),
        "sessions.prefix.match.ns_per_prompt_token": ratio(
            t("sessions.prefix.match", "incl_s"),
            counts["sessions.prefix.match.prompt_tokens"]) * 1e9,
        "sessions.prefix.write.host_s": t("sessions.prefix.write") / k,
        "sessions.prefix.hit_rate": ratio(hit, hit + cache.get("miss_tokens", 0)),
        "kvcache.tiers.host_s": t("kvcache.tiers") / k,
        "kvcache.tiers.offloaded_tokens": cache.get("tier_offloaded_tokens", 0) / k,
        "kvcache.tiers.swapped_in_tokens": cache.get("tier_swapped_in_tokens", 0) / k,
        "fleet.route.calls": t("fleet.route", "calls") / k,
        "fleet.route.host_s": t("fleet.route") / k,
        "fleet.control.ticks": t("fleet.control", "calls") / k,
        "fleet.control.host_s": t("fleet.control") / k,
        "fleet.disagg.dispatch.host_s": t("fleet.disagg.dispatch") / k,
        "fleet.disagg.handoffs": t("fleet.disagg.handoff", "calls") / k,
        "fleet.steal.moves": t("fleet.steal", "calls") / k,
        "workloads.generate_s": statistics.median(run.generate_s),
        "experiments.build_s": statistics.median(run.build_s),
    }
