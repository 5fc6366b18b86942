"""The benchmark's three workloads.

Each workload is an open-loop Poisson trace in discrete simulation mode,
served by a system built through the repository's public factories.  A
run serves ``traces`` independent traces, each drawn from its own
sub-seed of the run's ``--seed``: end-to-end figures are medians or
pooled statistics over those traces, which keeps one unlucky burst of
500k-token prompts from swinging a whole run (see README.md).

``active`` names the traced entry points a workload must reach and
``idle`` the ones it must never call; the traced run checks both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Span names (see tracing.py) grouped by the layer they belong to.
CORE = ("core.schedule", "core.dispatch", "core.allocate", "core.batching_dp",
        "core.scale_plan")
PREFIX = ("sessions.prefix.match", "sessions.prefix.write")
TIERS = ("kvcache.tiers",)
FLEET = ("fleet.route", "fleet.control", "fleet.disagg.dispatch",
         "fleet.disagg.handoff", "fleet.steal")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    traces: int
    num_gpus: int  # per replica; sizes the SLO reference model
    generate: Callable[[int], list]
    build: Callable[[], object]
    active: tuple[str, ...]
    idle: tuple[str, ...] = ()


def _mixed_trace(rate: float, num_requests: int):
    def generate(seed: int) -> list:
        from repro.workloads.datasets import MIXED
        from repro.workloads.trace_gen import make_trace

        return make_trace(MIXED, rate=rate, num_requests=num_requests, seed=seed)

    return generate


def _sessions_trace(rate: float, num_sessions: int):
    def generate(seed: int) -> list:
        from repro.sessions import make_session_trace

        return make_session_trace(rate=rate, num_sessions=num_sessions, seed=seed)

    return generate


def _build_mixed_single():
    from repro.baselines.no_scaleup import build_loongserve

    return build_loongserve(num_gpus=8)


def _build_sessions_tiered():
    from repro.baselines.no_scaleup import build_loongserve
    from repro.config import SchedulerConfig

    return build_loongserve(
        num_gpus=4,
        scheduler=SchedulerConfig(
            enable_prefix_cache=True, max_cached_tokens=16_000,
            kv_tier_policy="lru",
        ),
    )


def _build_disagg_burst():
    from repro.experiments.systems import make_fleet

    return make_fleet(
        "loongserve", replicas=5, router="least-kv", prefix_cache=True,
        disagg=1, steal=True,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mixed_single",
            why="one 8-GPU server under bursty Mixed load: ESP scheduler and "
                "cost model carry the host time; prefix cache and fleet idle",
            traces=8,
            num_gpus=8,
            generate=_mixed_trace(rate=0.35, num_requests=150),
            build=_build_mixed_single,
            active=("sim.run", "costmodel") + CORE,
            idle=PREFIX + TIERS + FLEET,
        ),
        Workload(
            name="sessions_tiered",
            why="multi-turn sessions on a 4-GPU replica with a capped prefix "
                "cache and LRU host offload: prefix match, evict and swap-in",
            traces=26,
            num_gpus=4,
            generate=_sessions_trace(rate=2.0, num_sessions=12),
            build=_build_sessions_tiered,
            active=("sim.run", "costmodel") + CORE + PREFIX + TIERS,
            idle=FLEET,
        ),
        Workload(
            name="disagg_burst",
            why="Mixed burst on 5 replicas, 1 prefill + 4 decode, least-kv, "
                "stealing: long prefix walks, KV handoffs and fleet control",
            traces=9,
            num_gpus=8,
            generate=_mixed_trace(rate=40.0, num_requests=60),
            build=_build_disagg_burst,
            active=("sim.run", "costmodel") + CORE + PREFIX
            + ("fleet.route", "fleet.control", "fleet.disagg.dispatch",
               "fleet.disagg.handoff"),
            idle=TIERS,
        ),
    )
}
