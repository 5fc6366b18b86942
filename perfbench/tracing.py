"""Span tracing wrapped around each layer's entry points.

The wrappers live here, in the benchmark, not in the program: installing
them replaces a class attribute or a module-level name with a function
that records a span (name, start, end, parent span, request id) and
calls the original.  ``core.global_manager`` imports its step functions
by name, so those are wrapped where ``GlobalManager.schedule`` looks
them up.  Spans are held in flat arrays and written out once at the end.

A span's self time is its duration minus the whole time its direct
children's wrappers took, the wrappers' own bookkeeping and hooks
included, so tracing cost is not charged to the caller's layer.  Layer
times are self times; together with the wrappers' own cost
(``WRAPPERS``) they add up to the traced serve time without double
counting.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from pathlib import Path

SERVE = "serve"  # the benchmark's own span around one ``system.run``
WRAPPERS = "tracing.wrappers"  # totals() entry: the wrappers' own cost


class SpanRecorder:
    """In-memory span store with one open-span stack (the simulator is
    single-threaded), plus counters the hooks take at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        # The wrapper's whole duration, hooks included; >= end - start.
        self.outer = array("d")
        self.parent = array("i")
        self.request = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # Hooks count only while a trace is being served, so cost-model
        # calls made while building a system stay out of the layer split.
        self.serving = False
        self.seen_match_ids: set = set()

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name_id: int, request_id: int = -1) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(request_id)
        self.end.append(0.0)
        self.outer.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def serve(self) -> "_Serve":
        """Context manager for the benchmark's own span around one traced
        ``system.run``."""
        return _Serve(self)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start,end,wrapper_s,parent,request\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i},{names[self.name[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.outer[i]:.9f},{self.parent[i]},"
                    f"{self.request[i]}\n"
                )

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name, over spans inside a ``serve`` span: calls,
        inclusive seconds and self seconds, plus a ``WRAPPERS`` entry for
        what the wrappers themselves cost outside the spans they time.

        A span nested directly in one of the same name (``prefill_time``
        of one cost model calling another's) adds self time but is not a
        second call."""
        n = len(self.name)
        serve_id = self._name_ids.get(SERVE, -1)
        inside = [False] * n
        child_time = [0.0] * n
        for i in range(n):  # parents precede their children
            p = self.parent[i]
            inside[i] = self.name[i] == serve_id or (p >= 0 and inside[p])
            if p >= 0:
                child_time[p] += self.outer[i]
        out: dict[str, dict[str, float]] = {}
        wrappers = out[WRAPPERS] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        for i in range(n):
            if not inside[i]:
                continue
            nid = self.name[i]
            if nid != serve_id:
                own = self.outer[i] - (self.end[i] - self.start[i])
                wrappers["calls"] += 1
                wrappers["incl_s"] += own
                wrappers["self_s"] += own
            entry = out.setdefault(
                self.names[nid], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            dur = self.end[i] - self.start[i]
            entry["self_s"] += dur - child_time[i]
            p = self.parent[i]
            if p < 0 or self.name[p] != nid:
                entry["calls"] += 1
                entry["incl_s"] += dur
        return out


class _Serve:
    """A serve span.  "Earlier in the run" for the repeat counters means
    earlier in this serve, because every serve builds fresh state."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec

    def __enter__(self) -> "_Serve":
        rec = self.rec
        rec.seen_match_ids.clear()
        rec.serving = True
        self.idx = rec.begin(rec.name_id(SERVE))
        return self

    def __exit__(self, *exc) -> None:
        rec = self.rec
        rec.finish(self.idx)
        rec.outer[self.idx] = rec.end[self.idx] - rec.start[self.idx]
        rec.serving = False


# -- hooks: counters taken where the work happens ---------------------------


def _memo_hooks(attr: str):
    """``before``/``after`` hooks counting calls answered from the cost
    model's own memo (``attr``): a call that left the memo the same size
    was a hit.  A call that shrank it (cleared at its cap) is no hit."""

    def before(rec: SpanRecorder, args, kwargs) -> int:
        return len(getattr(args[0], attr))

    def after(rec: SpanRecorder, args, kwargs, result, size: int) -> None:
        if rec.serving and len(getattr(args[0], attr)) == size:
            rec.counts["costmodel.repeats"] += 1

    return {"before": before, "after": after}


def _schedule_hook(rec: SpanRecorder, args, kwargs, result) -> None:
    pending = kwargs["pending"] if "pending" in kwargs else args[2]
    rec.counts["core.schedule.pending"] += len(pending)
    if result.is_empty:
        rec.counts["core.schedule.empty"] += 1


def _match_hook(rec: SpanRecorder, args, kwargs, result) -> None:
    request = kwargs["request"] if "request" in kwargs else args[1]
    if request.request_id in rec.seen_match_ids:
        rec.counts["sessions.prefix.match.repeats"] += 1
    else:
        rec.seen_match_ids.add(request.request_id)
    rec.counts["sessions.prefix.match.prompt_tokens"] += len(request.token_ids or ())


def _events_before(rec: SpanRecorder, args, kwargs) -> int:
    return args[0].events_processed


def _events_after(rec: SpanRecorder, args, kwargs, result, before: int) -> None:
    if rec.serving:
        rec.counts["sim.events"] += args[0].events_processed - before


class Instrumentation:
    """Installs the wrappers and restores the originals afterwards."""

    def __init__(self, recorder: SpanRecorder) -> None:
        from repro.types import Request

        self.recorder = recorder
        self._request_type = Request
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        from repro.core import global_manager
        from repro.core.global_manager import GlobalManager
        from repro.costmodel.analytical import AnalyticalModel
        from repro.costmodel.latency import RooflineCostModel
        from repro.fleet import router as router_mod
        from repro.fleet.control import FleetController
        from repro.fleet.disagg import DisaggDispatcher
        from repro.fleet.server import ReplicaHandle
        from repro.kvcache.tiers import TieredKVStore
        from repro.sessions.prefix_cache import PrefixKVCache
        from repro.sim.engine import Simulator

        wrap = self._wrap
        wrap(Simulator, "run", "sim.run", before=_events_before, after=_events_after)
        wrap(GlobalManager, "schedule", "core.schedule", after=_schedule_hook)
        wrap(global_manager, "select_prefill_requests", "core.dispatch")
        wrap(global_manager, "allocate_instances", "core.allocate")
        wrap(global_manager, "plan_batches", "core.batching_dp")
        wrap(global_manager, "plan_scale_down", "core.scale_plan")
        wrap(global_manager, "plan_scale_up", "core.scale_plan")
        # Memo hits are read off the models' own memos; migration_time
        # has none, so its calls count but never repeat.
        for attr in ("prefill_time", "decode_time"):
            wrap(RooflineCostModel, attr, "costmodel", **_memo_hooks("_time_cache"))
        wrap(AnalyticalModel, "prefill_time", "costmodel",
             **_memo_hooks("_predict_cache"))
        wrap(RooflineCostModel, "migration_time", "costmodel")
        wrap(PrefixKVCache, "match_and_lock", "sessions.prefix.match",
             after=_match_hook)
        for attr in ("adopt_finished", "import_prefix", "evict"):
            wrap(PrefixKVCache, attr, "sessions.prefix.write")
        for attr in ("offload", "fetch", "probe"):
            wrap(TieredKVStore, attr, "kvcache.tiers")
        for cls in vars(router_mod).values():
            if (isinstance(cls, type) and issubclass(cls, router_mod.Router)
                    and "route" in vars(cls)):
                wrap(cls, "route", "fleet.route")
        wrap(FleetController, "_tick", "fleet.control")
        wrap(DisaggDispatcher, "dispatch", "fleet.disagg.dispatch")
        wrap(ReplicaHandle, "import_prefix", "fleet.disagg.handoff")
        wrap(ReplicaHandle, "accept_stolen", "fleet.steal")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        original = vars(owner)[attr]
        rec = self.recorder
        nid = rec.name_id(name)
        begin, finish, outer = rec.begin, rec.finish, rec.outer
        request_type = self._request_type
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            state = before(rec, args, kwargs) if before is not None else None
            request_id = -1
            for arg in args[1:3]:
                if type(arg) is request_type:
                    request_id = arg.request_id
                    break
            idx = begin(nid, request_id)
            try:
                result = original(*args, **kwargs)
            finally:
                finish(idx)
            if before is not None:
                after(rec, args, kwargs, result, state)
            elif after is not None:
                after(rec, args, kwargs, result)
            outer[idx] = clock() - entered
            return result

        wrapper.__wrapped__ = original
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
