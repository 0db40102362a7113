"""Inference batcher: coalesce queued requests into one HGT forward pass.

NeuroSelect's selection cost is one model inference per instance.  The
batcher collects queued requests into one
:class:`~repro.graph.batching.BatchedBipartiteGraph` and classifies
them with a single
:meth:`~repro.models.neuroselect.NeuroSelect.predict_proba_batch` call,
whose segmented attention makes the batched probabilities exactly the
per-instance ones.

Batching is *work-conserving*: the flush loop blocks for the first
queued request, takes every other request already queued (up to
``max_batch``) and flushes at once — no timer, so a lone request never
waits for batch mates.  Requests that arrive while a graph build or
forward pass is running queue up and form the next batch, so bursts
still coalesce.  A forward pass costs about the same per graph at any
batch size (``docs/serving.md``), so waiting to grow a batch buys no
amortization.

Flush triggers:

* **size** — the batch reached ``max_batch`` members (the rest of the
  queue forms the next batch);
* **queue** — the batch took everything that was queued;
* **drain** — the batcher is stopping; residual queued requests are
  flushed in ``max_batch``-sized chunks so shutdown loses nothing.

Requests whose future was cancelled (client disconnect) are dropped at
flush time, before any graph construction or inference is spent on
them.  Instances whose graph would exceed the node cap of the
:class:`~repro.selection.selector.DecisionRule` (checked on the formula,
so their graph is never built) skip inference and fall back to the
default policy, exactly like
:class:`~repro.selection.selector.NeuroSelectSolver` (the paper's
>400k-node handling).

**Failure contract**: the forward pass has no soundness obligation
(both candidate policies are correct), so nothing it can do — raise,
stall past ``inference_timeout``, or be short-circuited by an open
:class:`~repro.serve.resilience.CircuitBreaker` — is allowed to lose a
request.  Every live member of a failed batch resolves to a
default-policy :class:`PolicyChoice` tagged ``degraded=True``, and the
flush loop itself is exception-proof: a bug anywhere in the flush path
still resolves every member rather than wedging the queue.

Instrumentation: each forward pass increments :attr:`passes` (the
``/healthz`` ``inference_passes`` total) and records the number of
coalesced requests in the ``serve.batch_size`` histogram — the
amortization claim is ``inference_passes < requests``, measured, not
asserted — plus one ``serve-batch`` trace event per flush.

Settings (``max_batch``, ``inference_timeout``) are read from the
service's :class:`~repro.serve.service.ServeConfig`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cnf.formula import CNF
from repro.graph.batching import batch_graphs
from repro.graph.bipartite import BipartiteGraph
from repro.obs.metrics import BATCH_BUCKETS
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.selection.selector import DecisionRule

if TYPE_CHECKING:
    from repro.serve.service import ServeConfig


@dataclass
class PolicyChoice:
    """Result of one batched policy inference, for one request."""

    label: int
    policy: str
    probability: Optional[float]
    used_model: bool          # False: node cap (or no model) forced default
    batch_size: int           # live requests coalesced into this flush
    trigger: str              # "size" | "queue" | "drain"
    inference_seconds: float  # forward-pass cost of the whole batch
    queue_wait_seconds: float  # submit -> flush wait for this request
    #: True when this request *would* have used the model but inference
    #: was bypassed (open breaker) or failed (raise / timeout).
    degraded: bool = False


class _Pending:
    """One queued submission: the formula and the future awaiting it."""

    __slots__ = ("cnf", "future", "enqueued", "on_flush")

    def __init__(
        self,
        cnf: CNF,
        future: "asyncio.Future[PolicyChoice]",
        on_flush=None,
    ):
        self.cnf = cnf
        self.future = future
        self.enqueued = time.perf_counter()
        self.on_flush = on_flush


_STOP = object()


class InferenceBatcher:
    """Work-conserving batching of policy inference."""

    def __init__(
        self,
        model,
        config: "ServeConfig",
        rule: Optional[DecisionRule] = None,
        breaker=None,
        observer: Observer = NULL_OBSERVER,
    ):
        self.model = model
        self.config = config
        self.rule = rule or DecisionRule.for_model(model)
        #: Optional :class:`~repro.serve.resilience.CircuitBreaker`
        #: guarding the forward pass (None: no guard, zero overhead).
        self.breaker = breaker
        self.observer = observer
        #: Forward passes performed (one per non-empty eligible batch).
        self.passes = 0
        #: Requests that received a choice (incl. node-cap fallbacks).
        self.served = 0
        #: Forward passes that raised or timed out.
        self.failures = 0
        #: Requests resolved with a degraded (fallback) choice.
        self.degraded = 0
        self._queue: "asyncio.Queue[object]" = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        self._batch_hist = observer.histogram(
            "serve.batch_size", BATCH_BUCKETS
        )

    @property
    def threshold(self) -> float:
        """The decision threshold in force (see :class:`DecisionRule`)."""
        return self.rule.threshold

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the flush loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.create_task(self._loop())

    async def stop(self) -> None:
        """Stop the flush loop, draining anything still queued first."""
        if self._task is None:
            return
        await self._queue.put(_STOP)
        await self._task
        self._task = None

    # -- submission --------------------------------------------------------

    async def submit(self, cnf: CNF, on_flush=None) -> PolicyChoice:
        """Queue one instance; resolves when its batch is flushed.

        ``on_flush`` (no-arg callable) fires when the request's batch
        begins its forward pass — the service uses it for the
        QUEUED→INFERRING lifecycle transition.  Cancelling the awaiting
        task drops the request from its batch — no graph is built and
        no inference slot is spent on it.
        """
        if self._task is None:
            raise RuntimeError("batcher is not running; call start() first")
        pending = _Pending(
            cnf, asyncio.get_running_loop().create_future(), on_flush
        )
        await self._queue.put(pending)
        return await pending.future

    # -- flush loop --------------------------------------------------------

    async def _loop(self) -> None:
        while True:
            first = await self._queue.get()
            if first is _STOP:
                break
            # Take what is already queued and flush now; whatever
            # arrives during this flush forms the next batch.
            batch: List[_Pending] = [first]
            stopping = False
            while (
                len(batch) < self.config.max_batch
                and not self._queue.empty()
            ):
                item = self._queue.get_nowait()
                if item is _STOP:
                    stopping = True
                    break
                batch.append(item)
            trigger = (
                "size" if len(batch) >= self.config.max_batch else "queue"
            )
            await self._safe_flush(batch, trigger)
            if stopping:
                await self._drain()
                break

    async def _drain(self) -> None:
        """Flush submissions that raced in behind the stop sentinel."""
        residue: List[_Pending] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _STOP:
                residue.append(item)
        size = self.config.max_batch
        while residue:
            chunk, residue = residue[:size], residue[size:]
            await self._safe_flush(chunk, "drain")

    async def _safe_flush(self, batch: List[_Pending], trigger: str) -> None:
        """Flush with a last-resort net: a bug never wedges the queue.

        ``_flush`` already converts every *expected* failure (raising
        or slow forward pass, open breaker) into degraded fallback
        choices.  This wrapper covers the unexpected: if the flush path
        itself raises, every still-pending member is resolved with a
        degraded default choice instead of hanging its submitter and
        killing the loop task.
        """
        try:
            await self._flush(batch, trigger)
        except Exception:
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_result(
                        self._fallback_choice(
                            batch_size=len(batch),
                            trigger=trigger,
                            queue_wait=time.perf_counter()
                            - pending.enqueued,
                            degraded=self.model is not None,
                        )
                    )
                    self.served += 1

    def _fallback_choice(
        self,
        batch_size: int,
        trigger: str,
        queue_wait: float,
        degraded: bool,
        inference_seconds: float = 0.0,
    ) -> PolicyChoice:
        """Default-policy choice for a request that skipped inference."""
        if degraded:
            self.degraded += 1
        label, policy = self.rule.decide(None)
        return PolicyChoice(
            label=label,
            policy=policy,
            probability=None,
            used_model=False,
            batch_size=batch_size,
            trigger=trigger,
            inference_seconds=inference_seconds,
            queue_wait_seconds=queue_wait,
            degraded=degraded,
        )

    async def _flush(self, batch: List[_Pending], trigger: str) -> None:
        """Classify one batch and resolve every live member's future."""
        live = [p for p in batch if not p.future.done()]
        if not live:
            return
        for pending in live:
            if pending.on_flush is not None:
                pending.on_flush()
        loop = asyncio.get_running_loop()
        flushed_at = time.perf_counter()
        degraded_reason = ""
        # The node cap applies to the formula, before any graph (sized
        # by the declared variable count) is built.
        eligible = (
            [i for i, p in enumerate(live) if self.rule.admits(p.cnf)]
            if self.model is not None
            else []
        )
        member_graphs: Optional[List[BipartiteGraph]] = None
        if eligible:
            try:
                # Graph construction is numpy-heavy; keep it off the
                # event loop.
                member_graphs = await loop.run_in_executor(
                    None, lambda: [BipartiteGraph(live[i].cnf) for i in eligible]
                )
            except Exception as exc:
                degraded_reason = (
                    f"graph-construction: {type(exc).__name__}: {exc}"
                )
        if (
            member_graphs is not None
            and self.breaker is not None
            and not self.breaker.allow()
        ):
            degraded_reason = "breaker-open"
        inference_seconds = 0.0
        probabilities: dict = {}
        if member_graphs is not None and not degraded_reason:

            def _forward() -> List[float]:
                return self.model.predict_proba_batch(
                    batch_graphs(member_graphs)
                )

            # A pass past the timeout is a failure: the batch degrades to
            # the default policy (the orphaned executor thread finishes
            # into the void; the breaker keeps such threads from piling up).
            timeout = self.config.inference_timeout
            start = time.perf_counter()
            try:
                forward = loop.run_in_executor(None, _forward)
                if timeout is not None:
                    values = await asyncio.wait_for(forward, timeout)
                else:
                    values = await forward
            except asyncio.TimeoutError:
                inference_seconds = time.perf_counter() - start
                degraded_reason = f"inference-timeout ({timeout:.3g}s)"
                self.failures += 1
                if self.breaker is not None:
                    self.breaker.record_failure(reason="timeout")
            except Exception as exc:
                inference_seconds = time.perf_counter() - start
                degraded_reason = (
                    f"inference-error: {type(exc).__name__}: {exc}"
                )
                self.failures += 1
                if self.breaker is not None:
                    self.breaker.record_failure(reason=type(exc).__name__)
            else:
                inference_seconds = time.perf_counter() - start
                probabilities = dict(zip(eligible, values))
                self.passes += 1
                self._batch_hist.observe(len(live))
                if self.breaker is not None:
                    self.breaker.record_success(inference_seconds)
        # Members that would have gone through the model but could not
        # (failed pass, open breaker, failed graph build) are *degraded*;
        # node-cap fallbacks are not — skipping oversized graphs is the
        # paper's intended behaviour.
        eligible_set = set(eligible)
        degraded_members = 0
        for index, pending in enumerate(live):
            probability = probabilities.get(index)
            if probability is None:
                degraded = bool(degraded_reason) and index in eligible_set
                if degraded:
                    degraded_members += 1
                choice = self._fallback_choice(
                    batch_size=len(live),
                    trigger=trigger,
                    queue_wait=flushed_at - pending.enqueued,
                    degraded=degraded,
                    inference_seconds=inference_seconds,
                )
            else:
                label, policy = self.rule.decide(probability)
                choice = PolicyChoice(
                    label=label,
                    policy=policy,
                    probability=probability,
                    used_model=True,
                    batch_size=len(live),
                    trigger=trigger,
                    inference_seconds=inference_seconds,
                    queue_wait_seconds=flushed_at - pending.enqueued,
                )
            if not pending.future.done():
                pending.future.set_result(choice)
                self.served += 1
        event_fields = dict(
            size=len(live),
            eligible=len(eligible),
            trigger=trigger,
            inference_seconds=round(inference_seconds, 6),
        )
        if degraded_reason:
            event_fields["degraded"] = degraded_members
            event_fields["reason"] = degraded_reason
        self.observer.event("serve-batch", **event_fields)
