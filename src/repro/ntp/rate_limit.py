"""NTP server-side rate limiting (the mechanism the run-time attack abuses).

The reference implementation (ntpd's ``restrict ... limited [kod]``) tracks
the inter-arrival times of queries per source address.  When a source
queries faster than the configured average interval for long enough, the
server stops answering it; with ``kod`` configured it first sends a single
Kiss-o'-Death packet with code ``RATE``.

Because the server identifies clients only by source IP address — NTP runs
over UDP with no handshake — an off-path attacker can send *spoofed* queries
carrying the victim client's address and push the victim into the limited
state.  The victim's own (legitimate, slow) queries then go unanswered and
the client eventually declares the server unreachable.  This module
implements the token-bucket-style accounting that produces that behaviour,
and is shared by real servers, the synthetic pool population, and the
rate-limit scanner of section VII-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class RateLimitDecision(Enum):
    """What the server should do with one incoming query."""

    RESPOND = "respond"
    KOD = "kod"
    DROP = "drop"


#: Hoisted members for the per-query hot path (attribute loads add up over
#: millions of checks).
_RESPOND = RateLimitDecision.RESPOND
_KOD = RateLimitDecision.KOD
_DROP = RateLimitDecision.DROP


@dataclass(slots=True)
class BurstOutcome:
    """Decision summary for N same-instant queries from one source.

    With a non-negative query cost the accumulated score is monotone
    within a same-instant burst, so the per-arrival decisions are always
    front-loaded: arrival ``k`` (0-based) gets ``RESPOND`` for
    ``k < responds``, ``KOD`` for ``k == responds`` when ``kod`` is true,
    and ``DROP`` otherwise.  ``drops`` counts the ``DROP`` decisions
    (``n - responds``, minus one when a KoD was issued), mirroring what a
    server's per-query loop would have tallied.
    """

    responds: int
    kod: bool
    drops: int

    @property
    def denied(self) -> int:
        """Arrivals denied service (KoD included — it is not an answer)."""
        return self.drops + (1 if self.kod else 0)


@dataclass(slots=True)
class _SourceState:
    """Accounting for one source address (slotted: one per spoofed flood)."""

    last_seen: float = 0.0
    score: float = 0.0
    kod_sent: bool = False
    drops: int = 0


@dataclass(slots=True)
class RateLimiter:
    """Leaky-bucket rate limiter keyed by source address.

    Slotted: ``check`` runs once per received query — millions per
    spoofing sweep — and slot access skips the instance ``__dict__``.

    Parameters mirror ntpd's defaults: a query "costs" ``average_interval``
    seconds of budget, the bucket drains in real time, and once the
    accumulated score exceeds ``burst_tolerance`` seconds the source is
    limited.  With the defaults, a source querying once per second exceeds
    the budget after roughly ``burst_tolerance / (average_interval - 1)``
    queries, which reproduces the "stops responding during the second half
    of 64 queries at 1/s" signature the scan of section VII-A looks for.
    """

    average_interval: float = 8.0
    burst_tolerance: float = 100.0
    send_kod: bool = True
    enabled: bool = True
    sources: dict[str, _SourceState] = field(default_factory=dict)
    queries_seen: int = 0
    queries_dropped: int = 0
    kods_sent: int = 0

    def check(self, source_ip: str, now: float) -> RateLimitDecision:
        """Account for one query from ``source_ip`` and decide the response.

        Runs once per received query (the hottest accounting loop of the
        rate-limit abuse scenarios), so the bucket arithmetic is written
        with branches instead of ``max()`` calls and a single state lookup,
        and the decision members are hoisted module constants.
        """
        self.queries_seen += 1
        if not self.enabled:
            return _RESPOND
        sources = self.sources
        state = sources.get(source_ip)
        if state is None:
            state = sources[source_ip] = _SourceState(last_seen=now)
        # Drain the bucket by the elapsed time (never backwards, never below
        # empty), then charge this query's cost.
        elapsed = now - state.last_seen
        score = state.score
        if elapsed > 0.0:
            score -= elapsed
            if score < 0.0:
                score = 0.0
        score += self.average_interval
        state.score = score
        state.last_seen = now

        if score <= self.burst_tolerance:
            return _RESPOND

        state.drops += 1
        self.queries_dropped += 1
        if self.send_kod and not state.kod_sent:
            state.kod_sent = True
            self.kods_sent += 1
            return _KOD
        return _DROP

    def consume_burst(self, source_ip: str, n: int, now: float) -> BurstOutcome:
        """Account for ``n`` same-instant queries from one source at once.

        Exactly equivalent to ``n`` sequential :meth:`check` calls at the
        same ``now`` (property-pinned): same decisions in the same order,
        same final bucket state bit-for-bit, same aggregate counters.  The
        bucket *drain* is fast-forwarded in closed form — arrivals after
        the first have zero elapsed time, so one subtraction covers the
        whole burst — but the admit count deliberately comes from a tight
        accumulation loop rather than ``(tolerance - score) / cost``:
        :meth:`check` builds the score by repeated float addition, and a
        closed-form multiplication rounds differently right at the
        tolerance boundary, which would make switching a flow from
        per-query to burst accounting observable.  The loop is pure float
        adds with none of check's per-call dict/enum/state machinery, which
        is where the bulk win comes from (see the
        ``limiter_burst_ops_per_sec`` microbenchmark).

        Requires a non-negative ``average_interval`` (a negative cost makes
        in-burst decisions non-monotone, which :class:`BurstOutcome` cannot
        represent).
        """
        if n <= 0:
            return BurstOutcome(0, False, 0)
        cost = self.average_interval
        if cost < 0.0:
            raise ValueError(
                f"consume_burst requires average_interval >= 0, got {cost}"
            )
        self.queries_seen += n
        if not self.enabled:
            return BurstOutcome(n, False, 0)
        sources = self.sources
        state = sources.get(source_ip)
        if state is None:
            state = sources[source_ip] = _SourceState(last_seen=now)
        # Closed-form drain fast-forward: only the first arrival sees a
        # non-zero elapsed time, so the whole burst drains once.
        elapsed = now - state.last_seen
        score = state.score
        if elapsed > 0.0:
            score -= elapsed
            if score < 0.0:
                score = 0.0
        tolerance = self.burst_tolerance
        responds = 0
        for _ in range(n):
            score += cost
            if score <= tolerance:
                responds += 1
        state.score = score
        state.last_seen = now
        denied = n - responds
        if denied == 0:
            return BurstOutcome(n, False, 0)
        state.drops += denied
        self.queries_dropped += denied
        kod = False
        if self.send_kod and not state.kod_sent:
            state.kod_sent = True
            self.kods_sent += 1
            kod = True
        return BurstOutcome(responds, kod, denied - (1 if kod else 0))

    def is_limited(self, source_ip: str, now: float) -> bool:
        """True when ``source_ip`` would currently be denied service."""
        state = self.sources.get(source_ip)
        if state is None or not self.enabled:
            return False
        current = max(0.0, state.score - max(0.0, now - state.last_seen))
        return current > self.burst_tolerance

    def reset(self, source_ip: str | None = None) -> None:
        """Forget accounting for one source, or for all sources."""
        if source_ip is None:
            self.sources.clear()
        else:
            self.sources.pop(source_ip, None)
