"""Deterministic discrete-event message simulator with fault injection.

Every protocol in this package runs on top of the :class:`Simulator`:
peers are state machines driven by message deliveries, timers and idle
callbacks. Time is an integer tick counter; per-message delays are drawn
uniformly from ``[1, max_delay]`` out of a run-seeded generator, so a
fixed (scenario, seed) pair always produces a byte-identical trace.

The queue is a calendar of tick buckets: a list of entries per tick, in
push order, plus a heap of the ticks that have one. Every delay is at
least 1, so nothing joins the bucket being drained, and draining buckets
in tick order dispatches entries in (tick, push order). One
``Simulator.send`` call carries a whole fan-out: one payload to a list of
destinations, each with its own send event, delay and delivery or drop.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable

from . import wire

PHASE_REGISTRATION = "registration"
PHASE_CASTING = "casting"
PHASE_AGGREGATION = "aggregation"
PHASE_EVALUATION = "evaluation"
PHASE_VERIFICATION = "verification"

PHASES = (
    PHASE_REGISTRATION,
    PHASE_CASTING,
    PHASE_AGGREGATION,
    PHASE_EVALUATION,
    PHASE_VERIFICATION,
)

KIND_SEND = "send"
KIND_DELIVER = "deliver"
KIND_DROP = "drop"
KIND_LOCAL = "local-action"

# Tick budget of a run; a run still busy at this tick ends incomplete.
MAX_TICKS = 1_000_000
# The decoded half of an in-flight slot that no delivery has decoded yet.
_UNDECODED = object()


class ScenarioError(Exception):
    """A scenario asked the simulator to do something contradictory."""


class ConfigError(Exception):
    """A bad configuration: the one error every config rule raises. The
    message starts with the path of the field it names, e.g. ``d: ...``."""


def check_election(n: int, d: int, choices: list | None) -> None:
    """The rules every protocol shares: n >= 1 voters, d >= 2 options and,
    when given, one choice per voter, each an int in [0, d) (not a bool)."""
    if n < 1:
        raise ConfigError("n: must be >= 1")
    if d < 2:
        raise ConfigError("d: must be >= 2")
    if choices is None:
        return
    if len(choices) != n:
        raise ConfigError(f"choices: expected {n} entries, got {len(choices)}")
    if any(not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < d
           for c in choices):
        raise ConfigError("choices: every entry must be an option index in [0, d)")


# The default payload decoder: the JSON object the bytes hold, or None for any
# other JSON value. Peers never see a payload decoded to None.
json_object = wire.decoder({})


@dataclass(frozen=True)
class FaultModel:
    """Which peers misbehave and how the network loses messages.

    ``lose_messages`` drops specific send sequence numbers (0-based over
    all sends of the run); it exists so tests can place a single targeted
    loss deterministically.
    """

    crashed: frozenset[int] = frozenset()
    drop_probability: float = 0.0
    byzantine: dict[int, str] = field(default_factory=dict)
    max_delay: int = 1
    lose_messages: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ConfigError("faults.drop_probability: must be within [0, 1]")
        if self.max_delay < 1:
            raise ConfigError("faults.max_delay: must be >= 1")
        for pid, name in self.byzantine.items():
            if crash_steps(name) is None and pid in self.crashed:
                raise ConfigError(
                    f"faults.byzantine: peer {pid} cannot also be crashed ({name!r})"
                )

    def live(self, voters) -> set[int]:
        """The live voters, those not crashed: completion and analysis count only these."""
        return set(voters) - self.crashed

    def to_obj(self) -> dict:
        return {
            "crashed": sorted(self.crashed),
            "drop_probability": self.drop_probability,
            "byzantine": {str(k): v for k, v in sorted(self.byzantine.items())},
            "max_delay": self.max_delay,
            "lose_messages": sorted(self.lose_messages),
        }


# One trace event, a plain tuple (the cycle collector untracks those): time,
# kind, src, dst (None for a local action), phase, payload SHA-256 (hex; one
# str object per distinct payload in a run), size.
Event = tuple[int, str, int, int | None, str, str, int]


@dataclass
class Trace:
    """Ordered event record of one run plus the scenario echo."""

    events: list[Event]
    params: dict

    def to_jsonl(self) -> str:
        """One JSON line per event, as ``wire.dumps`` would make it (kind, phase
        and digest never need escaping: the simulator rejects other phases)."""
        return "".join([
            f'{{"digest":"{digest}","from":{src},"kind":"{kind}","phase":"{phase}",'
            f'"size":{size},"time":{time}}}\n' if dst is None else
            f'{{"digest":"{digest}","from":{src},"kind":"{kind}","phase":"{phase}",'
            f'"size":{size},"time":{time},"to":{dst}}}\n'
            for time, kind, src, dst, phase, digest, size in self.events
        ])

    def message_count(self) -> int:
        return sum(1 for e in self.events if e[1] == KIND_SEND)

    def byte_count(self) -> int:
        return sum(e[6] for e in self.events if e[1] == KIND_SEND)


@dataclass(frozen=True)
class PerformedAction:
    phase: str
    action: str
    consumes: tuple[str, ...] = ()


@dataclass(frozen=True)
class AssignedRole:
    """An authority role held by a fixed subset of peers for a whole run.

    ``origin`` is "configured" when the scenario pins the holders and
    "runtime" when the protocol assigns them during the run (e.g. by
    overlay placement). ``artifacts`` names data items that only this
    role can produce and that other peers must take on trust.
    """

    name: str
    holders: frozenset[int]
    origin: str  # "configured" | "runtime"
    artifacts: tuple[str, ...] = ()


@dataclass
class RoleLog:
    """Per-peer record of protocol roles, used by the trace classifier."""

    voters: frozenset[int] = frozenset()
    performed: dict[int, list[PerformedAction]] = field(default_factory=dict)
    assigned: list[AssignedRole] = field(default_factory=list)

    def record(self, pid: int, action: PerformedAction) -> None:
        self.performed.setdefault(pid, []).append(action)

    def assign(self, name: str, holders: set[int], origin: str,
               artifacts: tuple[str, ...] = ()) -> None:
        if origin not in ("configured", "runtime"):
            raise ConfigError(f"unknown role origin {origin!r}")
        self.assigned.append(AssignedRole(name, frozenset(holders), origin, artifacts))

    def to_obj(self) -> dict:
        return {
            "voters": sorted(self.voters),
            "performed": {
                str(pid): [[a.phase, a.action, list(a.consumes)] for a in acts]
                for pid, acts in sorted(self.performed.items())
            },
            "assigned": [
                {
                    "name": r.name,
                    "holders": sorted(r.holders),
                    "origin": r.origin,
                    "artifacts": list(r.artifacts),
                }
                for r in self.assigned
            ],
        }


class Peer:
    """Base protocol state machine. Subclasses override the hooks they use."""

    def __init__(self, pid: int):
        self.pid = pid

    def on_start(self, ctx: "PeerContext") -> None:
        pass

    def on_message(self, ctx: "PeerContext", sender: int, msg: Any) -> None:
        """Handle one delivery: ``msg`` is what the run's decoder made of the
        payload, every field its table lists parsed and well formed (a Helios
        or SPP ``ballot`` or ``bulletin`` alone may be None); a payload decoded
        to None never gets here, so a handler checks only what needs its state.
        Equal payload bytes in flight are decoded once and share the result, so
        ``msg`` is read-only: a handler may keep or re-send it but never change it."""

    def on_timer(self, ctx: "PeerContext", tag: str, data: Any) -> None:
        pass

    def on_idle(self, ctx: "PeerContext") -> None:
        pass


class PeerContext:
    """Capability handle a peer uses to act on the simulation."""

    def __init__(self, sim: "Simulator", pid: int):
        self._sim = sim
        self.pid = pid

    @property
    def now(self) -> int:
        return self._sim.now

    @property
    def rng(self) -> random.Random:
        return self._sim.peer_rng(self.pid)

    def send(self, dsts: Iterable[int], msg: dict, phase: str,
             payload: bytes | None = None) -> None:
        """Send ``msg`` to each peer of ``dsts`` in order, encoded once.
        ``payload``, when given, must be ``wire.dumps(msg)`` made earlier."""
        self._sim.send(self.pid, dsts, wire.dumps(msg) if payload is None else payload, phase)

    def log_action(self, phase: str, action: str,
                   consumes: tuple[str, ...] = (), detail: dict | None = None) -> None:
        self._sim.local_action(self.pid, phase, action, consumes, detail)

    def set_timer(self, delay: int, tag: str, data: Any = None) -> None:
        self._sim.set_timer(self.pid, delay, tag, data)

    def finish(self) -> None:
        """End this peer's part in the run: from now on the simulator hands
        it no deliveries, timers or idle calls. Messages sent to it are
        still traced as delivered."""
        self._sim.mark_finished(self.pid)


# Registry of named byzantine behaviors: name -> (factory, the peer class
# or classes it acts on). A factory receives the wrapped peer instance and
# returns the state machine to run in its place (it may return the same
# instance after reconfiguring it). Protocol modules register their
# behaviors at import time.
_BEHAVIORS: dict[str, tuple[Callable[[Peer], Peer], type | tuple[type, ...]]] = {}


def register_behavior(name: str, factory: Callable[[Peer], Peer],
                      acts_on: type | tuple[type, ...] = Peer) -> None:
    _BEHAVIORS[name] = (factory, acts_on)


class CrashAfterSteps(Peer):
    """Runs the inner machine for N activations (none if N = 0), then goes silent."""

    def __init__(self, inner: Peer, steps: int):
        super().__init__(inner.pid)
        self.inner = inner
        self.steps = steps
        self.done = 0

    def _spent(self) -> bool:
        if self.done >= self.steps:
            return True
        self.done += 1
        return False

    def on_start(self, ctx):
        if not self._spent():
            self.inner.on_start(ctx)

    def on_message(self, ctx, sender, msg):
        if not self._spent():
            self.inner.on_message(ctx, sender, msg)

    def on_timer(self, ctx, tag, data):
        if not self._spent():
            self.inner.on_timer(ctx, tag, data)

    def on_idle(self, ctx):
        if not self._spent():
            self.inner.on_idle(ctx)


class _FilteredContext(PeerContext):
    """Context that passes every outgoing payload through a send filter."""

    def __init__(self, ctx: PeerContext, f: Callable[[dict], dict | None]):
        super().__init__(ctx._sim, ctx.pid)
        self._ctx = ctx
        self._f = f

    def send(self, dsts, msg, phase, payload=None):
        # The filter sees the message, never a ready payload: what it returns
        # is encoded afresh. One filter call per destination, so a liar can
        # equivocate.
        for dst in dsts:
            out = self._f(msg)
            if out is not None:
                self._ctx.send((dst,), out, phase)


class SendFilter(Peer):
    """Wrapper passing every send of the inner peer through ``f``, which
    returns the message to send (possibly rewritten) or None to withhold it.
    The message ``f`` gets may be shared with other peers, so ``f`` rewrites
    a copy and never changes it."""

    def __init__(self, inner: Peer, f: Callable[[dict], dict | None]):
        super().__init__(inner.pid)
        self.inner = inner
        self.f = f

    def on_start(self, ctx):
        self.inner.on_start(_FilteredContext(ctx, self.f))

    def on_message(self, ctx, sender, msg):
        self.inner.on_message(_FilteredContext(ctx, self.f), sender, msg)

    def on_timer(self, ctx, tag, data):
        self.inner.on_timer(_FilteredContext(ctx, self.f), tag, data)

    def on_idle(self, ctx):
        self.inner.on_idle(_FilteredContext(ctx, self.f))


def crash_steps(name: str) -> int | None:
    """N for a behaviour named ``crash-after-step N`` (N >= 0; 0 is silent from
    the start), None for a name without that prefix. Any other name with the
    prefix, the bare ``crash-after-step`` too, is a ConfigError."""
    if not name.startswith("crash-after-step"):
        return None
    m = re.fullmatch(r"crash-after-step ([0-9]+)", name)
    if m is None:
        raise ConfigError(f"faults.byzantine: bad crash-after-step name {name!r}")
    return int(m[1])


def resolve_behavior(name: str, peer: Peer | None = None) -> Callable[[Peer], Peer]:
    """The factory of behaviour ``name``; given ``peer``, a behaviour
    registered for another class of peer is a ConfigError too."""
    steps = crash_steps(name)
    if steps is not None:
        return lambda inner: CrashAfterSteps(inner, steps)
    if name not in _BEHAVIORS:
        raise ConfigError(f"faults.byzantine: unknown behaviour {name!r}")
    factory, acts_on = _BEHAVIORS[name]
    if peer is not None and not isinstance(peer, acts_on):
        raise ConfigError(f"faults.byzantine: behaviour {name!r} does not act on "
                          f"peer {peer.pid} ({type(peer).__name__})")
    return factory


class Simulator:
    """Single-threaded deterministic event loop for one protocol run."""

    def __init__(self, faults: FaultModel, seed: int, params: dict | None = None,
                 decode: Callable[[bytes], Any] = json_object):
        self.faults = faults
        self._decode = decode
        self.seed = seed
        self.params = dict(params or {})
        self.now = 0
        self.events: list[Event] = []
        self.roles = RoleLog()
        self._peers: dict[int, Peer] = {}
        self._ctxs: dict[int, PeerContext] = {}
        # Tick -> queue entries in push order, and a heap of those ticks.
        self._buckets: dict[int, list[tuple]] = {}
        self._ticks: list[int] = []
        self._seq = 0
        self._send_seq = 0
        self._net_rng = random.Random(wire.derive_seed(seed, "net"))
        self._peer_rngs: dict[int, random.Random] = {}
        # Payload bytes -> [deliveries pending, what decode made of them or
        # _UNDECODED]: equal bytes in flight are decoded once and share the
        # result (see Peer.on_message); the entry goes with the last delivery.
        self._in_flight: dict[bytes, list] = {}
        # Digest -> the one copy of it that every event of this run carries:
        # a run has far fewer distinct payloads than events.
        self._digests: dict[str, str] = {}
        self._finished: set[int] = set()
        self._running = False
        self.quiescent = False

    # -- setup ---------------------------------------------------------

    def add_peer(self, peer: Peer) -> None:
        pid = peer.pid
        if pid in self._peers:
            raise ConfigError(f"duplicate peer id {pid}")
        behavior = self.faults.byzantine.get(pid)
        if behavior is not None:
            peer = resolve_behavior(behavior, peer)(peer)
        self._peers[pid] = peer
        self._ctxs[pid] = PeerContext(self, pid)

    def peer_rng(self, pid: int) -> random.Random:
        if pid not in self._peer_rngs:
            self._peer_rngs[pid] = random.Random(wire.derive_seed(self.seed, "peer", pid))
        return self._peer_rngs[pid]

    def is_crashed(self, pid: int) -> bool:
        return pid in self.faults.crashed

    # -- actions peers take --------------------------------------------

    def send(self, src: int, dsts: Iterable[int], payload: bytes, phase: str) -> None:
        """Send ``payload`` from ``src`` to each peer of ``dsts`` in order:
        per destination one send event, a delay and a delivery or drop."""
        if not self._running:
            raise ScenarioError("send outside of a running simulation")
        faults = self.faults
        crashed, lost, p = faults.crashed, faults.lose_messages, faults.drop_probability
        if src in crashed:
            raise ScenarioError(f"peer {src} is crashed and cannot send")
        if phase not in PHASES:
            raise ConfigError(f"unknown phase {phase!r}")
        now, size, events = self.now, len(payload), self.events
        max_delay, rng = faults.max_delay, self._net_rng
        bits = max_delay.bit_length()
        share = self._digests.setdefault
        delivered = 0
        for dst in dsts:
            d = wire.digest(payload)
            events.append((now, KIND_SEND, src, dst, phase, share(d, d), size))
            delay = 1
            if max_delay > 1:
                # randint(1, max_delay) as CPython draws it: same stream, no frames.
                delay = rng.getrandbits(bits)
                while delay >= max_delay:
                    delay = rng.getrandbits(bits)
                delay += 1
            dropped = dst in crashed or self._send_seq in lost
            self._send_seq += 1
            if not dropped and p > 0.0:
                dropped = p >= 1.0 or rng.random() < p
            if not dropped:
                delivered += 1
            entry = (KIND_DROP if dropped else KIND_DELIVER, src, dst, phase, payload)
            self._push(now + delay, entry)
        if delivered:
            self._in_flight.setdefault(payload, [0, _UNDECODED])[0] += delivered

    def local_action(self, pid: int, phase: str, action: str,
                     consumes: tuple[str, ...] = (), detail: dict | None = None) -> None:
        if phase not in PHASES:
            raise ConfigError(f"unknown phase {phase!r}")
        payload = wire.dumps({"action": action, **(detail or {})})
        d = wire.digest(payload)
        self.events.append((self.now, KIND_LOCAL, pid, None, phase,
                            self._digests.setdefault(d, d), len(payload)))
        self.roles.record(pid, PerformedAction(phase, action, tuple(consumes)))

    def set_timer(self, pid: int, delay: int, tag: str, data: Any = None) -> None:
        if delay < 1:
            raise ScenarioError("timer delay must be >= 1")
        self._push(self.now + delay, ("timer", pid, tag, data))

    def mark_finished(self, pid: int) -> None:
        self._finished.add(pid)

    @property
    def terminated(self) -> frozenset[int]:
        return frozenset(self._finished)

    # -- event loop ------------------------------------------------------

    def run_until_quiescent(self, max_ticks: int = MAX_TICKS) -> Trace:
        """Drain the event queue, giving idle rounds between bursts.

        Returns the trace; ``self.quiescent`` tells whether the run drained
        naturally or hit ``max_ticks`` (reported as incomplete, not an
        error). ``self.terminated`` holds the peers that finished their
        protocol.
        """
        self._running = True
        peers, ctxs, finished = self._peers, self._ctxs, self._finished
        buckets, ticks, events, in_flight = self._buckets, self._ticks, self.events, self._in_flight
        share = self._digests.setdefault
        for pid in sorted(peers):
            if not self.is_crashed(pid):
                peers[pid].on_start(ctxs[pid])
        while True:
            while ticks:
                t = heapq.heappop(ticks)
                if t > max_ticks:
                    self._running = False
                    self.quiescent = False
                    return self._trace()
                self.now = t
                for entry in buckets.pop(t):  # every delay is >= 1: nothing joins it now
                    kind = entry[0]
                    if kind == "timer":
                        _, pid, tag, data = entry
                        if pid not in finished and pid in peers:
                            peers[pid].on_timer(ctxs[pid], tag, data)
                        continue
                    _, src, dst, phase, payload = entry
                    d = wire.digest(payload)
                    events.append((t, kind, src, dst, phase, share(d, d), len(payload)))
                    if kind == KIND_DROP:
                        continue
                    slot = in_flight[payload]
                    slot[0] -= 1
                    if not slot[0]:
                        del in_flight[payload]
                    peer = None if dst in finished else peers.get(dst)
                    if peer is not None:
                        msg = slot[1]
                        if msg is _UNDECODED:
                            msg = slot[1] = self._decode(payload)
                        if msg is not None:  # recorded as delivered, but the peer is not called
                            peer.on_message(ctxs[dst], src, msg)
            # Queue drained: offer every live peer one idle activation. If
            # nobody schedules anything new, the run is quiescent.
            before = self._seq
            for pid in sorted(peers):
                if not self.is_crashed(pid) and pid not in finished:
                    peers[pid].on_idle(ctxs[pid])
            if self._seq == before:
                break
        self._running = False
        self.quiescent = True
        return self._trace()

    # -- internals -------------------------------------------------------

    def _push(self, time: int, entry: tuple) -> None:
        """Queue ``entry`` at tick ``time``, after those queued there before."""
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [entry]
            heapq.heappush(self._ticks, time)
        else:
            bucket.append(entry)
        self._seq += 1

    def _trace(self) -> Trace:
        # The records, not copies: run_election drops the simulator after the run.
        return Trace(self.events, self.params)


@dataclass
class Outcome:
    """Result of one election, in the same shape for every protocol.

    ``tallies`` holds the result each voter accepted (None when it did not
    finish) and ``completion`` the share of live voters that finished.
    ``details`` holds the protocol's own fields; ``to_obj`` merges them
    into the top level, rendering sets as sorted lists.
    """

    protocol: str
    tallies: dict[int, tuple[int, ...] | None]
    completion: float
    roles: RoleLog
    details: dict[str, Any] = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj = {
            "protocol": self.protocol,
            "completion": self.completion,
            "tallies": {
                str(p): (list(t) if t is not None else None)
                for p, t in sorted(self.tallies.items())
            },
            "roles": self.roles.to_obj(),
        }
        for key, value in self.details.items():
            obj[key] = sorted(value) if isinstance(value, (set, frozenset)) else value
        return obj


def run_election(protocol: str, params: Any, choices: list[int], faults: FaultModel,
                 seed: int, voter: Callable[[int, int], Peer],
                 details: Callable[[list], dict] = lambda voters: {}, *,
                 overlay: dict | None = None,
                 others: tuple[Peer, ...] = (),
                 roles: tuple[tuple, ...] = (),
                 decode: Callable[[bytes], Any]) -> tuple[Outcome, Trace]:
    """Run one election and collect its outcome.

    ``params`` is the protocol's parameter dataclass; its ``n`` and ``d``
    size the election and its fields join the trace's scenario echo.
    ``voter(pid, choice)`` builds voter ``pid`` for every pid in
    ``range(n)``; each voter exposes the ``tally`` it accepted. ``overlay``
    joins the echo for the classifier, which reads only cluster overlays
    (``Overlay.to_obj()``). ``others`` are non-voter peers and ``roles``
    are ``RoleLog.assign`` argument tuples; ``decode`` is the protocol's
    payload decoder, built by ``wire.decoder``: a payload it decodes to None
    is refused, traced as delivered but handed to no peer. ``details(voters)``
    runs after the simulation and returns the outcome's protocol-specific
    fields. Completion counts live voters only. A crashed or byzantine id
    that names no peer is a ``ConfigError``, as is any breach of
    ``check_election``. The simulator is freed when this returns, without
    waiting for the cycle collector.
    """
    n = params.n
    check_election(n, params.d, choices)
    sim = Simulator(faults, seed, params={
        "protocol": protocol, **asdict(params), "seed": seed, "choices": list(choices),
        "faults": faults.to_obj(), "overlay": overlay,
    }, decode=decode)
    sim.roles.voters = frozenset(range(n))
    for role in roles:
        sim.roles.assign(*role)
    voters = [voter(pid, choice) for pid, choice in enumerate(choices)]
    for peer in [*voters, *others]:
        sim.add_peer(peer)
    for name, pids in (("crashed", faults.crashed), ("byzantine", faults.byzantine)):
        stray = sorted(set(pids).difference(sim._peers))
        if stray:
            raise ConfigError(f"faults.{name}: peer {stray[0]} is not in this election")
    trace = sim.run_until_quiescent()
    sim._ctxs.clear()  # each context refers back to sim: break the cycle
    tallies = {v.pid: v.tally for v in voters}
    live = faults.live(range(n))
    completion = sum(1 for pid in live if tallies[pid] is not None) / max(len(live), 1)
    return Outcome(protocol, tallies, completion, sim.roles, details(voters)), trace
