import gc
import heapq
import itertools
import json
import random
import tracemalloc
import weakref

import pytest
from conftest import Event, events
from hypothesis import example, given, settings, strategies as st

from votesim import scenarios, simnet, wire
from votesim.baselines import HeliosHub
from votesim.dpol import DpolParams, run_dpol
from votesim.simnet import (
    ConfigError,
    FaultModel,
    KIND_DELIVER,
    KIND_DROP,
    KIND_LOCAL,
    KIND_SEND,
    MAX_TICKS,
    Peer,
    PHASE_CASTING,
    PHASES,
    ScenarioError,
    SendFilter,
    Simulator,
    Trace,
    crash_steps,
)


class Pinger(Peer):
    """Sends one message to a fixed list of peers on start."""

    def __init__(self, pid, *to):
        super().__init__(pid)
        self.to = to
        self.got = []

    def on_start(self, ctx):
        ctx.send(self.to, {"ping": self.pid}, PHASE_CASTING)

    def on_message(self, ctx, sender, msg):
        self.got.append((sender, msg))


def run_pair(faults, seed=1):
    sim = Simulator(faults, seed)
    a, b = Pinger(0, 1), Pinger(1, 0)
    sim.add_peer(a)
    sim.add_peer(b)
    trace = sim.run_until_quiescent()
    return sim, a, b, trace


def kinds(trace):
    return [e.kind for e in events(trace)]


def test_no_faults_exactly_one_deliver_per_send():
    _, a, b, trace = run_pair(FaultModel())
    assert kinds(trace).count("send") == 2
    assert kinds(trace).count("deliver") == 2
    assert kinds(trace).count("drop") == 0
    assert b.got == [(0, {"ping": 0})]


def test_payload_that_is_not_a_json_object_is_not_handed_to_the_peer():
    sim = Simulator(FaultModel(), 1)
    a, b = Pinger(0, 1), Pinger(1, 0)
    sim.add_peer(SendFilter(a, lambda msg: [msg]))
    sim.add_peer(b)
    trace = sim.run_until_quiescent()
    assert kinds(trace).count("deliver") == 2
    assert b.got == []
    assert a.got == [(1, {"ping": 1})]


def test_total_loss_drops_everything():
    _, a, b, trace = run_pair(FaultModel(drop_probability=1.0))
    assert kinds(trace).count("deliver") == 0
    assert kinds(trace).count("drop") == 2
    assert b.got == []


def test_same_seed_identical_traces():
    traces = [run_pair(FaultModel(drop_probability=0.5, max_delay=5), seed=42)[3]
              for _ in range(2)]
    assert traces[0].to_jsonl() == traces[1].to_jsonl()


def test_causality_and_conservation():
    sim, *_, trace = run_pair(FaultModel(drop_probability=0.3, max_delay=4), seed=9)
    sends = {}
    for e in events(trace):
        if e.kind == "send":
            sends.setdefault(e.digest, []).append(e.time)
    for e in events(trace):
        if e.kind == "deliver":
            assert any(t < e.time for t in sends[e.digest])
    n_send = kinds(trace).count("send")
    n_del = kinds(trace).count("deliver")
    n_drop = kinds(trace).count("drop")
    assert n_send == n_del + n_drop  # nothing pending after quiescence


def test_times_non_decreasing():
    _, _, _, trace = run_pair(FaultModel(max_delay=7), seed=3)
    times = [e.time for e in events(trace)]
    assert times == sorted(times)


def test_zero_peers_quiescent_empty_trace():
    sim = Simulator(FaultModel(), 1)
    trace = sim.run_until_quiescent()
    assert trace.events == []
    assert sim.quiescent


class Soloist(Peer):
    def on_start(self, ctx):
        ctx.log_action(PHASE_CASTING, "cast")
        ctx.finish()


def test_single_peer_local_actions_only():
    sim = Simulator(FaultModel(), 1)
    sim.add_peer(Soloist(0))
    trace = sim.run_until_quiescent()
    assert [e.kind for e in events(trace)] == ["local-action"]
    assert sim.terminated == {0}


def test_local_action_in_unknown_phase_is_config_error():
    class Typo(Peer):
        def on_start(self, ctx):
            ctx.log_action("castng", "cast")

    sim = Simulator(FaultModel(), 1)
    sim.add_peer(Typo(0))
    with pytest.raises(ConfigError):
        sim.run_until_quiescent()


def test_crashed_peer_never_sends_and_never_receives():
    sim, a, b, trace = run_pair(FaultModel(crashed=frozenset({1})))
    froms = {e.src for e in events(trace) if e.kind == "send"}
    assert froms == {0}
    # the message to the crashed peer becomes a drop
    assert kinds(trace).count("drop") == 1
    assert b.got == []


def test_sending_from_crashed_peer_is_scenario_error():
    sim = Simulator(FaultModel(crashed=frozenset({0})), 1)
    sim.add_peer(Pinger(0, 1))
    sim.add_peer(Pinger(1, 0))
    sim._running = True
    with pytest.raises(ScenarioError):
        sim.send(0, (1,), b"x", PHASE_CASTING)


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_crash_after_step_runs_that_many_activations(steps):
    # Peer 0's activations are its start (the ping) and then peer 1's ping.
    sim = Simulator(FaultModel(byzantine={0: f"crash-after-step {steps}"}), 1)
    a = Pinger(0, 1)
    sim.add_peer(a)
    sim.add_peer(Pinger(1, 0))
    trace = sim.run_until_quiescent()
    assert {e.src for e in events(trace) if e.kind == "send"} == ({1} if steps == 0 else {0, 1})
    assert a.got == ([(1, {"ping": 1})] if steps == 2 else [])


class Timed(Peer):
    """Sets a timer on start and another in its first idle round; logs
    every activation it is handed."""

    def __init__(self, pid):
        super().__init__(pid)
        self.log = []

    def on_start(self, ctx):
        self.log.append("start")
        ctx.set_timer(1, "a")

    def on_timer(self, ctx, tag, data):
        self.log.append(tag)

    def on_idle(self, ctx):
        self.log.append("idle")
        if self.log.count("idle") == 1:
            ctx.set_timer(1, "b")


@pytest.mark.parametrize("steps", range(6))
def test_crash_after_step_counts_timers_and_idle_rounds(steps):
    # Unwrapped, the peer is handed start, a, idle, b, idle. A crashed peer
    # sets no timer, so under crash-after-step N it sees the first N of them.
    sim = Simulator(FaultModel(byzantine={0: f"crash-after-step {steps}"}), 1)
    peer = Timed(0)
    sim.add_peer(peer)
    sim.run_until_quiescent()
    assert sim.quiescent
    assert peer.log == ["start", "a", "idle", "b", "idle"][:steps]


@pytest.mark.parametrize("name, steps", [
    ("crash-after-step 0", 0), ("crash-after-step 12", 12), ("dpol:lying-sum", None),
])
def test_crash_steps_reads_exact_names(name, steps):
    assert crash_steps(name) == steps


def test_unknown_behavior_rejected():
    with pytest.raises(ConfigError):
        Simulator(FaultModel(byzantine={0: "no-such-behavior"}), 1).add_peer(Pinger(0, 1))


class Quitter(Peer):
    """Sets a timer, then finishes on the first message it receives."""

    def __init__(self, pid):
        super().__init__(pid)
        self.inputs = []

    def on_start(self, ctx):
        ctx.set_timer(5, "late")

    def on_message(self, ctx, sender, msg):
        self.inputs.append(msg)
        ctx.finish()

    def on_timer(self, ctx, tag, data):
        self.inputs.append(tag)


def test_finished_peer_takes_no_more_input():
    sim = Simulator(FaultModel(), 1)
    quitter = Quitter(1)
    sim.add_peer(Pinger(0, 1, 1, 1))
    sim.add_peer(quitter)
    trace = sim.run_until_quiescent()
    assert quitter.inputs == [{"ping": 0}]
    assert [(e.kind, e.dst) for e in events(trace) if e.kind != "send"] == [("deliver", 1)] * 3
    assert sim.terminated == {1}


def test_timer_drives_later_action():
    class Delayed(Peer):
        def __init__(self, pid):
            super().__init__(pid)
            self.fired_at = None

        def on_start(self, ctx):
            ctx.set_timer(10, "wake")

        def on_timer(self, ctx, tag, data):
            self.fired_at = ctx.now
            ctx.finish()

    sim = Simulator(FaultModel(), 1)
    p = Delayed(0)
    sim.add_peer(p)
    sim.run_until_quiescent()
    assert p.fired_at == 10


def test_targeted_message_loss():
    _, a, b, trace = run_pair(FaultModel(lose_messages=frozenset({0})))
    # first send dropped, second delivered
    assert kinds(trace).count("drop") == 1
    assert kinds(trace).count("deliver") == 1


def test_trace_jsonl_fields():
    _, _, _, trace = run_pair(FaultModel())
    lines = [json.loads(l) for l in trace.to_jsonl().splitlines()]
    for obj in lines:
        assert set(obj) == {"time", "kind", "from", "to", "phase", "digest", "size"}
        assert len(obj["digest"]) == 64
    sim = Simulator(FaultModel(), 1)
    sim.add_peer(Soloist(0))
    (local,) = [json.loads(l) for l in sim.run_until_quiescent().to_jsonl().splitlines()]
    assert local["kind"] == "local-action"
    assert set(local) == {"time", "kind", "from", "phase", "digest", "size"}


def reference_to_obj(e: Event) -> dict:
    """A trace event as the dict whose ``wire.dumps`` encoding
    ``Trace.to_jsonl`` must reproduce."""
    obj = {"time": e.time, "kind": e.kind, "from": e.src}
    if e.dst is not None:
        obj["to"] = e.dst
    obj["phase"] = e.phase
    obj["digest"] = e.digest
    obj["size"] = e.size
    return obj


# Trace ints below len(simnet._DECIMALS) are read from that table and the
# others formatted: draw small ints, both edges, negatives (which must not
# index the table from its end) and large ones.
_TABLE = len(simnet._DECIMALS)
_INTS = (st.integers(-2, _TABLE + 1) | st.sampled_from([-_TABLE - 1, -_TABLE, _TABLE - 1])
         | st.integers(-2**63, 2**63))
_EVENTS = st.tuples(
    _INTS,
    st.sampled_from([KIND_SEND, KIND_DELIVER, KIND_DROP, KIND_LOCAL]),
    _INTS,
    st.none() | _INTS,
    st.sampled_from(PHASES),
    st.binary(max_size=8).map(wire.digest),
    _INTS,
)


@settings(max_examples=300)
@given(st.lists(_EVENTS, max_size=4))
@example([(0, KIND_LOCAL, 1, None, PHASE_CASTING, wire.digest(b""), 0),
          (1, KIND_SEND, 1, 2, PHASE_CASTING, wire.digest(b"x"), 1)])
@example([(_TABLE - 1, KIND_SEND, _TABLE - 1, _TABLE - 1, PHASE_CASTING, wire.digest(b""),
           _TABLE - 1)])
@example([(_TABLE, KIND_DELIVER, _TABLE, _TABLE, PHASE_CASTING, wire.digest(b""), _TABLE)])
@example([(-1, KIND_DROP, -1, -1, PHASE_CASTING, wire.digest(b""), -1),
          (-_TABLE, KIND_LOCAL, -_TABLE, None, PHASE_CASTING, wire.digest(b""), -_TABLE)])
def test_to_jsonl_matches_wire_dumps(evs):
    trace = Trace(evs, params={})
    assert trace.to_jsonl() == "".join(
        wire.dumps(reference_to_obj(e)).decode() + "\n" for e in events(trace))


def fan_out(faults, sender):
    """Run ``sender`` as peer 0 beside silent receivers 1, 2 and 3."""
    sim = Simulator(faults, 1)
    receivers = [Pinger(pid) for pid in (1, 2, 3)]
    for peer in [sender, *receivers]:
        sim.add_peer(peer)
    return receivers, sim.run_until_quiescent()


def test_filter_runs_once_per_destination_of_a_fan_out():
    counter = itertools.count()
    sender = SendFilter(Pinger(0, 1, 2, 3), lambda msg: {"n": next(counter)})
    receivers, _ = fan_out(FaultModel(), sender)
    assert [r.got for r in receivers] == [[(0, {"n": 0})], [(0, {"n": 1})], [(0, {"n": 2})]]


def test_targeted_loss_hits_one_destination_of_a_fan_out():
    receivers, trace = fan_out(FaultModel(lose_messages=frozenset({1})), Pinger(0, 1, 2, 3))
    assert [(e.kind, e.dst) for e in events(trace) if e.kind != "send"] == [
        ("deliver", 1), ("drop", 2), ("deliver", 3)]
    assert [len(r.got) for r in receivers] == [1, 0, 1]


def test_send_to_nobody_records_nothing():
    _, trace = fan_out(FaultModel(), Pinger(0))
    assert trace.events == []


class Acker(Pinger):
    """A receiver that logs one local action per message it gets."""

    def on_message(self, ctx, sender, msg):
        super().on_message(ctx, sender, msg)
        ctx.log_action(PHASE_CASTING, "got-ping")


def test_events_share_one_digest_string_per_payload(monkeypatch):
    calls = []
    digest = wire.digest

    def counting(payload):
        calls.append(payload)
        return digest(payload)

    monkeypatch.setattr(wire, "digest", counting)
    sim = Simulator(FaultModel(), 1)
    for peer in [Pinger(0, 1, 2, 3), Acker(1), Acker(2), Acker(3)]:
        sim.add_peer(peer)
    evs = events(sim.run_until_quiescent())
    assert sorted(e.kind for e in evs) == ["deliver"] * 3 + ["local-action"] * 3 + ["send"] * 3
    by_value: dict[str, set[int]] = {}
    for e in evs:
        by_value.setdefault(e.digest, set()).add(id(e.digest))
    assert len(by_value) == 2
    assert all(len(ids) == 1 for ids in by_value.values())
    assert len(calls) == len(evs)  # still one wire.digest call per event


def test_no_memory_outlives_a_run():
    # Digests are shared per run, never interned or kept at module level.
    def run(seed):
        run_dpol(DpolParams(256, 1, 2), [0, 1] * 128, FaultModel(max_delay=3), seed=seed)

    run(0)  # warm-up: first-call caches are not what this test is after
    gc.collect()
    tracemalloc.start()
    try:
        for seed in (1, 2, 3):
            run(seed)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 32 * 1024


def test_max_ticks_reports_incomplete():
    class Echo(Peer):
        def on_message(self, ctx, sender, msg):
            ctx.send((sender,), msg, PHASE_CASTING)

        def on_start(self, ctx):
            if ctx.pid == 0:
                ctx.send((1,), {"x": 1}, PHASE_CASTING)

    sim = Simulator(FaultModel(), 1)
    sim.add_peer(Echo(0))
    sim.add_peer(Echo(1))
    sim.run_until_quiescent(max_ticks=50)
    assert not sim.quiescent


class Mutator(Pinger):
    """Breaks the read-only rule for received messages."""

    def on_message(self, ctx, sender, msg):
        msg["seen"] = True


@pytest.fixture
def decoded(monkeypatch):
    """(payload, object) for every payload the simulator decodes."""
    seen, loads = [], wire.loads

    def recording_loads(payload):
        seen.append((payload, loads(payload)))
        return seen[-1][1]

    monkeypatch.setattr(wire, "loads", recording_loads)
    return seen


def all_intact(decoded) -> bool:
    """Every decoded object still equals a fresh decoding of its payload."""
    return bool(decoded) and all(msg == json.loads(payload) for payload, msg in decoded)


def test_equal_payloads_in_flight_are_decoded_once_and_shared(decoded):
    sim = Simulator(FaultModel(), 1)
    a, b = Pinger(1), Pinger(2)
    for peer in (Pinger(0, 1, 2, 1), a, b):
        sim.add_peer(peer)
    sim.run_until_quiescent()
    assert a.got == [(0, {"ping": 0})] * 2 and b.got == [(0, {"ping": 0})]
    assert a.got[0][1] is a.got[1][1] is b.got[0][1]
    assert [payload for payload, _ in decoded] == [b'{"ping":0}']
    assert sim._in_flight == {}


def test_decoder_runs_once_per_payload_in_flight_and_none_is_not_handed_over():
    calls = []

    def decode(payload):
        calls.append(payload)
        return None if payload == b'{"ping":0}' else json.loads(payload)

    sim = Simulator(FaultModel(), 1, decode=decode)
    origin, a, b = Pinger(0, 1, 2, 1), Pinger(1, 0), Pinger(2)
    for peer in (origin, a, b):
        sim.add_peer(peer)
    trace = sim.run_until_quiescent()
    assert kinds(trace).count("deliver") == 4
    # Three deliveries of one payload decode it once, to None, and no peer
    # is handed it; the other payload reaches its peer.
    assert calls == [b'{"ping":0}', b'{"ping":1}']
    assert a.got == b.got == [] and origin.got == [(1, {"ping": 1})]
    assert sim._in_flight == {}


def test_mutating_handler_is_caught(decoded):
    sim = Simulator(FaultModel(), 1)
    sim.add_peer(Pinger(0, 1))
    sim.add_peer(Mutator(1))
    sim.run_until_quiescent()
    assert not all_intact(decoded)


def _package_behaviours() -> list[tuple[str, str]]:
    """(protocol, behaviour) for every behaviour the package registers."""
    protocol_of = {"chain": "chainvote", "dpol": "dpol", "helios": "helios", "spp": "spp"}
    return [(protocol_of[name.split(":")[0]], name) for name in sorted(simnet._BEHAVIORS)
            if name.split(":")[0] in protocol_of]


READ_ONLY_RUNS = [(p, None) for p in sorted(scenarios.RUNNERS)] + _package_behaviours()


@pytest.mark.parametrize("protocol, behaviour", READ_ONLY_RUNS)
def test_no_handler_changes_a_received_message(decoded, protocol, behaviour):
    sc = scenarios.canonical_scenario(protocol, seed=1)
    if behaviour is not None:
        # Each behaviour on every class of peer it acts on: a hub-only one on
        # the Helios hub, every other one on every third voter.
        if simnet._BEHAVIORS[behaviour][1] is HeliosHub:
            liars = [sc.n]
        else:
            liars = range(0, sc.n, 3)
        sc.faults = FaultModel(max_delay=3, byzantine=dict.fromkeys(liars, behaviour))
    scenarios.run(sc)
    assert all_intact(decoded)


@pytest.mark.parametrize("protocol", scenarios.PROTOCOLS)
def test_finished_election_is_freed_without_the_cycle_collector(monkeypatch, protocol):
    sims = []

    class Recorded(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(weakref.ref(self))

    monkeypatch.setattr(simnet, "Simulator", Recorded)
    sc = scenarios.canonical_scenario(protocol, 1)
    gc.disable()
    try:
        scenarios.run(sc)
        assert len(sims) == 1
        assert sims[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("protocol, behaviour, peer", [
    ("spp", "dpol:lying-sum", "SppVoter"),
    ("dpol", "chain:double-spend", "DpolVoter"),
    ("chainvote", "helios:tamper-bulletin", "ChainVoter"),
])
def test_behaviour_of_another_protocol_is_refused(monkeypatch, protocol, behaviour, peer):
    sends = []
    monkeypatch.setattr(Simulator, "send", lambda self, *args: sends.append(args))
    sc = scenarios.canonical_scenario(protocol, 1)
    sc.faults = FaultModel(byzantine={0: behaviour})
    with pytest.raises(ConfigError, match=rf"^faults\.byzantine: behaviour '{behaviour}'"
                                          rf" does not act on peer 0 \({peer}\)$"):
        scenarios.run(sc)
    assert sends == []  # refused before any message


class Scripted(Peer):
    """Takes the next step of a script shared by all peers on every
    activation: a send to a list of peers or a timer. Logs what it is
    handed and the timers it sets."""

    def __init__(self, pid, script, log):
        super().__init__(pid)
        self.script, self.log = script, log

    def _step(self, ctx):
        step = next(self.script, None)
        if step is None:
            return
        n = len(self.log)  # makes every payload and tag unique
        if step[0] == "timer":
            self.log.append(("set", ctx.now + step[1], ("timer", self.pid, f"t{n}")))
            ctx.set_timer(step[1], f"t{n}")
        else:
            ctx.send(step[1], {"n": n}, PHASE_CASTING)

    def on_start(self, ctx):
        self._step(ctx)

    def on_message(self, ctx, sender, msg):
        self._step(ctx)

    def on_timer(self, ctx, tag, data):
        self.log.append(("dispatch", ctx.now, ("timer", self.pid, tag)))
        self._step(ctx)

    def on_idle(self, ctx):
        self.log.append(("idle", ctx.now, self.pid))
        self._step(ctx)


class LoggedEvents(list):
    """A trace list that also logs each event where it happens."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def append(self, e):
        self.log.append(("event", e[0], Event._make(e)))
        super().append(e)


_STEPS = st.lists(st.one_of(
    st.tuples(st.just("send"), st.lists(st.integers(0, 4), max_size=4)),
    st.tuples(st.just("timer"), st.integers(1, 6)),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), crashed=st.frozensets(st.integers(0, 4), max_size=2),
       max_delay=st.integers(1, 6), p=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       lost=st.frozensets(st.integers(0, 40), max_size=5), steps=_STEPS,
       max_ticks=st.integers(1, 30) | st.just(MAX_TICKS), seed=st.integers(0, 2**32))
def test_dispatch_order_is_time_then_push_order(n, crashed, max_delay, p, lost, steps,
                                                max_ticks, seed):
    """Replays the run on a (time, push-seq) heap, drawing each delay and
    drop as randint(1, max_delay) and random() < p from the network seed:
    every delivery, drop and timer must come off the heap in the order
    the simulator dispatched it, and an idle round must start only when
    the heap is empty."""
    faults = FaultModel(crashed=crashed, drop_probability=p, max_delay=max_delay,
                        lose_messages=lost)
    sim, log, script = Simulator(faults, seed), [], iter(steps)
    sim.events = LoggedEvents(log)
    for pid in range(n):
        sim.add_peer(Scripted(pid, script, log))
    trace = sim.run_until_quiescent(max_ticks)

    rng = random.Random(wire.derive_seed(seed, "net"))
    heap, pushes, sends, idle_round = [], itertools.count(), itertools.count(), False
    for what, time, item in log:
        if what == "event" and item.kind == KIND_SEND:
            delay = 1 if max_delay == 1 else rng.randint(1, max_delay)
            msg_id = next(sends)
            dropped = item.dst in crashed or msg_id in lost
            if not dropped and p > 0.0:
                dropped = p >= 1.0 or rng.random() < p
            key = (KIND_DROP if dropped else KIND_DELIVER, item.src, item.dst, item.digest)
            heapq.heappush(heap, (time + delay, next(pushes), key))
        elif what == "set":
            heapq.heappush(heap, (time, next(pushes), item))
        elif what == "idle":
            # A round of idle calls starts only once everything queued is dispatched.
            assert heap == [] or idle_round
            idle_round = True
        else:
            idle_round = False
            if what == "event":
                time, item = item.time, (item.kind, item.src, item.dst, item.digest)
            t, _, key = heapq.heappop(heap)
            assert (t, key) == (time, item) and t <= max_ticks
    assert trace.events == list(sim.events)
    if sim.quiescent:
        # The last idle round offered every live peer a turn and queued nothing.
        live = [pid for pid in range(n) if pid not in crashed]
        assert heap == [] and sim._in_flight == {}
        assert [entry[2] for entry in log[len(log) - len(live):]] == live
    else:
        assert min(heap)[0] > max_ticks


@settings(max_examples=300)
@given(seed=st.integers(0, 2**63), max_delay=st.integers(2, 17))
def test_delay_draw_is_randint(seed, max_delay):
    """A fan-out draws its delays as random.Random.randint(1, max_delay)
    would, and leaves the network stream where randint leaves it."""
    sim = Simulator(FaultModel(max_delay=max_delay), seed)
    sim.add_peer(Pinger(0, *range(1, 25)))
    trace = sim.run_until_quiescent()
    sent = {e.dst: e.time for e in events(trace) if e.kind == KIND_SEND}
    delays = [e.time - sent[e.dst]
              for e in sorted((e for e in events(trace) if e.kind == KIND_DELIVER),
                              key=lambda e: e.dst)]
    reference = random.Random(wire.derive_seed(seed, "net"))
    assert delays == [reference.randint(1, max_delay) for _ in range(24)]
    assert sim._net_rng.random() == reference.random()
