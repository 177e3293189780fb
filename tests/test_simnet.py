import pytest

from votesim.simnet import (
    ConfigError,
    FaultModel,
    Peer,
    PHASE_CASTING,
    ScenarioError,
    SendFilter,
    Simulator,
)


class Pinger(Peer):
    """Sends one message to a fixed peer on start."""

    def __init__(self, pid, to):
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
    return [e.kind for e in trace.events]


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
    for e in trace.events:
        if e.kind == "send":
            sends.setdefault(e.digest, []).append(e.time)
    for e in trace.events:
        if e.kind == "deliver":
            assert any(t < e.time for t in sends[e.digest])
    n_send = kinds(trace).count("send")
    n_del = kinds(trace).count("deliver")
    n_drop = kinds(trace).count("drop")
    assert n_send == n_del + n_drop  # nothing pending after quiescence


def test_times_non_decreasing():
    _, _, _, trace = run_pair(FaultModel(max_delay=7), seed=3)
    times = [e.time for e in trace.events]
    assert times == sorted(times)


def test_zero_peers_quiescent_empty_trace():
    sim = Simulator(FaultModel(), 1)
    trace = sim.run_until_quiescent()
    assert trace.events == []
    assert sim.quiescent


def test_single_peer_local_actions_only():
    class Soloist(Peer):
        def on_start(self, ctx):
            ctx.log_action(PHASE_CASTING, "cast")
            ctx.finish()

    sim = Simulator(FaultModel(), 1)
    sim.add_peer(Soloist(0))
    trace = sim.run_until_quiescent()
    assert [e.kind for e in trace.events] == ["local-action"]
    assert sim.terminated == {0}


def test_crashed_peer_never_sends_and_never_receives():
    sim, a, b, trace = run_pair(FaultModel(crashed=frozenset({1})))
    froms = {e.src for e in trace.events if e.kind == "send"}
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
        sim.send(0, 1, b"x", PHASE_CASTING)


def test_crash_after_step_zero_emits_nothing():
    sim = Simulator(FaultModel(byzantine={0: "crash-after-step 0"}), 1)
    sim.add_peer(Pinger(0, 1))
    sim.add_peer(Pinger(1, 0))
    trace = sim.run_until_quiescent()
    assert {e.src for e in trace.events if e.kind == "send"} == {1}


def test_unknown_behavior_rejected():
    with pytest.raises(ConfigError):
        Simulator(FaultModel(byzantine={0: "no-such-behavior"}), 1).add_peer(Pinger(0, 1))


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
    import json

    lines = [json.loads(l) for l in trace.to_jsonl().splitlines()]
    for obj in lines:
        assert set(obj) == {"time", "kind", "from", "to", "phase", "digest", "size"}
        assert len(obj["digest"]) == 64


def test_max_ticks_reports_incomplete():
    class Echo(Peer):
        def on_message(self, ctx, sender, msg):
            ctx.send(sender, msg, PHASE_CASTING)

        def on_start(self, ctx):
            if ctx.pid == 0:
                ctx.send(1, {"x": 1}, PHASE_CASTING)

    sim = Simulator(FaultModel(), 1)
    sim.add_peer(Echo(0))
    sim.add_peer(Echo(1))
    sim.run_until_quiescent(max_ticks=50)
    assert not sim.quiescent
