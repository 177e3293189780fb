import pytest

from votesim.overlay import (
    OverlayError,
    assign_recipients,
    build_gossip_mesh,
    build_ring_clusters,
    build_tree_clusters,
)


def test_ring_9_gives_3_clusters_of_3():
    ov = build_ring_clusters(9, seed=1)
    assert len(ov.clusters) == 3
    assert all(len(c) == 3 for c in ov.clusters)
    assert sorted(p for c in ov.clusters for p in c) == list(range(9))


def test_ring_rejects_non_square():
    with pytest.raises(OverlayError, match="perfect square"):
        build_ring_clusters(10, seed=1)


def test_ring_seed_changes_assignment_not_shape():
    a = build_ring_clusters(16, seed=1)
    b = build_ring_clusters(16, seed=2)
    assert len(a.clusters) == len(b.clusters) == 4
    assert a.clusters != b.clusters


def test_ring_closure_visits_all_clusters():
    ov = build_ring_clusters(25, seed=3)
    seen = []
    ci = 0
    for _ in range(len(ov.clusters)):
        seen.append(ci)
        ci = ov.successor(ci)
    assert ci == 0
    assert sorted(seen) == list(range(5))


def test_recipients_balanced_in_and_out():
    ov = build_ring_clusters(9, seed=1)
    rmap = assign_recipients(ov, k=1, seed=5)
    for pid in range(9):
        assert len(rmap.recipients[pid]) == 3
        assert len(set(rmap.recipients[pid])) == 3
        assert len(rmap.senders[pid]) == 3
    # every recipient lies in the sender's successor cluster
    for pid in range(9):
        succ = ov.successor(ov.cluster_of(pid))
        assert all(ov.cluster_of(r) == succ for r in rmap.recipients[pid])


def test_recipients_capacity_bound():
    ov = build_ring_clusters(9, seed=1)
    with pytest.raises(OverlayError):
        assign_recipients(ov, k=4, seed=1)  # 2*4+1 = 9 > 3


def test_recipients_indegree_exactly_3_for_n16():
    ov = build_ring_clusters(16, seed=2)
    rmap = assign_recipients(ov, k=1, seed=2)
    indeg = {pid: 0 for pid in range(16)}
    for pid, outs in rmap.recipients.items():
        for o in outs:
            indeg[o] += 1
    assert all(v == 3 for v in indeg.values())


def test_tree_28_by_4_is_depth_2():
    ov = build_tree_clusters(28, 4, seed=1)
    assert len(ov.clusters) == 7
    assert ov.parent(0) is None
    assert ov.children(0) == (1, 2)
    assert ov.children(3) == ()
    depth = {0: 0}
    for ci in range(1, 7):
        depth[ci] = depth[ov.parent(ci)] + 1
    assert max(depth.values()) == 2


def test_tree_two_clusters():
    ov = build_tree_clusters(8, 4, seed=1)
    assert len(ov.clusters) == 2
    assert ov.children(0) == (1,)


def test_tree_rejects_indivisible():
    with pytest.raises(OverlayError, match="divisible"):
        build_tree_clusters(30, 4, seed=1)


def test_mesh_k4_complete():
    ov = build_gossip_mesh(4, 3, seed=1)
    assert len(ov.links) == 6
    for pid in range(4):
        assert len(ov.neighbors(pid)) == 3


def test_mesh_64_connected_min_degree():
    ov = build_gossip_mesh(64, 4, seed=7)
    deg = {pid: len(ov.neighbors(pid)) for pid in range(64)}
    assert min(deg.values()) >= 4
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in ov.neighbors(u):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert len(seen) == 64


def test_mesh_degree_must_be_less_than_n():
    with pytest.raises(OverlayError):
        build_gossip_mesh(2, 2, seed=1)


def test_every_overlay_partitions_peers():
    for ov in (
        build_ring_clusters(16, 3),
        build_tree_clusters(12, 4, 3),
        build_gossip_mesh(10, 3, 3),
    ):
        assert sorted(p for c in ov.clusters for p in c) == list(range(ov.n))


def test_overlay_json_roundtrippable():
    import json

    ov = build_ring_clusters(9, seed=1)
    obj = json.loads(json.dumps(ov.to_obj()))
    assert obj["kind"] == "ring-clusters"
    assert len(obj["clusters"]) == 3
