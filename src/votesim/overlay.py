"""Communication structures the protocols run on.

Three kinds: a ring of equal clusters, a binary tree of equal clusters,
and a connected gossip mesh. Construction is purely functional and
seeded; the same (n, seed) always yields the same overlay.
Each builder owns its shape rules and raises an OverlayError, a
ConfigError naming the field, when they fail.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from . import wire
from .simnet import ConfigError

RING_CLUSTERS = "ring-clusters"
TREE_CLUSTERS = "tree-clusters"
GOSSIP_MESH = "gossip-mesh"


class OverlayError(ConfigError):
    """An overlay shape rule failed."""


@dataclass(frozen=True)
class Overlay:
    kind: str
    n: int
    clusters: tuple[tuple[int, ...], ...]
    # Adjacency: (i, j) pairs over cluster indices for clustered kinds,
    # over peer ids for gossip-mesh.
    links: tuple[tuple[int, int], ...]

    def cluster_of(self, pid: int) -> int:
        for ci, members in enumerate(self.clusters):
            if pid in members:
                return ci
        raise OverlayError(f"peer {pid} not in any cluster")

    def members(self, ci: int) -> tuple[int, ...]:
        return self.clusters[ci]

    def successor(self, ci: int) -> int:
        return (ci + 1) % len(self.clusters)

    def predecessor(self, ci: int) -> int:
        return (ci - 1) % len(self.clusters)

    def parent(self, ci: int) -> int | None:
        return (ci - 1) // 2 if ci > 0 else None

    def children(self, ci: int) -> tuple[int, ...]:
        m = len(self.clusters)
        return tuple(c for c in (2 * ci + 1, 2 * ci + 2) if c < m)

    def neighbors(self, pid: int) -> tuple[int, ...]:
        out = sorted(
            {b for a, b in self.links if a == pid} | {a for a, b in self.links if b == pid}
        )
        return tuple(out)

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "clusters": [list(c) for c in self.clusters],
            "links": [list(l) for l in self.links],
        }


@dataclass(frozen=True)
class RecipientMap:
    """Per-voter recipients in the succeeding cluster, and the inverse map."""

    recipients: dict[int, tuple[int, ...]]
    senders: dict[int, tuple[int, ...]]


def _check_partition(clusters, n) -> None:
    seen = [pid for c in clusters for pid in c]
    assert sorted(seen) == list(range(n)), "clusters must partition the peer set"


def build_ring_clusters(n: int, seed: int) -> Overlay:
    """sqrt(n) clusters of sqrt(n) peers arranged in a ring.

    Peer-to-cluster assignment is a seeded permutation; n must be a
    perfect square >= 4.
    """
    root = math.isqrt(n)
    if n < 4 or root * root != n:
        raise OverlayError("n: must be a perfect square >= 4")
    rng = random.Random(wire.derive_seed(seed, "ring", n))
    order = list(range(n))
    rng.shuffle(order)
    clusters = tuple(
        tuple(order[i * root : (i + 1) * root]) for i in range(root)
    )
    _check_partition(clusters, n)
    links = tuple((i, (i + 1) % root) for i in range(root))
    return Overlay(RING_CLUSTERS, n, clusters, links)


def assign_recipients(overlay: Overlay, k: int, seed: int) -> RecipientMap:
    """Balanced recipient assignment for the ring overlay.

    Every voter gets 2k+1 distinct recipients in its successor cluster and
    is itself the recipient of exactly 2k+1 voters from its predecessor
    cluster (circulant matching over a seeded ordering of each cluster).
    """
    size = len(overlay.clusters[0])
    r = 2 * k + 1
    if r > size:
        raise OverlayError(f"k: 2k+1 = {r} exceeds the cluster size {size}")
    rng = random.Random(wire.derive_seed(seed, "recipients", overlay.n, k))
    recipients: dict[int, tuple[int, ...]] = {}
    senders: dict[int, list[int]] = {pid: [] for pid in range(overlay.n)}
    for ci, members in enumerate(overlay.clusters):
        succ = list(overlay.clusters[overlay.successor(ci)])
        rng.shuffle(succ)
        for a, pid in enumerate(members):
            outs = tuple(succ[(a + t) % size] for t in range(r))
            recipients[pid] = outs
            for o in outs:
                senders[o].append(pid)
    return RecipientMap(recipients, {pid: tuple(s) for pid, s in senders.items()})


def build_tree_clusters(n: int, cluster_size: int, seed: int) -> Overlay:
    """Equal clusters on a complete-as-possible binary tree.

    Peers are placed by hashing their seeded identifier (chord-style
    deterministic assignment); cluster 0 is the root.
    """
    if cluster_size < 2:
        raise OverlayError("cluster_size: must be >= 2")
    if n < 1 or n % cluster_size != 0:
        raise OverlayError("n: must be positive and divisible by cluster_size")
    if n < 2 * cluster_size:
        # One cluster is its own root: no tree, and every peer a key holder.
        raise OverlayError("n: must make at least two clusters (n >= 2 * cluster_size)")
    m = n // cluster_size
    keyed = sorted(
        range(n),
        key=lambda pid: hashlib.sha256(f"{seed}|chord|{pid}".encode()).digest(),
    )
    clusters = tuple(
        tuple(sorted(keyed[i * cluster_size : (i + 1) * cluster_size])) for i in range(m)
    )
    _check_partition(clusters, n)
    links = tuple(((c - 1) // 2, c) for c in range(1, m))
    return Overlay(TREE_CLUSTERS, n, clusters, links)


def build_gossip_mesh(n: int, degree: int, seed: int) -> Overlay:
    """Connected undirected graph with minimum degree >= `degree`.

    Built from a ring, which connects every peer, plus seeded augmentation
    edges. A peer below ``degree`` < n always has a non-neighbour to link
    to, so augmentation ends only once every peer has ``degree`` links.
    """
    if n < 2:
        raise OverlayError("n: must be >= 2")
    if not 2 <= degree < n:
        raise OverlayError("degree: must be in [2, n)")
    rng = random.Random(wire.derive_seed(seed, "mesh", n, degree))
    edges: set[tuple[int, int]] = set()
    adj: dict[int, set[int]] = {i: set() for i in range(n)}

    def connect(a: int, b: int) -> None:
        e = (min(a, b), max(a, b))
        if a != b and e not in edges:
            edges.add(e)
            adj[a].add(b)
            adj[b].add(a)

    for i in range(n):
        connect(i, (i + 1) % n)
    while True:
        low = [i for i in range(n) if len(adj[i]) < degree]
        if not low:
            break
        u = min(low, key=lambda i: (len(adj[i]), i))
        candidates = [v for v in range(n) if v != u and v not in adj[u]]
        least = min(len(adj[v]) for v in candidates)
        pool = [v for v in candidates if len(adj[v]) == least]
        connect(u, rng.choice(pool))
    clusters = (tuple(range(n)),)
    return Overlay(GOSSIP_MESH, n, clusters, tuple(sorted(edges)))

