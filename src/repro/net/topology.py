"""Multi-hop network topologies (networkx-backed).

The flat :class:`~repro.net.network.Network` models every pair with one
channel.  Real clouds sit behind multi-hop paths — client ISP, transit,
provider edge — and the paper's Fig. 1 draws exactly that picture.
This module builds weighted graphs of routers/links and compiles them
down to per-pair :class:`~repro.net.channel.ChannelSpec` links whose
latency is the shortest-path latency, loss is the path's compound loss,
and bandwidth is the path's bottleneck.

The compile step keeps the simulator fast (no per-hop events) while the
topology stays declarative and inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NetworkError
from .channel import ChannelSpec
from .network import Network

__all__ = ["LinkSpec", "Topology", "dumbbell_topology"]


@dataclass(frozen=True)
class LinkSpec:
    """One physical hop."""

    latency: float = 0.005
    bandwidth_bps: float = float("inf")
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise NetworkError("link latency must be non-negative")
        if self.bandwidth_bps <= 0:
            raise NetworkError("link bandwidth must be positive")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise NetworkError("link loss must be a probability")


class Topology:
    """A weighted multi-hop graph of hosts and routers."""

    def __init__(self) -> None:
        # networkx is imported where it is used: it costs a sizeable
        # share of ``import repro`` and only topology users need it.
        import networkx as nx

        self.graph = nx.Graph()
        self._hosts: set[str] = set()

    def add_host(self, name: str) -> None:
        """A host: an endpoint protocol nodes attach to."""
        self.graph.add_node(name)
        self._hosts.add(name)

    def add_router(self, name: str) -> None:
        self.graph.add_node(name)

    def add_link(self, a: str, b: str, spec: LinkSpec = LinkSpec()) -> None:
        if a not in self.graph or b not in self.graph:
            raise NetworkError(f"add nodes before linking {a!r}-{b!r}")
        self.graph.add_edge(a, b, spec=spec, weight=spec.latency)

    @property
    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    # -- path math -----------------------------------------------------------

    def path(self, src: str, dst: str) -> list[str]:
        """Latency-shortest path between two nodes."""
        import networkx as nx

        try:
            return nx.shortest_path(self.graph, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise NetworkError(f"no path from {src!r} to {dst!r}") from exc

    def path_channel(self, src: str, dst: str, jitter: float = 0.0) -> ChannelSpec:
        """Compile the path into one end-to-end channel.

        latency = sum of hop latencies; bandwidth = bottleneck hop;
        delivery probability = product of hop deliveries.
        """
        nodes = self.path(src, dst)
        latency = 0.0
        bandwidth = float("inf")
        delivery = 1.0
        for a, b in zip(nodes, nodes[1:]):
            spec: LinkSpec = self.graph.edges[a, b]["spec"]
            latency += spec.latency
            bandwidth = min(bandwidth, spec.bandwidth_bps)
            delivery *= 1.0 - spec.loss_prob
        return ChannelSpec(
            base_latency=latency,
            jitter=jitter,
            bandwidth_bps=bandwidth,
            drop_prob=1.0 - delivery,
        )

    def install(self, network: Network, jitter: float = 0.0) -> None:
        """Configure *network* with one compiled channel per host pair."""
        hosts = self.hosts
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                network.connect(a, b, self.path_channel(a, b, jitter))

    def diameter_latency(self) -> float:
        """Worst-case host-to-host one-way latency."""
        return max(
            self.path_channel(a, b).base_latency
            for i, a in enumerate(self.hosts)
            for b in self.hosts[i + 1 :]
        )


def dumbbell_topology(
    left_hosts: list[str],
    right_hosts: list[str],
    access: LinkSpec = LinkSpec(latency=0.005, bandwidth_bps=1e9),
    backbone: LinkSpec = LinkSpec(latency=0.030, bandwidth_bps=12.5e6),
) -> Topology:
    """The classic two-routers-and-a-bottleneck shape.

    Left hosts (clients) and right hosts (provider, TTP) hang off their
    edge routers; the backbone link in the middle is the WAN.
    """
    topo = Topology()
    topo.add_router("edge-left")
    topo.add_router("edge-right")
    topo.add_link("edge-left", "edge-right", backbone)
    for host in left_hosts:
        topo.add_host(host)
        topo.add_link(host, "edge-left", access)
    for host in right_hosts:
        topo.add_host(host)
        topo.add_link(host, "edge-right", access)
    return topo
