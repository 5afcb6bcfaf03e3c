"""Fabric failure-resilience analysis.

The disaggregation argument of §IV.A.3 assumes the fabric is dependable
enough to put memory on the far side of it. This module quantifies that:
path diversity, tolerance to link/switch failures, and the bandwidth
degradation profile under progressive failures -- comparing fat-tree and
leaf-spine designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import networkx as nx

from repro.engine.randomness import RandomStream
from repro.errors import TopologyError
from repro.network.topology import Fabric


def hosts_connected(fabric: Fabric) -> bool:
    """Whether every host can still reach every other host."""
    hosts = fabric.hosts
    if len(hosts) < 2:
        return True
    components = list(nx.connected_components(fabric.graph))
    for component in components:
        if hosts[0] in component:
            return all(h in component for h in hosts)
    return False


@dataclass
class DegradationPoint:
    """One step of a progressive-failure experiment."""

    failures: int
    connected: bool
    bisection_gbps: float
    bisection_fraction: float


class DegradationProfile(List[DegradationPoint]):
    """The points of a progressive-failure run, plus stop diagnostics.

    Behaves exactly like the ``List[DegradationPoint]`` it used to be;
    :attr:`exhausted` additionally records whether the run stopped early
    because the candidate link pool ran dry before the requested number
    of failures was reached (previously a silent truncation).
    """

    def __init__(self, points=(), exhausted: bool = False) -> None:
        super().__init__(points)
        self.exhausted = exhausted


def progressive_link_failures(
    fabric: Fabric,
    n_steps: int,
    links_per_step: int = 1,
    seed: int = 13,
    core_only: bool = True,
) -> DegradationProfile:
    """Fail random fabric links step by step; track bisection bandwidth.

    ``core_only`` restricts failures to switch-switch links (host access
    links failing just detaches that host, which is not the interesting
    regime).

    The profile can be shorter than ``n_steps + 1`` points for two
    reasons: the fabric partitioned (the final point has
    ``connected=False``), or the eligible link pool ran out before
    ``n_steps * links_per_step`` links could be failed -- small fabrics
    simply do not have that many core links. The latter case is flagged
    on the returned profile as ``exhausted=True`` (its final step may
    also have failed fewer than ``links_per_step`` links); callers that
    sweep step counts should check it rather than assume every requested
    step ran.
    """
    if n_steps < 1 or links_per_step < 1:
        raise TopologyError("steps and links per step must be >= 1")
    rng = RandomStream(seed, "failures")
    current = Fabric(name=fabric.name, graph=fabric.graph.copy())
    host_set = set(fabric.hosts)
    candidates = [
        tuple(sorted((a, b)))
        for a, b in current.graph.edges
        if not core_only or (a not in host_set and b not in host_set)
    ]
    candidates = rng.shuffle(sorted(candidates))
    baseline = fabric.bisection_bandwidth_gbps()
    points = [DegradationPoint(0, True, baseline, 1.0)]
    failed = 0
    exhausted = False
    for _ in range(n_steps):
        batch, candidates = candidates[:links_per_step], candidates[links_per_step:]
        if not batch:
            exhausted = True
            break
        if len(batch) < links_per_step:
            exhausted = True
        for a, b in batch:
            if current.graph.has_edge(a, b):
                current.graph.remove_edge(a, b)
        failed += len(batch)
        alive = hosts_connected(current)
        bisection = (
            current.bisection_bandwidth_gbps() if alive else 0.0
        )
        points.append(
            DegradationPoint(failed, alive, bisection, bisection / baseline)
        )
        if not alive:
            break
    return DegradationProfile(points, exhausted=exhausted)


def _contracted_bisection_graph(fabric: Fabric) -> nx.Graph:
    """The host-halves S/T contraction used for bisection max-flow.

    Same construction as ``Fabric.bisection_bandwidth_gbps``: one half of
    the hosts collapses into super-source ``S``, the other into
    super-sink ``T``; switches survive, so per-switch what-ifs can reuse
    this (much smaller) graph instead of re-contracting the full fabric.
    """
    hosts = fabric.hosts
    if len(hosts) < 2:
        raise TopologyError("need at least two hosts for bisection")
    half = set(hosts[: len(hosts) // 2])
    other = set(hosts) - half
    flow_graph = nx.Graph()
    for a, b, data in fabric.graph.edges(data=True):
        a2 = "S" if a in half else ("T" if a in other else a)
        b2 = "S" if b in half else ("T" if b in other else b)
        if a2 == b2:
            continue
        rate = data["rate_gbps"]
        if flow_graph.has_edge(a2, b2):
            flow_graph.edges[a2, b2]["capacity"] += rate
        else:
            flow_graph.add_edge(a2, b2, capacity=rate)
    return flow_graph


def single_switch_failure_impact(fabric: Fabric) -> Dict[str, float]:
    """Worst-case bisection fraction remaining after one switch failure.

    Returns per-role worst case: e.g. losing one spine of four should
    leave ~75% of bisection on a leaf-spine.

    Instead of rebuilding the fabric and recomputing bisection from
    scratch per switch, this contracts the host halves into S/T once,
    solves one baseline max flow, and then handles each switch with the
    cheapest sound check:

    - connectivity: a switch that is not an articulation point of the
      fabric graph cannot strand a host, so only articulation points pay
      for a component scan;
    - a switch carrying zero flow in the computed baseline max flow is
      skipped outright -- that same flow remains feasible without the
      switch, so the bisection value cannot drop (removing a node never
      raises it either);
    - everything else re-solves max flow on a
      :func:`networkx.restricted_view` of the small contracted graph (no
      copies of the full fabric).
    """
    hosts = fabric.hosts
    flow_graph = _contracted_bisection_graph(fabric)
    baseline, flow_dict = nx.maximum_flow(flow_graph, "S", "T")
    articulation = set(nx.articulation_points(fabric.graph))
    worst: Dict[str, float] = {}
    for switch in fabric.switches:
        role = fabric.role(switch)
        if switch in articulation:
            remaining = nx.restricted_view(fabric.graph, [switch], [])
            component = nx.node_connected_component(remaining, hosts[0])
            connected = all(h in component for h in hosts)
        else:
            connected = True
        if not connected:
            fraction = 0.0
        elif sum(flow_dict.get(switch, {}).values()) <= 1e-9:
            fraction = 1.0
        else:
            degraded, _ = nx.maximum_flow(
                nx.restricted_view(flow_graph, [switch], []), "S", "T"
            )
            fraction = degraded / baseline
        worst[role] = min(worst.get(role, 1.0), fraction)
    return worst
