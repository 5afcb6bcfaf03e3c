"""Data-center networking substrate (§IV.A of the roadmap).

Topologies (fat-tree, leaf-spine, disaggregated), Ethernet link
generations, switch procurement models (branded / white-box / bare
metal), ECMP routing, flow-level max-min bandwidth sharing, packet-level
queueing, the SDN control plane and NFV service chains.
"""

from repro.network.failures import (
    DegradationPoint,
    DegradationProfile,
    hosts_connected,
    progressive_link_failures,
    single_switch_failure_impact,
)
from repro.network.flows import (
    Flow,
    FlowSimulator,
    IncrementalMaxMinSolver,
    invalidate_link_capacity_cache,
    max_min_fair_rates,
    transfer_time_s,
)
from repro.network.link import (
    ETHERNET_ROADMAP,
    Link,
    LinkGeneration,
    commodity_generation,
    cost_per_gbps_trend,
    generations_by_year,
)
from repro.network.loadbalance import (
    AssignmentComparison,
    assign_paths_ecmp,
    assign_paths_least_loaded,
    compare_assignment_policies,
    link_load_bytes,
    load_imbalance,
)
from repro.network.nfv import (
    FUNCTION_CATALOG,
    NetworkFunction,
    ServiceChain,
    VnfHost,
    standard_dmz_chain,
)
from repro.network.packet import (
    PacketNetwork,
    PacketRecord,
    poisson_traffic_latencies,
)
from repro.network.routing import (
    ecmp_path_for_flow,
    ecmp_paths,
    hop_count_matrix,
    path_bottleneck_gbps,
    path_links,
    shortest_path,
)
from repro.network.sdn import (
    FlowRule,
    FlowTable,
    LegacyManagement,
    SdnController,
    management_speedup,
)
from repro.network.switch import (
    NOS_CATALOG,
    NosLicense,
    SwitchClass,
    SwitchModel,
    bare_metal_switch,
    branded_switch,
    fleet_tco_usd,
    white_box_switch,
)
from repro.network.topology import (
    ROLE_AGG,
    ROLE_CORE,
    ROLE_HOST,
    ROLE_POOL,
    ROLE_TOR,
    Fabric,
    disaggregated_fabric,
    fat_tree,
    leaf_spine,
)

__all__ = [
    "AssignmentComparison",
    "DegradationPoint",
    "DegradationProfile",
    "ETHERNET_ROADMAP",
    "FUNCTION_CATALOG",
    "Fabric",
    "Flow",
    "FlowRule",
    "FlowSimulator",
    "FlowTable",
    "IncrementalMaxMinSolver",
    "LegacyManagement",
    "Link",
    "LinkGeneration",
    "NOS_CATALOG",
    "NetworkFunction",
    "NosLicense",
    "PacketNetwork",
    "PacketRecord",
    "ROLE_AGG",
    "ROLE_CORE",
    "ROLE_HOST",
    "ROLE_POOL",
    "ROLE_TOR",
    "SdnController",
    "ServiceChain",
    "SwitchClass",
    "SwitchModel",
    "VnfHost",
    "assign_paths_ecmp",
    "assign_paths_least_loaded",
    "bare_metal_switch",
    "branded_switch",
    "commodity_generation",
    "compare_assignment_policies",
    "cost_per_gbps_trend",
    "disaggregated_fabric",
    "ecmp_path_for_flow",
    "ecmp_paths",
    "fat_tree",
    "fleet_tco_usd",
    "generations_by_year",
    "hop_count_matrix",
    "hosts_connected",
    "invalidate_link_capacity_cache",
    "leaf_spine",
    "link_load_bytes",
    "load_imbalance",
    "management_speedup",
    "max_min_fair_rates",
    "path_bottleneck_gbps",
    "path_links",
    "poisson_traffic_latencies",
    "progressive_link_failures",
    "shortest_path",
    "single_switch_failure_impact",
    "standard_dmz_chain",
    "transfer_time_s",
    "white_box_switch",
]
