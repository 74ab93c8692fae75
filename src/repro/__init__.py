"""repro — a full reproduction of Flowtune (NSDI 2017).

Flowtune performs congestion control at *flowlet* granularity: a
centralized allocator receives flowlet start/end notifications from
endpoints, solves a network utility maximization problem with the
Newton-Exact-Diagonal (NED) method, normalizes the rates to link
capacities (F-NORM), and pushes explicit rates back to endpoints.

The top-level namespace is the supported public API — one import
covers the common workflows::

    from repro import FlowtuneAllocator, TwoTierClos

    topo = TwoTierClos(n_racks=3, hosts_per_rack=8, n_spines=2)
    alloc = FlowtuneAllocator(topo.link_set())
    alloc.flowlet_start(0, topo.route(0, 9))
    print(alloc.iterate(50).rates)

Every resource-owning object here (:class:`FlowtuneService`,
:class:`FlowtuneClient`) is a context manager with an idempotent
``close()``.

Subpackages hold the deeper surface:

``repro.core``
    NED and the compared optimizers, U/F-NORM, the allocator.
``repro.sampling``
    Sieve-style sampling: elephants priced, mice on ECMP, and the
    ``RateScheduler`` protocol / ``make_scheduler`` factory that
    unify full Flowtune, sampled Flowtune and pure ECMP.
``repro.parallel``
    The FlowBlock/LinkBlock multicore partitioning (§5): the simulated
    engine and the §6.1 table.
``repro.service``
    The always-on allocator service and its wire schema.
``repro.net``
    The length-prefixed TCP framing the service's two ends share.
``repro.topology``
    Two- and three-tier Clos topologies and routing.
``repro.workloads``
    Facebook Web/Cache/Hadoop flowlet-size workloads (Poisson churn).
``repro.fluid``
    Flowlet-level (fluid) simulation of allocator dynamics.
``repro.sim``
    Packet-level event simulator (ns2 stand-in).
``repro.transport``
    DCTCP, pFabric, Cubic/sfqCoDel, XCP and Flowtune endpoints.
``repro.control``
    Flowtune's in-network control plane (notifications, rate updates).
``repro.fastpass``
    Fastpass-style timeslot arbiter (throughput comparison baseline).
``repro.analysis``
    FCT/fairness/convergence metrics used by the paper's figures.
"""

__version__ = "1.1.0"

# the core allocator
from .core import (AllocationResult, AlphaFairUtility, ChurnQueue,
                   FlowtuneAllocator, FlowTable, FNormalizer, LinkSet,
                   LogUtility, NedOptimizer, RateUpdate, UNormalizer)
# the transport error the service client raises
from .net import FabricError
# the multicore engine
from .parallel import MulticoreNedEngine
# the sampling front-end and the scheduler protocol
from .sampling import (EcmpScheduler, ElephantDetector, RateScheduler,
                       SampledAllocator, make_scheduler)
# the always-on service
from .service import (FlowtuneClient, FlowtuneService, ServiceError,
                      spawn_service)
# topologies
from .topology import ThreeTierClos, Topology, TwoTierClos, paper_topology

__all__ = [
    "__version__",
    # core
    "FlowtuneAllocator", "AllocationResult", "RateUpdate", "ChurnQueue",
    "FlowTable", "LinkSet", "NedOptimizer",
    "FNormalizer", "UNormalizer", "LogUtility", "AlphaFairUtility",
    # parallel
    "MulticoreNedEngine",
    # sampling
    "RateScheduler", "SampledAllocator", "EcmpScheduler",
    "ElephantDetector", "make_scheduler",
    # service
    "FlowtuneService", "FlowtuneClient", "ServiceError", "spawn_service",
    "FabricError",
    # topology
    "TwoTierClos", "ThreeTierClos", "Topology", "paper_topology",
]
