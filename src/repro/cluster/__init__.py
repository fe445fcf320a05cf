"""The cluster scheduler: N VMs as one schedulable pool.

Section 8 of the paper extends the application notion across JVMs; this
package adds the missing management plane — membership, placement, and
failover — on top of the ``dist`` remote-execution protocol.  The
security story is unchanged: credentials travel with each launch and are
verified by the target VM (Section 5.2), and untrusted code can
be confined to designated *playground* nodes (Malkhi & Reiter's remote
playground model).
"""

from repro.cluster.registry import (
    DEAD,
    LIVE,
    SUSPECT,
    NodeInfo,
    NodeRegistry,
)
from repro.cluster.retry import backoff_delays, retry_call
from repro.cluster.scheduler import (
    LeastLoadedPolicy,
    LocalityPolicy,
    PlacementError,
    PlacementPolicy,
    RoundRobinPolicy,
    Scheduler,
)
from repro.cluster.spawn import Cluster, ClusterApplication

__all__ = [
    "LIVE", "SUSPECT", "DEAD",
    "NodeInfo", "NodeRegistry",
    "backoff_delays", "retry_call",
    "PlacementPolicy", "RoundRobinPolicy", "LeastLoadedPolicy",
    "LocalityPolicy", "PlacementError", "Scheduler",
    "Cluster", "ClusterApplication",
]
