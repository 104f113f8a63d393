"""The paper's contribution: scalable ghost-region communication.

* :mod:`repro.core.ghost` / :mod:`repro.core.patterns` /
  :mod:`repro.core.analytic` — the quantitative model of section 3.1
  (Table 1, Equations 3-8).
* :mod:`repro.core.three_stage` — baseline staged exchange (Fig. 4).
* :mod:`repro.core.p2p` — coarse-grained peer-to-peer exchange with the
  optional RDMA data plane of section 3.4 (pre-registered buffers,
  direct PUT into remote position arrays, round-robin receive rings).
* :mod:`repro.core.fine_p2p` — the thread-pool-parallel schedule of
  section 3.3 (6 VCQs/rank over 6 TNIs, Fig. 10 load balancing).
* :mod:`repro.core.border_bins` / :mod:`repro.core.message_combine` /
  :mod:`repro.core.topo_map` — the section 3.5 optimizations.
"""

from repro.core.ghost import (
    GhostBudget,
    corner_volume,
    edge_volume,
    face_volume,
    full_shell_volume,
    half_shell_volume,
    offset_volume,
    stage_volumes,
)
from repro.core.patterns import (
    CommPattern,
    NeighborSpec,
    StageSwap,
    half_shell_offsets,
    lex_positive,
    message_count,
    offset_hops,
    p2p_neighbors,
    shell_offsets,
    three_stage_swaps,
)
from repro.core.analytic import (
    MessageClass,
    PatternAnalysis,
    TimingModel,
    analyze_p2p,
    analyze_three_stage,
    timing_model,
)
from repro.core.exchange_base import GhostExchange, NoEpochError
from repro.core.three_stage import ThreeStageExchange
from repro.core.p2p import P2PExchange
from repro.core.fine_p2p import FineGrainedP2PExchange
from repro.core.rdma_buffers import (
    BufferOverwriteError,
    RdmaEndpoint,
    RecvBufferRing,
    RemoteWindow,
)
from repro.core.border_bins import BorderBins
from repro.core.message_combine import MessageFormatError, combine, split, write_into
from repro.core.topo_map import JobShape, TopoMap, RANKS_PER_NODE_BRICK

__all__ = [
    "GhostBudget",
    "face_volume",
    "edge_volume",
    "corner_volume",
    "full_shell_volume",
    "half_shell_volume",
    "offset_volume",
    "stage_volumes",
    "CommPattern",
    "NeighborSpec",
    "StageSwap",
    "lex_positive",
    "shell_offsets",
    "half_shell_offsets",
    "p2p_neighbors",
    "offset_hops",
    "three_stage_swaps",
    "message_count",
    "MessageClass",
    "PatternAnalysis",
    "TimingModel",
    "analyze_three_stage",
    "analyze_p2p",
    "timing_model",
    "GhostExchange",
    "NoEpochError",
    "ThreeStageExchange",
    "P2PExchange",
    "FineGrainedP2PExchange",
    "RecvBufferRing",
    "RdmaEndpoint",
    "RemoteWindow",
    "BufferOverwriteError",
    "BorderBins",
    "combine",
    "split",
    "write_into",
    "MessageFormatError",
    "JobShape",
    "TopoMap",
    "RANKS_PER_NODE_BRICK",
]
