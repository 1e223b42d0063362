"""Process-mining based rating and explanation of anomaly-IDS alarms.

Pipeline: PCAP/corpus -> bidirectional TCP flows -> anomaly detector ->
TCP event traces -> state-wise event logs -> discovered workflow nets ->
alignment profiles -> cosine-similarity severity bands.
"""

from .alignment import Aligner, Alignment, Move, MoveKind, align, profile_flow, profile_reference
from .detector import DetectorModel, ScoredFlow, calibrate_threshold, classify, fit_baseline
from .discovery import ProcessTree, discover, mine_tree, tree_to_net
from .errors import (
    AlarmsiftError,
    BudgetError,
    ConfigError,
    ContractError,
    DataError,
    PcapFormatError,
    SchemaError,
)
from .events import ExtractionParams, Fragment, build_logs, event_label, fit_states, split_by_state
from .flowmeter import FEATURE_NAMES, Direction, Flow, FlowPacket, FlowRecord, assemble_flows, featurize
from .pcap import PacketRecord, ingest_pcap
from .petri import Marking, PetriNet, Transition, check_soundness
from .rating import (
    BandedConfusion,
    RatedAlarm,
    SeverityBands,
    banded_metrics,
    cos_sim,
    rate_all,
)

__version__ = "0.1.0"
