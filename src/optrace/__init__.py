"""Desk-scale study of instruction recovery from interpreter page traces.

A bytecode interpreter runs a guest program; a machine model turns each
retired opcode into the native-step side channel an adversary observes
(page, access mode, fault count, latency).  Profiling the interpreter
yields per-opcode fingerprints; the attack phase locates the dispatch
structures in a victim trace, segments it, and matches segments back to
opcodes.  Metrics score the recovered instruction stream.
"""

from .bytecode import (
    FlatModule,
    Instruction,
    Interpreter,
    OpcodeTrace,
    ParseError,
    Trap,
    execute,
    parse_flat_module,
    serialize_module,
)
from .machine import (
    Labels,
    LayoutConfig,
    MemoryLayout,
    MitigationConfig,
    NoiseModel,
    PageClass,
    SideChannelTrace,
    StepEvent,
    StepKind,
    SynthesisError,
    build_layout,
    synthesize_trace,
)
from .handlers import apply_mitigation, default_handler_specs
from .matcher import Channel, MatchError, Prediction, Predictions, match_trace
from .metrics import RecallReport, align_free, classify_outcomes, recall_percent
from .opcodes import OPCODES
from .preprocess import (
    DetectionError,
    PreprocessReport,
    Segment,
    SegmentationError,
    Segments,
    detect_optable_page,
    detect_stack_pages,
    filter_redundant,
    preprocess_trace,
    segment_trace,
)
from .profiler import (
    Fingerprint,
    FingerprintDb,
    ProfilingError,
    build_fingerprint_db,
    split_by_marker,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # guest bytecode
    "FlatModule", "Instruction", "Interpreter", "OpcodeTrace", "ParseError",
    "Trap", "execute", "parse_flat_module", "serialize_module",
    # machine model
    "Labels", "LayoutConfig", "MemoryLayout", "MitigationConfig", "NoiseModel",
    "PageClass", "SideChannelTrace", "StepEvent", "StepKind", "SynthesisError",
    "build_layout", "synthesize_trace", "apply_mitigation",
    "default_handler_specs",
    # opcode registry
    "OPCODES",
    # preprocessing
    "DetectionError", "PreprocessReport", "Segment", "SegmentationError", "Segments",
    "detect_optable_page", "detect_stack_pages", "filter_redundant",
    "preprocess_trace", "segment_trace",
    # profiling
    "Fingerprint", "FingerprintDb", "ProfilingError", "build_fingerprint_db",
    "split_by_marker",
    # matching and metrics
    "Channel", "MatchError", "Prediction", "Predictions", "match_trace",
    "RecallReport", "align_free", "classify_outcomes", "recall_percent",
]
