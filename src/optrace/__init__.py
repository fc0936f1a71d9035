"""Desk-scale study of instruction recovery from interpreter page traces.

A bytecode interpreter runs a guest program; a machine model turns each
retired opcode into the native-step side channel an adversary observes
(page, access mode, fault count, latency).  Profiling the interpreter
yields per-opcode fingerprints; the attack phase locates the dispatch
structures in a victim trace, segments it, and matches segments back to
opcodes.  Metrics score the recovered instruction stream.
"""

__version__ = "0.1.0"
