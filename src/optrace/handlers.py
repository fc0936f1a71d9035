"""Default handler templates and compile-time mitigations.

Templates model a threaded dispatch loop compiled at a fixed optimization
level: every handler body is followed by the shared dispatch tail (bytecode
fetch, optable lookup, indirect branch), which the synthesizer appends.
Body shapes differ per operation family; families whose handlers compile to
identical memory-access shapes (e.g. the bitwise group) are told apart only
by per-step latency offsets, which is what keeps recovery imperfect under
measurement jitter.

A body step is a template row: (page source, mode, pf, base latency), built
by `optrace.machine.step` from the machine's step calibration.  Width
variants share one template: an i64.add handler is byte-for-byte the same
shape as i32.add, which is exactly why evaluation groups families.
"""

from dataclasses import replace
from functools import partial

import numpy as np

from .machine import BYTECODE, FRAME, LINEAR, OPERAND, OPTABLE, OWN, HandlerSpec, MitigationConfig
from .machine import step
from .opcodes import OpcodeId, all_opcodes

__all__ = ["default_handler_specs", "apply_mitigation"]

_reg = partial(step, "reg", OWN)
_branch = partial(step, "branch", OWN)
_load = partial(step, "load")
_store = partial(step, "store")
_pop_op = partial(step, "load", OPERAND)
_push_op = partial(step, "store", OPERAND)


def _binop_body(write_dlat: int, extra_regs: int = 1) -> list[tuple]:
    """pop one operand, combine in place with the stack top (read-modify-write)."""
    body = [_reg(), _reg(), _pop_op()]
    body += [_reg() for _ in range(extra_regs)]
    body.append(_push_op(dlat=write_dlat))
    return body


def _family_bodies() -> dict[str, list[tuple]]:
    """family -> body steps."""
    mem_r = _load(LINEAR)
    mem_w = _store(LINEAR)
    frame_r = _load(FRAME)
    frame_w = _store(FRAME)
    imm_r = _load(BYTECODE)

    bodies: dict[str, list[tuple]] = {
        "nop": [_reg()],
        "drop": [_reg(), _pop_op(), _reg()],
        "const": [_reg(), imm_r, _push_op()],
        # Same shape, latency-separated: add/sub (slow RMW ALU step) and the
        # shift pair live a structural twin apart from each other.
        "add": _binop_body(881),
        "sub": _binop_body(941),
        "shl": _binop_body(100),
        "shr_s": _binop_body(150),
        # Bitwise trio: one fewer register op, only latency splits the three.
        "and": [_reg(), _pop_op(), _push_op(0)],
        "or": [_reg(), _pop_op(), _push_op(30)],
        "xor": [_reg(), _pop_op(), _push_op(60)],
        "mul": [_reg(), _reg(), _pop_op(), _reg(), _reg(dlat=320), _push_op()],
        "div_s": [_reg(), _reg(), _pop_op(), _branch(), _reg(), _reg(dlat=650), _push_op(200)],
        "rem_s": [
            _reg(), _reg(), _pop_op(), _branch(), _reg(), _reg(dlat=650), _reg(), _push_op(200),
        ],
        "eq": [_reg(), _reg(), _pop_op(), _reg(), _reg(), _reg(), _push_op(0)],
        "ne": [_reg(), _reg(), _pop_op(), _reg(), _reg(), _reg(), _push_op(30)],
        "lt_s": [_reg(), _reg(), _pop_op(), _reg(), _reg(), _reg(), _reg(), _push_op(0)],
        "gt_s": [_reg(), _reg(), _pop_op(), _reg(), _reg(), _reg(), _reg(), _push_op(35)],
        "le_s": [_reg(), _reg(), _pop_op(), _reg(), _reg(), _reg(), _reg(), _push_op(70)],
        "ge_s": [_reg(), _reg(), _pop_op(), _reg(), _reg(), _reg(), _reg(), _push_op(105)],
        "eqz": [_reg(), _pop_op(), _reg(), _reg(), _push_op()],
        "load": [_reg(), _pop_op(), _reg(), _branch(), mem_r, _push_op()],
        "store": [_reg(), _pop_op(), _pop_op(), _reg(), mem_w],
        "local.get": [_reg(), imm_r, frame_r, _push_op()],
        "local.set": [_reg(), imm_r, _pop_op(), _reg(), frame_w],
        "local.tee": [_reg(), imm_r, _reg(), _pop_op(), _reg(), frame_w],
        "global.get": [_reg(), imm_r, _load(LINEAR, dlat=45), _push_op()],
        "global.set": [
            _reg(), imm_r, _pop_op(), _reg(), _reg(), _reg(), _store(LINEAR, dlat=60),
        ],
        "select": [_reg(), _pop_op(), _reg(), _pop_op(), _pop_op(), _reg(), _push_op()],
        "block": [_reg(), imm_r, _reg(), frame_w],
        "loop": [_reg(), imm_r, _reg(), _reg(), frame_w],
        "if": [_reg(), imm_r, _pop_op(), _reg(), _branch(), frame_w],
        "else": [_reg(), _reg(), _branch()],
        "end": [_reg(), frame_r, _reg(), _reg()],
        "br": [_reg(), imm_r, _reg(), _branch()],
        "br_if": [_reg(), imm_r, _pop_op(), _reg(), _branch(), _reg()],
        "call": [_reg(), imm_r, _reg(), _load(OPTABLE), _reg(), frame_w],
        "return": [_reg(), frame_r, _reg(), _reg(), _branch()],
        "memory.grow": [
            _reg(), _pop_op(), _reg(), _load(OPTABLE), _reg(), _reg(), mem_w, _push_op(),
        ],
    }
    return bodies


def default_handler_specs() -> dict[OpcodeId, HandlerSpec]:
    """Handler templates for every supported opcode."""
    bodies = _family_bodies()
    specs: dict[OpcodeId, HandlerSpec] = {}
    for op in all_opcodes():
        specs[op] = HandlerSpec(opcode=op, body=tuple(bodies[op.family]))
    return specs


def _insert_nops(spec: HandlerSpec, rng, prob: float, forced: int = 0) -> HandlerSpec:
    """Insert nop register steps at random body slots."""
    body = list(spec.body)
    slots = len(body) + 1  # before each body step and after the last
    inserted_at = [i for i in range(slots) if rng.random() < prob]
    while len(inserted_at) < forced:
        inserted_at.append(int(rng.integers(0, slots)))
    for slot in sorted(inserted_at, reverse=True):
        body.insert(slot, _reg())
    return replace(spec, body=tuple(body))


def apply_mitigation(
    specs: dict[OpcodeId, HandlerSpec],
    mitigation: MitigationConfig,
    seed: int,
) -> dict[OpcodeId, HandlerSpec | tuple[HandlerSpec, ...]]:
    """Rewrite handler templates the way a hardened build would.

    nop_insertion_prob pads handler bodies with dummy register steps;
    variant_count > 1 yields several equivalent templates per opcode, one of
    which is drawn at each execution.  Handler-page shuffling is a layout
    transform (see machine.shuffle_handler_pages) and is not applied here.
    """
    rng = np.random.default_rng(seed)
    out: dict[OpcodeId, HandlerSpec | tuple[HandlerSpec, ...]] = {}
    for op in sorted(specs, key=lambda o: o.mnemonic):
        variants = []
        for v in range(mitigation.variant_count):
            variant = specs[op]
            if mitigation.nop_insertion_prob > 0:
                variant = _insert_nops(variant, rng, mitigation.nop_insertion_prob)
            if v > 0:
                # Equivalent recodings differ by a bit of register padding.
                variant = _insert_nops(variant, rng, 0.0, forced=1 + v % 2)
            variants.append(variant)
        out[op] = variants[0] if len(variants) == 1 else tuple(variants)
    return out
