"""Opcode registry for the supported bytecode subset.

Width variants (i32/i64) of the same operation share a family; width-less
opcodes form singleton families.  Families matter for evaluation: recovering
i64.add where the truth says i32.add still identifies the operation.
"""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class OpcodeId:
    """An opcode and the static properties the parser and interpreter use."""

    code: int
    mnemonic: str
    family: str
    n_immediates: int
    pops: int
    pushes: int


# (base mnemonic, i32 code, i64 code, immediates, pops, pushes)
_WIDTH_OPS = [
    ("const", 0x41, 0x42, 1, 0, 1),
    ("add", 0x6A, 0x7C, 0, 2, 1),
    ("sub", 0x6B, 0x7D, 0, 2, 1),
    ("mul", 0x6C, 0x7E, 0, 2, 1),
    ("div_s", 0x6D, 0x7F, 0, 2, 1),
    ("rem_s", 0x6F, 0x81, 0, 2, 1),
    ("and", 0x71, 0x83, 0, 2, 1),
    ("or", 0x72, 0x84, 0, 2, 1),
    ("xor", 0x73, 0x85, 0, 2, 1),
    ("shl", 0x74, 0x86, 0, 2, 1),
    ("shr_s", 0x75, 0x87, 0, 2, 1),
    ("eq", 0x46, 0x51, 0, 2, 1),
    ("ne", 0x47, 0x52, 0, 2, 1),
    ("lt_s", 0x48, 0x53, 0, 2, 1),
    ("gt_s", 0x4A, 0x55, 0, 2, 1),
    ("le_s", 0x4C, 0x57, 0, 2, 1),
    ("ge_s", 0x4E, 0x59, 0, 2, 1),
    ("eqz", 0x45, 0x50, 0, 1, 1),
    ("load", 0x28, 0x29, 0, 1, 1),
    ("store", 0x36, 0x37, 0, 2, 0),
]

# (mnemonic, code, immediates, pops, pushes)
_PLAIN_OPS = [
    ("nop", 0x01, 0, 0, 0),
    ("block", 0x02, 0, 0, 0),
    ("loop", 0x03, 0, 0, 0),
    ("if", 0x04, 0, 1, 0),
    ("else", 0x05, 0, 0, 0),
    ("end", 0x0B, 0, 0, 0),
    ("br", 0x0C, 1, 0, 0),
    ("br_if", 0x0D, 1, 1, 0),
    ("return", 0x0F, 0, 0, 0),
    ("call", 0x10, 1, 0, 0),
    ("drop", 0x1A, 0, 1, 0),
    ("select", 0x1B, 0, 3, 1),
    ("local.get", 0x20, 1, 0, 1),
    ("local.set", 0x21, 1, 1, 0),
    ("local.tee", 0x22, 1, 1, 1),
    ("global.get", 0x23, 1, 0, 1),
    ("global.set", 0x24, 1, 1, 0),
    ("memory.grow", 0x40, 0, 1, 1),
]


def _build_registry() -> dict[str, OpcodeId]:
    table: dict[str, OpcodeId] = {}
    for base, code32, code64, imms, pops, pushes in _WIDTH_OPS:
        for prefix, code in (("i32", code32), ("i64", code64)):
            mnemonic = f"{prefix}.{base}"
            table[mnemonic] = OpcodeId(code, mnemonic, base, imms, pops, pushes)
    for mnemonic, code, imms, pops, pushes in _PLAIN_OPS:
        table[mnemonic] = OpcodeId(code, mnemonic, mnemonic, imms, pops, pushes)
    return table


OPCODES: dict[str, OpcodeId] = _build_registry()

# Opcodes whose retirement opens / closes a structured control scope.
OPENERS = frozenset({"block", "loop", "if"})


def all_opcodes() -> list[OpcodeId]:
    """All supported opcodes in deterministic (mnemonic-sorted) order."""
    return [OPCODES[m] for m in sorted(OPCODES)]
