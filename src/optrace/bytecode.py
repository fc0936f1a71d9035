"""Flat-module parser and reference stack-machine interpreter.

The interpreter executes a module deterministically and records the ordered
sequence of retired opcodes.  That sequence is the ground truth every
downstream stage is evaluated against.
"""

from dataclasses import dataclass

from .opcodes import OPCODES, OPENERS, OpcodeId

__all__ = [
    "FlatModule",
    "Instruction",
    "OpcodeTrace",
    "ParseError",
    "Trap",
    "Interpreter",
    "parse_flat_module",
    "serialize_module",
    "execute",
]

PAGE_BYTES = 65536  # one linear-memory page
MAX_MEMORY_PAGES = 256
MAX_LOCALS = 50_000  # the WebAssembly JS API's limit on a function's locals
_DIRECTIVE_LIMITS = {".locals": (MAX_LOCALS, "locals"), ".memory": (MAX_MEMORY_PAGES, "pages")}

_I32_MASK = 0xFFFFFFFF
_I64_MASK = 0xFFFFFFFFFFFFFFFF


class ParseError(ValueError):
    """Malformed flat-module text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Trap(RuntimeError):
    """Runtime fault (division by zero, bad memory access, underflow)."""


@dataclass(frozen=True, slots=True)
class Instruction:
    opcode: OpcodeId
    immediates: tuple[int, ...] = ()


@dataclass(frozen=True)
class FlatModule:
    """Instructions, and one (opener, else or None, end) triple of instruction indices per
    block, loop or if, in the order the structures close."""

    instructions: tuple[Instruction, ...]
    structure: tuple[tuple[int, int | None, int], ...]
    locals_count: int = 0
    initial_memory_pages: int = 0


@dataclass(frozen=True)
class OpcodeTrace:
    """Ordered retirement record of one execution."""

    executed: tuple[OpcodeId, ...]
    step_limit_hit: bool


def _wrap(value: int, mask: int) -> int:
    """Two's-complement wrap of an arbitrary int to the given width."""
    value &= mask
    sign_bit = (mask >> 1) + 1
    return value - (mask + 1) if value & sign_bit else value


def parse_flat_module(text: str) -> FlatModule:
    """Parse flat-module text into a validated FlatModule.

    Accepted lines: blank, '# comment', '.locals N', '.memory N',
    '@label:' and 'mnemonic [immediates...]'.  'call' accepts either a
    numeric instruction index or '@label'.  Labels resolve at parse time
    and are not kept in the module.

    One walk: each distinct instruction text is parsed once (`_Text`), and
    per instruction only the stack of open structures moves.  That stack
    pairs each opener with its else and end for `FlatModule.structure`.
    """
    lines = text.splitlines()
    labels: dict[str, int] = {}
    directives = {".locals": 0, ".memory": 0}
    distinct: dict[str, _Text] = {}  # in order of first line
    texts: list[str] = []  # the text of each instruction
    openers: list[list] = []  # [family, opener index, else index or None] of each open structure
    structure: list[tuple[int, int | None, int]] = []
    nesting_error: ParseError | None = None  # the first else or branch the stack rejects
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[0] == ".":
            parts = line.split()
            if parts[0] not in directives:
                raise ParseError(line_no, f"unknown directive {parts[0]!r}")
            directives[parts[0]] = _parse_directive_int(parts, line_no, parts[0])
            continue
        if line[0] == "@":
            if not line.endswith(":"):
                raise ParseError(line_no, "label line must end with ':'")
            name = line[1:-1]
            if not name:
                raise ParseError(line_no, "empty label name")
            if name in labels:
                raise ParseError(line_no, f"duplicate label @{name}")
            if openers:
                raise ParseError(line_no, "label inside an open control structure")
            labels[name] = len(texts)
            continue
        entry = distinct.get(line)
        if entry is None:
            entry = distinct[line] = _Text(line, line_no)
        family = entry.family
        if family in OPENERS:
            openers.append([family, len(texts), None])
        elif family == "end":
            if not openers:
                raise ParseError(line_no, "'end' without matching opener")
            _, opener, else_index = openers.pop()
            structure.append((opener, else_index, len(texts)))
        elif nesting_error is not None:
            pass  # only the first nesting fault can be raised
        elif family == "else":
            if openers and openers[-1][0] == "if" and openers[-1][2] is None:
                openers[-1][2] = len(texts)
            else:
                nesting_error = ParseError(line_no, "'else' outside an if")
        elif family in ("br", "br_if") and entry.fault is None and entry.imm >= len(openers):
            nesting_error = ParseError(line_no, "branch depth exceeds nesting")
        texts.append(line)

    # Every fault above wins over the faults below; of those, the earliest wins.
    if openers:
        raise ParseError(len(lines) or 1, "unclosed control structure at end of module")
    locals_count, memory_pages = directives.values()
    last = len(lines) if nesting_error is None else nesting_error.line
    shared = {t: e.instruction(labels, locals_count, len(texts))
              for t, e in distinct.items() if e.line <= last}
    if nesting_error is not None:
        raise nesting_error
    instructions = tuple(map(shared.__getitem__, texts))
    return FlatModule(instructions, tuple(structure), locals_count, memory_pages)


def _parse_directive_int(parts: list[str], line_no: int, name: str) -> int:
    if len(parts) != 2:
        raise ParseError(line_no, f"{name} takes one integer argument")
    try:
        value = int(parts[1])
    except ValueError:
        raise ParseError(line_no, f"{name} argument must be an integer") from None
    if value < 0:
        raise ParseError(line_no, f"{name} argument must be non-negative")
    limit, unit = _DIRECTIVE_LIMITS[name]
    if value > limit:
        raise ParseError(line_no, f"{name} argument exceeds {limit} {unit}")
    return value


class _Text:
    """One distinct instruction text, parsed where it first appears: its opcode, its immediate
    (the label name of 'call @label') and a `fault` that needs no context, raised only later."""

    __slots__ = ("line", "opcode", "family", "imm", "fault")

    def __init__(self, text: str, line: int):
        mnemonic, *raw = text.split()
        op = OPCODES.get(mnemonic)
        if op is None:
            raise ParseError(line, f"unknown mnemonic {mnemonic!r}")
        if len(raw) != op.n_immediates:
            raise ParseError(
                line, f"{mnemonic} takes {op.n_immediates} immediate(s), got {len(raw)}"
            )
        self.line, self.opcode, self.family = line, op, op.family
        self.imm = self.fault = None
        if raw and self.family == "call" and raw[0].startswith("@"):
            self.imm = raw[0][1:]
        elif raw:
            try:
                self.imm = int(raw[0])
            except ValueError:
                self.fault = f"bad immediate {raw[0]!r}"
        if self.fault is None and self.family in ("br", "br_if") and self.imm < 0:
            self.fault = "branch depth must be non-negative"
        elif self.fault is None and self.family in ("global.get", "global.set") and self.imm < 0:
            self.fault = "global index must be non-negative"

    def instruction(self, labels: dict[str, int], locals_count: int, n: int) -> Instruction:
        """The shared instruction, checked against the final labels, `.locals` and count."""
        if self.fault is not None:
            raise ParseError(self.line, self.fault)
        imm, family = self.imm, self.family
        if isinstance(imm, str):
            if imm not in labels:
                raise ParseError(self.line, f"unknown label @{imm}")
            imm = labels[imm]
        if family in ("local.get", "local.set", "local.tee") and not 0 <= imm < locals_count:
            raise ParseError(self.line, f"local index {imm} out of range")
        if family == "call" and not 0 <= imm < n:
            raise ParseError(self.line, f"call target {imm} out of range")
        return Instruction(self.opcode, () if imm is None else (imm,))


def serialize_module(module: FlatModule) -> str:
    """Render a module back to flat text (labels are already resolved)."""
    lines: list[str] = []
    if module.locals_count:
        lines.append(f".locals {module.locals_count}")
    if module.initial_memory_pages:
        lines.append(f".memory {module.initial_memory_pages}")
    for instr in module.instructions:
        if instr.immediates:
            imm_text = " ".join(str(v) for v in instr.immediates)
            lines.append(f"{instr.opcode.mnemonic} {imm_text}")
        else:
            lines.append(instr.opcode.mnemonic)
    return "\n".join(lines) + "\n"


@dataclass
class _ControlFrame:
    family: str  # block | loop | if
    start: int  # instruction index of the opener
    end: int  # index of the matching 'end'
    stack_height: int


class Interpreter:
    """Executes a FlatModule; inspectable state for tests."""

    def __init__(self, module: FlatModule):
        self.module = module
        self.stack: list[int] = []
        self.locals: list[int] = [0] * module.locals_count
        self.globals: dict[int, int] = {}
        self.memory = bytearray(module.initial_memory_pages * PAGE_BYTES)
        self.control: list[_ControlFrame] = []
        self.call_stack: list[tuple[int, int]] = []  # (return pc, control height)
        self._structure = {opener: (else_, end) for opener, else_, end in module.structure}

    # -- value-stack helpers ------------------------------------------------

    def _pop(self) -> int:
        if not self.stack:
            raise Trap("operand stack underflow")
        return self.stack.pop()

    def _push(self, value: int) -> None:
        self.stack.append(value)

    # -- execution ----------------------------------------------------------

    def run(self, step_limit: int) -> OpcodeTrace:
        if step_limit <= 0:
            raise ValueError("step_limit must be positive")
        executed: list[OpcodeId] = []
        instrs = self.module.instructions
        pc = 0
        limit_hit = False
        while pc < len(instrs):
            if len(executed) >= step_limit:
                limit_hit = True
                break
            instr = instrs[pc]
            executed.append(instr.opcode)
            try:
                pc = self._step(pc, instr)
            except Trap:
                break
            if pc is None:  # explicit halt via top-level return
                break
        return OpcodeTrace(executed=tuple(executed), step_limit_hit=limit_hit)

    def _step(self, pc: int, instr: Instruction) -> int | None:
        family = instr.opcode.family
        mnemonic = instr.opcode.mnemonic
        is64 = mnemonic.startswith("i64.")
        mask = _I64_MASK if is64 else _I32_MASK
        bits = 64 if is64 else 32
        imms = instr.immediates

        if family == "const":
            self._push(_wrap(imms[0], mask))
        elif family in _BINOPS:
            rhs, lhs = self._pop(), self._pop()
            self._push(_BINOPS[family](lhs, rhs, mask, bits))
        elif family in _COMPARES:
            rhs, lhs = self._pop(), self._pop()
            self._push(1 if _COMPARES[family](lhs, rhs) else 0)
        elif family == "eqz":
            self._push(1 if self._pop() == 0 else 0)
        elif family == "drop":
            self._pop()
        elif family == "select":
            cond, b, a = self._pop(), self._pop(), self._pop()
            self._push(a if cond != 0 else b)
        elif family == "local.get":
            self._push(self.locals[imms[0]])
        elif family == "local.set":
            self.locals[imms[0]] = self._pop()
        elif family == "local.tee":
            value = self._pop()
            self._push(value)
            self.locals[imms[0]] = value
        elif family == "global.get":
            self._push(self.globals.get(imms[0], 0))
        elif family == "global.set":
            self.globals[imms[0]] = self._pop()
        elif family == "load":
            self._push(self._load(self._pop(), 8 if is64 else 4, mask))
        elif family == "store":
            value, addr = self._pop(), self._pop()
            self._store(addr, value, 8 if is64 else 4, mask)
        elif family == "memory.grow":
            delta = self._pop() & _I32_MASK
            current = len(self.memory) // PAGE_BYTES
            if current + delta > MAX_MEMORY_PAGES:
                self._push(-1)
            else:
                self.memory.extend(bytes(delta * PAGE_BYTES))
                self._push(current)
        elif family == "nop":
            pass
        elif family in OPENERS:
            return self._enter(pc, family)
        elif family == "else":
            # Reached only by falling out of the then-branch: skip to 'end'.
            return self.control[-1].end
        elif family == "end":
            if self.control:
                self.control.pop()
        elif family == "br":
            return self._branch(imms[0])
        elif family == "br_if":
            cond = self._pop()
            if cond != 0:
                return self._branch(imms[0])
        elif family == "call":
            self.call_stack.append((pc + 1, len(self.control)))
            return imms[0]
        elif family == "return":
            if not self.call_stack:
                return None  # top-level return halts execution
            return_pc, height = self.call_stack.pop()
            del self.control[height:]
            return return_pc
        else:  # pragma: no cover - registry and dispatch must stay in sync
            raise AssertionError(f"unhandled opcode {mnemonic}")
        return pc + 1

    def _enter(self, pc: int, family: str) -> int:
        else_index, end_index = self._structure[pc]
        frame = _ControlFrame(family, pc, end_index, len(self.stack))
        if family == "if":
            cond = self._pop()
            frame.stack_height = len(self.stack)
            self.control.append(frame)
            if cond == 0:
                # False path: enter at else-body or at 'end' (which pops).
                return else_index + 1 if else_index is not None else end_index
        else:
            self.control.append(frame)
        return pc + 1

    def _branch(self, depth: int) -> int:
        if depth >= len(self.control):
            raise Trap("branch depth exceeds runtime nesting")
        target = self.control[-1 - depth]
        del self.stack[target.stack_height :]
        if target.family == "loop":
            # Re-enter the loop body; frames above the target unwind.
            del self.control[len(self.control) - depth :]
            return target.start + 1
        del self.control[len(self.control) - depth - 1 :]
        return target.end + 1

    def _load(self, addr: int, size: int, mask: int) -> int:
        addr &= _I32_MASK
        if addr + size > len(self.memory):
            raise Trap("out-of-bounds memory read")
        raw = int.from_bytes(self.memory[addr : addr + size], "little")
        return _wrap(raw, mask)

    def _store(self, addr: int, value: int, size: int, mask: int) -> None:
        addr &= _I32_MASK
        if addr + size > len(self.memory):
            raise Trap("out-of-bounds memory write")
        self.memory[addr : addr + size] = (value & mask).to_bytes(size, "little")


def _div_s(lhs: int, rhs: int, mask: int, bits: int) -> int:
    if rhs == 0:
        raise Trap("integer division by zero")
    if lhs == -(1 << (bits - 1)) and rhs == -1:
        raise Trap("integer overflow in division")
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


def _rem_s(lhs: int, rhs: int, mask: int, bits: int) -> int:
    if rhs == 0:
        raise Trap("integer remainder by zero")
    magnitude = abs(lhs) % abs(rhs)
    return magnitude if lhs >= 0 else -magnitude


_BINOPS = {
    "add": lambda a, b, m, w: _wrap(a + b, m),
    "sub": lambda a, b, m, w: _wrap(a - b, m),
    "mul": lambda a, b, m, w: _wrap(a * b, m),
    "div_s": _div_s,
    "rem_s": _rem_s,
    "and": lambda a, b, m, w: _wrap(a & b, m),
    "or": lambda a, b, m, w: _wrap(a | b, m),
    "xor": lambda a, b, m, w: _wrap(a ^ b, m),
    "shl": lambda a, b, m, w: _wrap(a << (b % w), m),
    "shr_s": lambda a, b, m, w: a >> (b % w),
}

_COMPARES = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt_s": lambda a, b: a < b,
    "gt_s": lambda a, b: a > b,
    "le_s": lambda a, b: a <= b,
    "ge_s": lambda a, b: a >= b,
}


def execute(module: FlatModule, step_limit: int = 10_000_000) -> OpcodeTrace:
    """Run a module to completion, trap, or step limit."""
    return Interpreter(module).run(step_limit)
