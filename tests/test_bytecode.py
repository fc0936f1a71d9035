"""Parser and interpreter semantics, anchored to hand-derived oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optrace.bytecode import (
    MAX_LOCALS,
    MAX_MEMORY_PAGES,
    FlatModule,
    Instruction,
    Interpreter,
    ParseError,
    execute,
    parse_flat_module,
    serialize_module,
)
from optrace.opcodes import OPCODE_INFO, OPENERS
from optrace.workloads import (
    benchmark_module,
    benchmark_text,
    primes_module,
    primes_text,
    reference_text,
)


def run_and_get_local(body: str, locals_count: int = 1, memory: int = 0):
    text = f".locals {locals_count}\n.memory {memory}\n{body}\nlocal.set 0\n"
    interp = Interpreter(parse_flat_module(text))
    interp.run(step_limit=10_000)
    return interp.locals[0]


def executed_mnemonics(text: str, step_limit: int = 10_000):
    trace = execute(parse_flat_module(text), step_limit=step_limit)
    return [op.mnemonic for op in trace.executed]


# ---------------------------------------------------------------- parsing


def test_parse_comments_blanks_and_directives():
    module = parse_flat_module(
        "# header\n\n.locals 2\n.memory 3\nnop  # trailing comment\n"
    )
    assert module.locals_count == 2
    assert module.initial_memory_pages == 3
    assert [i.opcode.mnemonic for i in module.instructions] == ["nop"]


def test_parse_call_label_resolves_to_index():
    module = parse_flat_module("call @f\nreturn\n@f:\nnop\nreturn\n")
    assert module.instructions[0].immediates == (2,)


def test_serialize_round_trip_is_stable():
    text = (
        ".locals 2\n.memory 1\ni32.const 5\nlocal.set 1\nblock\nlocal.get 1\n"
        "br_if 0\nend\ncall @f\nreturn\n@f:\ni32.const 64\ni32.const 9\n"
        "i32.store\nreturn\n"
    )
    module = parse_flat_module(text)
    rendered = serialize_module(module)
    assert parse_flat_module(rendered) == module
    assert serialize_module(parse_flat_module(rendered)) == rendered


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("i32.frob\n", "unknown mnemonic"),
        ("i32.const\n", "takes 1 immediate"),
        ("nop 4\n", "takes 0 immediate"),
        ("i32.const zzz\n", "bad immediate"),
        (".locals 1\nlocal.get 1\n", "out of range"),
        ("local.get 0\n", "out of range"),
        ("@dup:\n@dup:\nnop\n", "duplicate label"),
        ("@broken\nnop\n", "must end with ':'"),
        ("@:\nnop\n", "empty label"),
        ("block\nnop\n", "unclosed control structure"),
        ("end\n", "'end' without matching opener"),
        ("block\nelse\nend\n", "'else' outside an if"),
        ("block\nbr 1\nend\n", "branch depth exceeds nesting"),
        ("br 0\n", "branch depth exceeds nesting"),
        (".bogus 3\n", "unknown directive"),
        (".locals\n", "takes one integer"),
        (".memory -1\n", "non-negative"),
        (f".memory {MAX_MEMORY_PAGES + 1}\n", "exceeds 256 pages"),
        (f".locals {MAX_LOCALS + 1}\n", "exceeds 50000 locals"),
        ("call @nowhere\nreturn\n", "unknown label"),
        ("call 99\n", "out of range"),
        ("block\n@inside:\nend\n", "label inside an open control structure"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_flat_module(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc_info:
        parse_flat_module("nop\nnop\ni32.frob\n")
    assert exc_info.value.line == 3


def test_too_many_locals_is_a_parse_error_on_the_directive_line():
    # The interpreter allocates every local up front, so the parser refuses
    # a count it could not hold; no interpreter is built here.
    with pytest.raises(ParseError, match=f"line 2: .locals argument exceeds {MAX_LOCALS}"):
        parse_flat_module(f"nop\n.locals {MAX_LOCALS + 1}\nnop\n")


def oracle_parse(text: str) -> FlatModule:
    """The two-pass parser parse_flat_module replaced: a scan for directives, labels,
    mnemonics, immediate counts and nesting depth, then a resolve pass over every
    instruction.  Every scan fault wins over every resolve fault."""
    instructions: list[tuple[int, str, list[str]]] = []  # (line_no, mnemonic, raw imms)
    labels: dict[str, int] = {}
    locals_count = 0
    memory_pages = 0
    depth = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            if parts[0] == ".locals":
                locals_count = _oracle_directive_int(parts, line_no, ".locals")
            elif parts[0] == ".memory":
                memory_pages = _oracle_directive_int(parts, line_no, ".memory")
            else:
                raise ParseError(line_no, f"unknown directive {parts[0]!r}")
            continue
        if line.startswith("@"):
            if not line.endswith(":"):
                raise ParseError(line_no, "label line must end with ':'")
            name = line[1:-1]
            if not name:
                raise ParseError(line_no, "empty label name")
            if name in labels:
                raise ParseError(line_no, f"duplicate label @{name}")
            if depth != 0:
                raise ParseError(line_no, "label inside an open control structure")
            labels[name] = len(instructions)
            continue
        parts = line.split()
        mnemonic, raw_imms = parts[0], parts[1:]
        info = OPCODE_INFO.get(mnemonic)
        if info is None:
            raise ParseError(line_no, f"unknown mnemonic {mnemonic!r}")
        if len(raw_imms) != info.n_immediates:
            raise ParseError(
                line_no,
                f"{mnemonic} takes {info.n_immediates} immediate(s), got {len(raw_imms)}",
            )
        family = info.opcode.family
        if family in OPENERS:
            depth += 1
        elif family == "end":
            if depth == 0:
                raise ParseError(line_no, "'end' without matching opener")
            depth -= 1
        instructions.append((line_no, mnemonic, raw_imms))

    if depth != 0:
        raise ParseError(len(text.splitlines()) or 1, "unclosed control structure at end of module")
    resolved, structure = _oracle_resolve(instructions, labels, locals_count)
    return FlatModule(resolved, structure, locals_count, memory_pages)


def _oracle_directive_int(parts: list[str], line_no: int, name: str) -> int:
    if len(parts) != 2:
        raise ParseError(line_no, f"{name} takes one integer argument")
    try:
        value = int(parts[1])
    except ValueError:
        raise ParseError(line_no, f"{name} argument must be an integer") from None
    if value < 0:
        raise ParseError(line_no, f"{name} argument must be non-negative")
    return value


def _oracle_resolve(raw, labels: dict[str, int], locals_count: int):
    """The instructions, and the (opener, else or None, end) index triples in closing order."""
    out: list[Instruction] = []
    openers: list[list] = []  # [family, index, else index]; an 'if' flips to 'if+else' at its else
    structure: list[tuple] = []
    n = len(raw)
    for index, (line_no, mnemonic, raw_imms) in enumerate(raw):
        info = OPCODE_INFO[mnemonic]
        family = info.opcode.family
        imms: list[int] = []
        for text_imm in raw_imms:
            if family == "call" and text_imm.startswith("@"):
                name = text_imm[1:]
                if name not in labels:
                    raise ParseError(line_no, f"unknown label @{name}")
                imms.append(labels[name])
                continue
            try:
                imms.append(int(text_imm))
            except ValueError:
                raise ParseError(line_no, f"bad immediate {text_imm!r}") from None

        if family in ("local.get", "local.set", "local.tee"):
            if imms[0] < 0 or imms[0] >= locals_count:
                raise ParseError(line_no, f"local index {imms[0]} out of range")
        elif family in ("global.get", "global.set"):
            if imms[0] < 0:
                raise ParseError(line_no, "global index must be non-negative")
        elif family in ("br", "br_if"):
            if imms[0] < 0:
                raise ParseError(line_no, "branch depth must be non-negative")
            if imms[0] >= len(openers):
                raise ParseError(line_no, "branch depth exceeds nesting")
        elif family == "call":
            if not 0 <= imms[0] < n:
                raise ParseError(line_no, f"call target {imms[0]} out of range")

        if family in OPENERS:
            openers.append([family, index, None])
        elif family == "else":
            if not openers or openers[-1][0] != "if":
                raise ParseError(line_no, "'else' outside an if")
            openers[-1][0] = "if+else"
            openers[-1][2] = index
        elif family == "end":
            _, opener, else_index = openers.pop()
            structure.append((opener, else_index, index))

        out.append(Instruction(info.opcode, tuple(imms)))
    return tuple(out), tuple(structure)


def outcome(parse, text: str):
    """The module `parse` makes of `text`, or the line and message of its ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, str(exc)


def _numbered(template: str, low: int, high: int):
    return st.integers(low, high).map(template.format)


# Lines a module is made of, valid and faulty alike.  '.memory' stays within
# MAX_MEMORY_PAGES, which the oracle does not know about.
LINES = st.one_of(
    st.sampled_from([
        "", "# note", "nop", "nop  # note", "  block", "loop", "if", "else", "end", "end",
        "return", "drop", "select", "i32.add", "i64.eqz", "memory.grow", "i32.store",
        "call  @a", "call @", "i32.const zzz", "br x", "local.get @a", "i32.frob",
        "i32.const", "nop 4", "br 0 1", ".bogus 3", ".locals", ".memory x", "@broken", "@:",
    ]),
    _numbered("@l{}:", 0, 3),
    _numbered("call @l{}", 0, 4),
    _numbered("call {}", -1, 12),
    _numbered("br {}", -1, 3),
    _numbered("br_if {}", -1, 3),
    _numbered("local.get {}", -1, 4),
    _numbered("local.tee {}", -1, 4),
    _numbered("global.set {}", -1, 2),
    _numbered("i64.const {}", -5, 5),
    _numbered(".locals {}", -1, 4),
    _numbered(".memory {}", -1, MAX_MEMORY_PAGES),
)

WORKLOAD_TEXTS = [benchmark_text(3, 1), reference_text(1), primes_text(20)]


@settings(max_examples=400, deadline=None)
@given(st.lists(LINES, max_size=40))
def test_parse_matches_oracle_on_random_lines(lines):
    text = "\n".join(lines)
    assert outcome(parse_flat_module, text) == outcome(oracle_parse, text)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(WORKLOAD_TEXTS),
    st.lists(st.tuples(st.floats(0, 1), LINES), max_size=4),
)
def test_parse_matches_oracle_on_workloads_with_bad_lines(text, inserts):
    lines = text.splitlines()
    for where, line in inserts:
        lines.insert(int(where * len(lines)), line)
    text = "\n".join(lines) + "\n"
    assert outcome(parse_flat_module, text) == outcome(oracle_parse, text)


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        # a label on the last line points one past the last instruction
        ("call @f\nreturn\n@f:\n", 1, "call target 2 out of range"),
        # the final .locals counts, wherever it stands
        ("local.get 1\n.locals 2\nlocal.get 2\n.locals 3\n", None, None),
        ("local.get 1\n.locals 1\n", 1, "local index 1 out of range"),
        # each spelling of an instruction is checked where it first appears
        ("nop\ncall  @f\ncall @f\n", 2, "unknown label @f"),
        ("call @f\ncall  @f\n@f:\nreturn\n", None, None),
        ("i32.const 1\nif\nelse\nelse\nend\n", 4, "'else' outside an if"),
        # a scan fault wins over an earlier resolve fault
        ("i32.const zzz\nfoo\n", 2, "unknown mnemonic 'foo'"),
        ("br 3\nblock\n", 2, "unclosed control structure"),
        # of the resolve faults, the earliest wins
        ("call @f\nbr 0\n", 1, "unknown label @f"),
        ("br 0\ncall @f\n", 1, "branch depth exceeds nesting"),
        ("br x\nbr x\n", 1, "bad immediate 'x'"),
        (f".memory {MAX_MEMORY_PAGES}\n", None, None),
        # nested structures pair in the order they close
        ("i32.const 1\nif\nblock\nend\nelse\nloop\nbr 0\nend\nend\n", None, None),
    ],
)
def test_parse_edge_cases_match_oracle(text, line, fragment):
    got = outcome(parse_flat_module, text)
    assert got == outcome(oracle_parse, text)
    if fragment is None:
        assert isinstance(got, FlatModule)
    else:
        assert got[0] == line and fragment in got[1]


def test_parse_pairs_each_opener_with_its_else_and_end():
    module = parse_flat_module(
        "block\nloop\nend\nend\n"  # 0-3: a loop nested in a block
        "i32.const 1\nif\ncall @f\nelse\nnop\nend\n"  # 4-9: an if with an else
        "i32.const 0\nif\nnop\nend\n"  # 10-13: an if without one
        "return\n"  # 14
        "@f:\nblock\nend\nreturn\n"  # 15-17: the called function
    )
    assert module.instructions[6].immediates == (15,)
    assert module.structure == ((1, None, 2), (0, None, 3), (5, 7, 9), (11, None, 13), (15, None, 16))


def test_parse_shares_one_instruction_per_text():
    module = parse_flat_module(".locals 1\nlocal.get 0\nnop\nlocal.get 0  # again\n")
    assert module.instructions[0] is module.instructions[2]


# ------------------------------------------------------------- arithmetic


@pytest.mark.parametrize(
    "body, expected",
    [
        ("i32.const 2147483647\ni32.const 1\ni32.add", -2147483648),
        ("i32.const -8\ni32.const 1\ni32.shr_s", -4),
        ("i32.const 1\ni32.const 33\ni32.shl", 2),
        ("i32.const -7\ni32.const 2\ni32.div_s", -3),
        ("i32.const -7\ni32.const 2\ni32.rem_s", -1),
        ("i32.const 7\ni32.const 2\ni32.rem_s", 1),
        ("i32.const 6\ni32.const 10\ni32.xor", 12),
        ("i32.const -1\ni32.const 0\ni32.lt_s", 1),
        ("i32.const 5\ni32.const 5\ni32.ge_s", 1),
        ("i32.const 0\ni32.eqz", 1),
        ("i64.const 9223372036854775807\ni64.const 1\ni64.add", -9223372036854775808),
        ("i64.const 40\ni64.const 2\ni64.mul", 80),
        ("i32.const 7\ni32.const 9\ni32.const 1\nselect", 7),
        ("i32.const 7\ni32.const 9\ni32.const 0\nselect", 9),
    ],
)
def test_value_semantics(body, expected):
    assert run_and_get_local(body) == expected


def test_locals_and_globals_round_values():
    text = (
        ".locals 2\ni32.const 11\nlocal.set 0\nlocal.get 0\nlocal.tee 1\n"
        "i32.const 31\ni32.add\nglobal.set 4\nglobal.get 4\nlocal.set 0\n"
    )
    interp = Interpreter(parse_flat_module(text))
    interp.run(step_limit=100)
    assert interp.locals == [42, 11]
    assert interp.globals[4] == 42


def test_memory_store_load_little_endian():
    text = (
        ".locals 1\n.memory 1\ni32.const 8\ni32.const 305419896\ni32.store\n"
        "i32.const 8\ni32.load\nlocal.set 0\n"
    )
    interp = Interpreter(parse_flat_module(text))
    interp.run(step_limit=100)
    assert interp.locals[0] == 0x12345678
    assert interp.memory[8:12] == bytes([0x78, 0x56, 0x34, 0x12])


def test_memory_grow_returns_old_size_and_caps():
    text = ".locals 1\n.memory 1\ni32.const 2\nmemory.grow\nlocal.set 0\n"
    interp = Interpreter(parse_flat_module(text))
    interp.run(step_limit=100)
    assert interp.locals[0] == 1
    assert len(interp.memory) == 3 * 65536

    capped = ".locals 1\n.memory 1\ni32.const 300\nmemory.grow\nlocal.set 0\n"
    interp = Interpreter(parse_flat_module(capped))
    interp.run(step_limit=100)
    assert interp.locals[0] == -1
    assert len(interp.memory) == 65536


# ---------------------------------------------------------------- control


def test_hand_stepped_counted_loop():
    text = (
        ".locals 1\n"
        "i32.const 0\nlocal.set 0\n"
        "loop\n"
        "local.get 0\ni32.const 1\ni32.add\nlocal.tee 0\n"
        "i32.const 3\ni32.lt_s\nbr_if 0\n"
        "end\nreturn\n"
    )
    one_pass = [
        "local.get", "i32.const", "i32.add", "local.tee",
        "i32.const", "i32.lt_s", "br_if",
    ]
    expected = ["i32.const", "local.set", "loop"] + one_pass * 3 + ["end", "return"]
    assert executed_mnemonics(text) == expected


def test_if_arms_retire_expected_opcodes():
    true_arm = "i32.const 1\nif\nnop\nelse\ndrop\nend\n"
    assert executed_mnemonics(true_arm) == ["i32.const", "if", "nop", "else", "end"]
    false_arm = "i32.const 0\nif\ndrop\nelse\nnop\nend\n"
    assert executed_mnemonics(false_arm) == ["i32.const", "if", "nop", "end"]


def test_br_exits_block_and_skips_rest():
    text = "block\nbr 0\ndrop\nend\nnop\n"
    assert executed_mnemonics(text) == ["block", "br", "nop"]


def test_call_and_return_resume_after_site():
    text = ".locals 1\ncall @f\ni32.const 1\nlocal.set 0\nreturn\n@f:\nnop\nreturn\n"
    assert executed_mnemonics(text) == [
        "call", "nop", "return", "i32.const", "local.set", "return",
    ]


def test_top_level_return_halts():
    assert executed_mnemonics("nop\nreturn\nnop\n") == ["nop", "return"]


# ------------------------------------------------------------------ traps


@pytest.mark.parametrize(
    "text, last",
    [
        ("i32.const 1\ni32.const 0\ni32.div_s\nnop\n", "i32.div_s"),
        ("i32.const -2147483648\ni32.const -1\ni32.div_s\nnop\n", "i32.div_s"),
        ("i32.const 5\ni32.const 0\ni32.rem_s\nnop\n", "i32.rem_s"),
        ("i32.const 0\ni32.load\nnop\n", "i32.load"),
        (".memory 1\ni32.const 65533\ni32.const 1\ni32.store\nnop\n", "i32.store"),
        ("drop\nnop\n", "drop"),
    ],
)
def test_traps_stop_execution_at_faulting_opcode(text, last):
    trace = execute(parse_flat_module(text))
    assert trace.executed[-1].mnemonic == last
    assert not trace.step_limit_hit


def test_step_limit_flags_and_truncates():
    trace = execute(primes_module(), step_limit=10)
    assert trace.step_limit_hit
    assert len(trace.executed) == 10
    with pytest.raises(ValueError):
        execute(primes_module(), step_limit=0)


# -------------------------------------------------------------- determinism


def test_execution_is_deterministic():
    module = benchmark_module(3, iterations=2)
    assert execute(module).executed == execute(module).executed


def test_primes_program_against_sieve_oracle():
    limit = 50
    sieve = [
        n for n in range(2, limit + 1)
        if all(n % d for d in range(2, int(n**0.5) + 1))
    ]
    interp = Interpreter(primes_module(limit))
    trace = interp.run(step_limit=100_000)
    assert not trace.step_limit_hit
    stored = [
        int.from_bytes(interp.memory[4 * k : 4 * k + 4], "little")
        for k in range(len(sieve))
    ]
    assert stored == sieve
    next_slot = int.from_bytes(
        interp.memory[4 * len(sieve) : 4 * len(sieve) + 4], "little"
    )
    assert next_slot == 0
