"""Built-in guest programs: profiling coverage, benchmarks, and a demo kernel.

The profiling module retires every opcode the interpreter implements, many
times each, so fingerprint latencies average cleanly.  Benchmark modules are
seed-varied but hold their opcode mix constant: per iteration the counts of
stack-free ops (nop, br, taken-branch shapes) stay below the level that
would starve stack-page detection, while frame-touching control ops stay
above it.  All generated programs are trap-free and end with a top-level
return so the final dispatch is always the same opcode.
"""

import numpy as np

from .bytecode import FlatModule, parse_flat_module

__all__ = [
    "reference_text",
    "reference_module",
    "benchmark_text",
    "benchmark_module",
    "primes_text",
    "primes_module",
]

_WIDTH_BINOPS = [
    "add", "sub", "mul", "div_s", "rem_s", "and", "or", "xor",
    "shl", "shr_s", "eq", "ne", "lt_s", "gt_s", "le_s", "ge_s",
]


def _coverage_width_block(width: str, addr: int) -> list[str]:
    lines = []
    for op in _WIDTH_BINOPS:
        lines += [f"{width}.const 37", f"{width}.const 5", f"{width}.{op}", "drop"]
    lines += [f"{width}.const 5", f"{width}.eqz", "drop"]
    lines += [f"{width}.const {addr}", f"{width}.const 123459", f"{width}.store"]
    lines += [f"{width}.const {addr}", f"{width}.load", "drop"]
    return lines


def _coverage_plain_block() -> list[str]:
    return [
        "nop",
        "i32.const 21",
        "local.set 1",
        "local.get 1",
        "local.tee 2",
        "drop",
        "i32.const 77",
        "global.set 0",
        "global.get 0",
        "drop",
        "i32.const 1",
        "i32.const 2",
        "i32.const 0",
        "select",
        "drop",
        "block",
        "end",
        "block",
        "i32.const 1",
        "br_if 0",
        "end",
        "block",
        "i32.const 0",
        "br_if 0",
        "end",
        "block",
        "br 0",
        "end",
        # two-pass inner loop
        "i32.const 0",
        "local.set 2",
        "loop",
        "local.get 2",
        "i32.const 1",
        "i32.add",
        "local.tee 2",
        "i32.const 2",
        "i32.lt_s",
        "br_if 0",
        "end",
        # both arms of a conditional
        "i32.const 1",
        "if",
        "nop",
        "else",
        "nop",
        "end",
        "i32.const 0",
        "if",
        "nop",
        "else",
        "nop",
        "end",
        "call @helper",
        "i32.const 1",
        "memory.grow",
        "drop",
    ]


def reference_text(repeats: int = 32) -> str:
    """Coverage program: every opcode retires at least once per repeat."""
    if repeats < 1:
        raise ValueError("repeats must be positive")
    lines = [
        "# profiling coverage program",
        ".locals 4",
        ".memory 2",
        "i32.const 0",
        "local.set 0",
        "loop",
    ]
    lines += _coverage_width_block("i32", 64)
    lines += _coverage_width_block("i64", 128)
    lines += _coverage_plain_block()
    lines += [
        "local.get 0",
        "i32.const 1",
        "i32.add",
        "local.tee 0",
        f"i32.const {repeats}",
        "i32.lt_s",
        "br_if 0",
        "end",
        "return",
        "@helper:",
        "i32.const 99",
        "drop",
        "return",
    ]
    return "\n".join(lines) + "\n"


def reference_module(repeats: int = 32) -> FlatModule:
    return parse_flat_module(reference_text(repeats))


# Per-iteration chain-link plan for benchmarks: (mnemonic, feeder) pairs.
# Feeder "const" pushes a random constant before the op; "load" pushes a
# value read from memory; "local"/"global" read state.  Counts are fixed so
# the opcode mix (and hence detection margins) is seed-independent.
_BENCH_PAIRS = (
    [("i32.add", "const")] * 4
    + [("i32.sub", "const")] * 4
    + [("i32.shl", "const")] * 3
    + [("i32.shr_s", "const")] * 3
    + [("i32.and", "const")] * 3
    + [("i32.or", "const")] * 3
    + [("i32.xor", "const")] * 3
    + [("i32.eq", "const")] * 4
    + [("i32.ne", "const")] * 4
    + [("i32.lt_s", "const")] * 3
    + [("i32.gt_s", "const")] * 3
    + [("i32.le_s", "const")] * 3
    + [("i32.ge_s", "const")] * 3
    + [("i64.add", "const")] * 2
    + [("i64.sub", "const")] * 2
    + [("i64.and", "const")] * 2
    + [("i64.eq", "const")] * 2
    + [("i64.lt_s", "const")] * 2
    + [("i32.mul", "const")] * 2
    + [("i32.div_s", "const")] * 2
    + [("i32.rem_s", "const")] * 2
    + [("i32.add", "local")] * 3
    + [("i32.sub", "local")] * 2
    + [("i32.xor", "local")] * 2
    + [("i32.or", "global")]
    + [("i32.add", "load")] * 2
    + [("i64.add", "load")]
)

_BENCH_UNARY = ["i32.eqz", "i32.eqz", "i64.eqz", "local.tee 1"]


def benchmark_text(seed: int, iterations: int = 55) -> str:
    """Seed-varied victim program with a fixed opcode mix per iteration.

    Iterations are unrolled rather than looped, so constants and link order
    differ between iterations as well as between seeds while per-iteration
    opcode counts stay exactly constant.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    rng = np.random.default_rng(seed)
    lines = [
        f"# benchmark program, seed {seed}",
        ".locals 4",
        ".memory 2",
        # seed some state the chains can read back
        "i32.const 64",
        f"i32.const {int(rng.integers(1, 1 << 16))}",
        "i32.store",
        f"i32.const {int(rng.integers(1, 1 << 16))}",
        "local.set 1",
        f"i32.const {int(rng.integers(1, 1 << 8))}",
        "global.set 0",
    ]
    for it in range(iterations):
        pairs = list(_BENCH_PAIRS)
        rng.shuffle(pairs)
        unary = list(_BENCH_UNARY)
        rng.shuffle(unary)
        # three chains of pair links, each opened by a constant and closed
        # by drop / local.set
        cuts = sorted(int(v) for v in rng.choice(len(pairs) - 2, size=2, replace=False) + 1)
        chains = [pairs[: cuts[0]], pairs[cuts[0] : cuts[1]], pairs[cuts[1] :]]
        closers = ["drop", "drop", "local.set 2"]
        for chain, closer in zip(chains, closers):
            lines.append(f"i32.const {int(rng.integers(1, 1 << 10))}")
            for op, feeder in chain:
                if feeder == "const":
                    # divisor feeders stay positive so div/rem cannot trap
                    lines.append(f"i32.const {int(rng.integers(3, 97))}")
                elif feeder == "local":
                    lines.append("local.get 1")
                elif feeder == "global":
                    lines.append("global.get 0")
                else:
                    lines.append("i32.const 64")
                    lines.append("i32.load")
                lines.append(op)
            lines.append(closer)
        # unary links as their own mini chain
        lines.append(f"i32.const {int(rng.integers(1, 1 << 10))}")
        lines += unary
        lines.append("drop")
        # memory traffic
        lines.append("i32.const 96")
        lines.append(f"i32.const {int(rng.integers(1, 1 << 20))}")
        lines.append("i32.store")
        lines.append("i32.const 160")
        lines.append(f"i64.const {int(rng.integers(1, 1 << 40))}")
        lines.append("i64.store")
        # control mix: empty blocks keep frame-page traffic up
        lines += ["block", "end", "block", "end", "block", "end"]
        lines += [
            f"i32.const {it % 2}",
            "if",
            "nop",
            "else",
            "nop",
            "end",
        ]
        lines += ["block", f"i32.const {(it + 1) % 2}", "br_if 0", "end"]
        lines += ["block", "br 0", "end"]
        lines.append("nop")
        # two-pass counted loop
        lines += [
            "i32.const 0",
            "local.set 3",
            "loop",
            "local.get 3",
            "i32.const 1",
            "i32.add",
            "local.tee 3",
            "i32.const 2",
            "i32.lt_s",
            "br_if 0",
            "end",
        ]
        lines += ["call @helper"]
        lines += ["i32.const 1", "memory.grow", "drop"]
        lines += ["i32.const 240", "global.set 1"]
    lines += [
        "return",
        "@helper:",
        f"i32.const {int(rng.integers(1, 1 << 10))}",
        "drop",
        "return",
    ]
    return "\n".join(lines) + "\n"


def benchmark_module(seed: int, iterations: int = 55) -> FlatModule:
    return parse_flat_module(benchmark_text(seed, iterations))


def primes_text(limit: int = 50) -> str:
    """Trial-division prime sieve; stores each prime to linear memory."""
    return f"""\
# trial-division primes up to {limit}
.locals 3
.memory 1
i32.const 2
local.set 0
loop
i32.const 2
local.set 1
block
block
loop
local.get 1
local.get 1
i32.mul
local.get 0
i32.gt_s
br_if 1
local.get 0
local.get 1
i32.rem_s
i32.eqz
br_if 2
local.get 1
i32.const 1
i32.add
local.set 1
br 0
end
end
local.get 2
i32.const 4
i32.mul
local.get 0
i32.store
local.get 2
i32.const 1
i32.add
local.set 2
end
local.get 0
i32.const 1
i32.add
local.tee 0
i32.const {limit}
i32.le_s
br_if 0
end
return
"""


def primes_module(limit: int = 50) -> FlatModule:
    return parse_flat_module(primes_text(limit))
