"""Built-in programs: coverage, opcode mix, and reproducibility."""

from collections import Counter

import pytest

from optrace.bytecode import execute
from optrace.opcodes import all_opcodes
from optrace.workloads import (
    benchmark_module,
    benchmark_text,
    primes_module,
    reference_module,
    reference_text,
)


def mnemonics(module):
    return [op.mnemonic for op in execute(module).executed]


# --------------------------------------------------------------- reference


def test_reference_retires_every_opcode():
    executed = set(mnemonics(reference_module(repeats=1)))
    assert executed == {info.mnemonic for info in all_opcodes()}


def test_reference_scales_linearly_with_repeats():
    one = len(mnemonics(reference_module(repeats=1)))
    three = len(mnemonics(reference_module(repeats=3)))
    # Fixed prologue/epilogue around a repeated body.
    assert one < three < 3 * one + 50


def test_reference_rejects_nonpositive_repeats():
    with pytest.raises(ValueError, match="positive"):
        reference_text(0)


def test_reference_finishes_without_hitting_the_limit():
    assert not execute(reference_module(repeats=2)).step_limit_hit


# --------------------------------------------------------------- benchmark


def test_benchmark_text_is_deterministic_per_seed():
    assert benchmark_text(7, iterations=3) == benchmark_text(7, iterations=3)
    assert benchmark_text(7, iterations=3) != benchmark_text(8, iterations=3)


def test_benchmark_opcode_mix_is_seed_independent():
    a = Counter(mnemonics(benchmark_module(0, iterations=3)))
    b = Counter(mnemonics(benchmark_module(123, iterations=3)))
    assert a == b


def test_benchmark_orders_differ_between_seeds():
    a = mnemonics(benchmark_module(0, iterations=3))
    b = mnemonics(benchmark_module(123, iterations=3))
    assert a != b


def test_benchmark_is_wide_and_long_at_default_scale():
    executed = mnemonics(benchmark_module(0))
    assert len(executed) >= 10_000
    assert len(set(executed)) >= 30


def test_benchmark_iteration_structure():
    iterations = 4
    counts = Counter(mnemonics(benchmark_module(5, iterations=iterations)))
    # One helper call and one linear-memory resize per unrolled iteration.
    assert counts["call"] == iterations
    assert counts["memory.grow"] == iterations


def test_benchmark_never_traps():
    for seed in range(6):
        trace = execute(benchmark_module(seed, iterations=2))
        assert trace.executed[-1].mnemonic == "return"
        assert not trace.step_limit_hit


def test_benchmark_rejects_nonpositive_iterations():
    with pytest.raises(ValueError, match="positive"):
        benchmark_text(0, iterations=0)


# ------------------------------------------------------------------ primes


def test_primes_runs_to_completion():
    trace = execute(primes_module(limit=50))
    assert not trace.step_limit_hit
    assert trace.executed[-1].mnemonic == "return"


def test_primes_uses_a_small_fixed_vocabulary():
    executed = set(mnemonics(primes_module(limit=30)))
    assert "i32.rem_s" in executed
    assert "br_if" in executed
    assert len(executed) <= 20
