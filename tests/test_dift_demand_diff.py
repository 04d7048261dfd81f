"""Differential tests: demand-driven DIFT (VP+d) must equal full DIFT.

The demand optimisation (``dift_mode="demand"``) fast-steps while the
machine is provably clean and falls back to the full tag-propagating
loop the moment a non-bottom tag enters the machine.  Its soundness
claim is *bit-exactness*: for any workload, both modes must produce
identical violation records, identical final register/CSR tags and an
identical RAM shadow — the optimisation may only change host time.

These tests run every case-study scenario, every applicable
Wilander–Kamkar attack and every Table II workload under both modes and
compare complete architectural+taint snapshots.
"""

import hashlib

import pytest

from repro.bench.table1 import code_injection_policy
from repro.bench.workloads import TABLE2_ORDER, WORKLOADS
from repro.casestudy import immobilizer as cs
from repro.dift.engine import RECORD
from repro.dift.liveness import PAGE_SIZE, TaintLiveness
from repro.sw import immobilizer as immo_sw
from repro.sw import wk_suite
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform

#: identical instruction budget for both modes of a differential pair
_BENCH_CAP = 120_000
_ATTACK_CAP = 200_000


def _snapshot(platform, result):
    """Everything the two modes must agree on, hashable and comparable."""
    return {
        "instructions": result.instructions,
        "reason": result.reason,
        "exit": result.exit_code,
        "violations": tuple(
            (v.kind, v.tag, v.required, v.unit, v.pc, v.context)
            for v in result.violations),
        "reg_tags": tuple(platform.cpu.tags),
        "csr_tags": platform.cpu.csr.tag_values(),
        "mem_digest": hashlib.sha256(bytes(platform.memory.tags))
        .hexdigest(),
        "console": platform.console(),
    }


def _assert_identical(full, demand):
    for key in full:
        assert full[key] == demand[key], \
            f"demand mode diverged from full mode on {key!r}"


# --------------------------------------------------------------------- #
# immobilizer case study (Section VI-A)
# --------------------------------------------------------------------- #

_SCENARIOS = {
    "protocol": (b"c", "fixed", False),
    "dump-vulnerable": (b"d", "vulnerable", False),
    "dump-fixed": (b"dq", "fixed", False),
    "attack1-direct-pin": (b"1", "fixed", False),
    "attack2-branch-on-pin": (b"2", "fixed", False),
    "attack3-overwrite-pin": (b"3" + bytes(16) + b"c", "fixed", False),
    "entropy-baseline-policy": (b"4c", "fixed", False),
    "entropy-per-byte-policy": (b"4c", "fixed", True),
}


def _run_immobilizer(commands, variant, per_byte, dift_mode):
    program = immo_sw.build(variant=variant, n_challenges=2)
    policy = (cs.per_byte_policy if per_byte else cs.baseline_policy)(
        program)
    platform = Platform.from_config(PlatformConfig(policy=policy, engine_mode=RECORD,
                        aes_declassify_to="(LC,LI)", dift_mode=dift_mode))
    platform.load(program)
    engine = cs.EngineEcu(platform.can_bus, cs.PIN, n_challenges=2)
    platform.uart.feed(commands)
    engine.start()
    result = platform.run(max_instructions=3_000_000)
    return platform, result


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_immobilizer_scenarios_identical(scenario):
    commands, variant, per_byte = _SCENARIOS[scenario]
    full_p, full_r = _run_immobilizer(commands, variant, per_byte, "full")
    demand_p, demand_r = _run_immobilizer(commands, variant, per_byte,
                                          "demand")
    _assert_identical(_snapshot(full_p, full_r),
                      _snapshot(demand_p, demand_r))


def test_immobilizer_demand_auto_disables():
    """The baseline policy's default class (LC,LI) is not the lattice
    bottom, so the machine can never be clean: a demand config builds
    the full-mode CPU, with no taint liveness to switch off later."""
    platform, _ = _run_immobilizer(b"c", "fixed", False, "demand")
    assert platform.cpu.liveness is None
    assert platform.cpu.dift_mode == "full"
    assert repr(platform).startswith("Platform(VP+,")


# --------------------------------------------------------------------- #
# Wilander–Kamkar attack suite (Section VI-B / Table I)
# --------------------------------------------------------------------- #

_APPLICABLE = [spec.number for spec in wk_suite.SPECS if spec.applicable]


def _run_attack(number, dift_mode):
    program, attacker_input = wk_suite.build_attack(number)
    policy = code_injection_policy(program)
    platform = Platform.from_config(PlatformConfig(policy=policy, engine_mode=RECORD,
                        dift_mode=dift_mode))
    platform.load(program)
    platform.uart.feed(attacker_input)
    result = platform.run(max_instructions=_ATTACK_CAP)
    return platform, result


@pytest.mark.parametrize("number", _APPLICABLE)
def test_wk_attacks_identical(number):
    full_p, full_r = _run_attack(number, "full")
    demand_p, demand_r = _run_attack(number, "demand")
    _assert_identical(_snapshot(full_p, full_r),
                      _snapshot(demand_p, demand_r))
    # every applicable attack must still be *detected* in demand mode
    assert demand_r.detected


# --------------------------------------------------------------------- #
# Table II workloads
# --------------------------------------------------------------------- #


def _run_bench(name, dift_mode):
    platform = WORKLOADS[name].make_platform("quick", dift=True,
                                             dift_mode=dift_mode)
    result = platform.run(max_instructions=_BENCH_CAP)
    return platform, result


@pytest.mark.parametrize("name", TABLE2_ORDER)
def test_table2_workloads_identical(name):
    full_p, full_r = _run_bench(name, "full")
    demand_p, demand_r = _run_bench(name, "demand")
    _assert_identical(_snapshot(full_p, full_r),
                      _snapshot(demand_p, demand_r))


def test_clean_workload_runs_fast_path():
    """qsort never touches tainted data: nearly every instruction must
    retire on the fast path (the whole point of demand mode)."""
    platform, result = _run_bench("qsort", "demand")
    live = platform.cpu.liveness
    assert live is not None
    assert live.fast_steps >= 0.95 * result.instructions


def test_tainted_workload_retaints_and_reclaims():
    """simple-sensor reads a classified MMIO source: the fast path must
    hand over to the full loop (retaint) and reclaim back to clean once
    the tainted values decay."""
    platform, result = _run_bench("simple-sensor", "demand")
    live = platform.cpu.liveness
    assert live is not None
    assert live.slow_steps > 0, "classified sensor reads never slow-pathed"
    assert live.fast_steps > 0, "machine never ran clean"
    assert live.reclaims > 0, "machine never reclaimed back to clean"
    assert live.fast_steps + live.slow_steps == result.instructions


# --------------------------------------------------------------------- #
# TaintLiveness unit behaviour
# --------------------------------------------------------------------- #


class _FakeCsr:
    def __init__(self, tags=None):
        self._tags = dict(tags or {})

    def tag_values(self):
        return dict(self._tags)


class _FakeCpu:
    def __init__(self, bottom=0, ram_pages=4):
        self.tags = [bottom] * 32
        self.csr = _FakeCsr()
        self.ram_tags = bytearray([bottom]) * (PAGE_SIZE * ram_pages)


class TestTaintLiveness:
    def test_starts_clean(self):
        live = TaintLiveness(bottom_tag=0)
        assert live.clean
        assert live.dirty_pages == set()

    def test_taint_introduced_clears_clean(self):
        live = TaintLiveness(bottom_tag=0)
        live.taint_introduced()
        assert not live.clean

    def test_note_memory_taint_marks_page_span(self):
        live = TaintLiveness(bottom_tag=0)
        live.note_memory_taint(4090, 12)      # straddles pages 0 and 1
        assert live.dirty_pages == {0, 1}
        assert not live.clean

    def test_note_memory_taint_zero_length_is_noop(self):
        live = TaintLiveness(bottom_tag=0)
        live.note_memory_taint(100, 0)
        assert live.clean and not live.dirty_pages

    def test_reclaim_scans_only_dirty_pages(self):
        cpu = _FakeCpu()
        live = TaintLiveness(bottom_tag=0)
        cpu.ram_tags[5000] = 2
        live.note_memory_taint(5000, 1)
        assert not live.try_reclaim(cpu)      # page 1 still tainted
        cpu.ram_tags[5000] = 0
        assert live.try_reclaim(cpu)
        assert live.clean and not live.dirty_pages
        assert live.reclaims == 1

    def test_reclaim_blocked_by_register_tag(self):
        cpu = _FakeCpu()
        live = TaintLiveness(bottom_tag=0)
        live.taint_introduced()
        cpu.tags[7] = 3
        assert not live.try_reclaim(cpu)
        cpu.tags[7] = 0
        assert live.try_reclaim(cpu)

    def test_reclaim_blocked_by_csr_tag(self):
        cpu = _FakeCpu()
        cpu.csr = _FakeCsr({0x300: 0, 0x340: 2})
        live = TaintLiveness(bottom_tag=0)
        live.taint_introduced()
        assert not live.try_reclaim(cpu)

    def test_maybe_reclaim_backs_off_exponentially(self):
        cpu = _FakeCpu()
        cpu.tags[1] = 2                       # permanently tainted
        live = TaintLiveness(bottom_tag=0)
        live.taint_introduced()
        attempts_at_quantum = []
        for quantum in range(1, 128):
            before = live.reclaim_attempts
            live.maybe_reclaim(cpu)
            if live.reclaim_attempts > before:
                attempts_at_quantum.append(quantum)
        # scans happen at 1, 1+2, 1+2+4, ... then every _MAX_BACKOFF
        gaps = [b - a for a, b in zip(attempts_at_quantum,
                                      attempts_at_quantum[1:])]
        assert gaps[:5] == [2, 4, 8, 16, 32]
        assert all(gap <= 64 for gap in gaps)


class TestReclaimPruning:
    def test_clean_prefix_pruned_scan_stops_at_taint(self):
        cpu = _FakeCpu()
        live = TaintLiveness(0)
        live.note_memory_taint(0, 4 * PAGE_SIZE)  # pages 0..3 dirty
        cpu.ram_tags[3 * PAGE_SIZE + 10] = 2      # only page 3 tainted
        assert not live.try_reclaim(cpu)
        # pages 0..2 verified clean and pruned; page 3 stopped the scan
        assert live.dirty_pages == {3}
        assert live.pages_scanned == 4

    def test_skipped_pages_counts_pruning_win(self):
        cpu = _FakeCpu()
        live = TaintLiveness(0)
        live.note_memory_taint(0, 4 * PAGE_SIZE)
        cpu.ram_tags[3 * PAGE_SIZE] = 2
        live.try_reclaim(cpu)
        assert live.reclaim_skipped_pages == 0  # first scan skips nothing
        live.try_reclaim(cpu)
        # a flat reclaim would have rescanned all 4 dirtied pages; the
        # pruned set holds 1, so 3 rescans were avoided
        assert live.reclaim_skipped_pages == 3
        assert live.pages_scanned == 5

    def test_successful_reclaim_resets_high_water(self):
        cpu = _FakeCpu()
        live = TaintLiveness(0)
        live.note_memory_taint(0, 4 * PAGE_SIZE)
        cpu.ram_tags[PAGE_SIZE] = 2
        assert not live.try_reclaim(cpu)
        cpu.ram_tags[PAGE_SIZE] = 0
        assert live.try_reclaim(cpu)
        assert live.clean and not live.dirty_pages
        # a fresh taint epoch starts from a zero baseline
        live.note_memory_taint(0, PAGE_SIZE)
        assert live.try_reclaim(cpu)
        assert live.reclaim_skipped_pages == 1  # only the earlier epoch's

    def test_retaint_readds_pruned_page(self):
        cpu = _FakeCpu()
        live = TaintLiveness(0)
        live.note_memory_taint(0, 2 * PAGE_SIZE)
        cpu.ram_tags[PAGE_SIZE] = 2
        live.try_reclaim(cpu)
        assert live.dirty_pages == {1}
        # the pruned page 0 is re-tainted: the listener must re-add it
        cpu.ram_tags[5] = 2
        live.note_memory_taint(5, 1)
        assert not live.try_reclaim(cpu)
        assert 0 in live.dirty_pages

    def test_pages_past_ram_size_dropped_without_scan(self):
        cpu = _FakeCpu(ram_pages=2)
        live = TaintLiveness(0)
        live.note_memory_taint(0, 1)
        live.dirty_pages.add(100)  # stale page from a larger config
        live._dirty_high_water = 2
        assert live.try_reclaim(cpu)
        assert live.pages_scanned == 1  # page 100 dropped, never counted

    def test_counters_round_trip(self):
        cpu = _FakeCpu()
        live = TaintLiveness(0)
        live.note_memory_taint(0, 4 * PAGE_SIZE)
        cpu.ram_tags[2 * PAGE_SIZE] = 2
        live.try_reclaim(cpu)
        live.try_reclaim(cpu)
        state = live.state_dict()
        other = TaintLiveness(0)
        other.load_state_dict(state)
        assert other.pages_scanned == live.pages_scanned
        assert other.reclaim_skipped_pages == live.reclaim_skipped_pages
        assert other._dirty_high_water == live._dirty_high_water
        assert other.state_dict() == state
