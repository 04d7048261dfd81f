"""The tag rules against expectations stated by hand.

:mod:`repro.vp.decode` states the paper's propagation and clearance
rules once, as a table.  The DIFT interpreter loop, the JIT's DIFT
superblocks and the offline monitor all emit their tag code from it, so
record -> reanalyze no longer compares two hand-written copies of the
rules.  This module states the expected tags itself and checks every
emitter against them.  It works in IFP-3, where the LUB of (HC,HI) and
(LC,LI) is (HC,LI), unlike either operand:

* the rd tag of each opcode;
* the RAM tags each load reads and each store writes: aligned and
  misaligned words, halves and bytes, over uniform and mixed tag words;
* the tag each execution-clearance check tests, as its violation names
  it.

Each case runs once on the interpreter while recording, once replayed
from that recording, and once as one compiled DIFT superblock, the
generic variant.  A block compiles no system instruction, and none over
code whose tags do not clear the fetch check, so the superblock leg
leaves out the CSR, fetch, ``mret`` and trap cases.  Where the
interpreter checks and stops, and before a misaligned word, the block
must side-exit instead.

The clean variant runs every superblock case twice: from the program
entry, and from the state the interpreter reaches after the prologue
(whose loads tag s1, s2 and s3).  Each run either completes with the
hand-stated tags, or exits before its first tainted instruction with the
state the interpreter has after as many instructions.

Only the standard library is used, so the module also runs as a plain
script on interpreters without pytest::

    PYTHONPATH=src python tests/test_tag_rules.py
"""

import os
import tempfile

from repro.asm import assemble
from repro.dift.engine import RECORD
from repro.dift.monitor import reanalyze_stream
from repro.policy import SecurityPolicy, builders
from repro.vp import decode as D
from repro.vp.config import PlatformConfig
from repro.vp.jit.codegen import compile_block
from repro.vp.platform import Platform

LC_HI, LC_LI = builders.LC_HI, builders.LC_LI
HC_HI, HC_LI = builders.HC_HI, builders.HC_LI

#: s1 (x9) holds an (HC,HI) tag, s2 (x18) an (LC,LI) tag and s3 (x19) an
#: (HC,LI) tag; t1, t2 and t3 point at ``mix``, ``smix`` and ``buf``
_PROLOGUE = """
    la   t0, hi
    lw   s1, 0(t0)
    la   t0, li
    lw   s2, 0(t0)
    la   t0, top
    lw   s3, 0(t0)
    la   t1, mix
    la   t2, smix
    la   t3, buf
"""

_DATA = """
.data
.align 4
hi:      .word done
li:      .word 7
top:     .word done
mix:     .word 0x11223344
next:    .word 0x55667788
next2:   .word 0x99aabbcc
smix:    .word 0
buf:     .word 0, 0
"""

#: the class of each byte of the data words the loader classifies
_DATA_TAGS = {
    "hi": [HC_HI] * 4,
    "li": [LC_LI] * 4,
    "top": [HC_LI] * 4,
    "mix": [HC_HI, LC_LI, LC_HI, LC_HI],
    "next": [HC_HI] * 4,
    "next2": [HC_HI] * 4,
    "smix": [HC_HI, LC_LI, LC_HI, LC_HI],
}

_RAM_SIZE = 0x10000


def _case(name, body, regs=None, ram=None, violation=None, jit="run",
          code_tags=None):
    """One case: ``body`` runs after the prologue and before ``done``.

    ``regs`` maps register numbers and ``ram`` labels to the classes
    expected at the end; ``violation`` is the one expected ``(unit,
    class)``.  ``jit`` is ``"run"`` (the block completes), ``"exit"``
    (it side-exits before the instruction labelled ``check``) or
    ``None`` (no superblock leg).  ``code_tags`` classifies the bytes
    of the instruction labelled ``check``.
    """
    return {"name": name, "body": body, "regs": regs or {},
            "ram": ram or {}, "violation": violation, "jit": jit,
            "code_tags": code_tags}


_IMM = ("addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli",
        "srai")
_REG = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or",
        "and", "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem",
        "remu")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")

_CASES = [
    # ---- the rd tag of each opcode ---------------------------------- #
    *[_case(op, f"check: {op} a0, s1, 3", regs={10: HC_HI}) for op in _IMM],
    *[_case(op, f"check: {op} a0, s1, s2", regs={10: HC_LI})
      for op in _REG],
    _case("lui", "check: lui a0, 0x12345", regs={10: LC_HI}),
    _case("auipc", "check: auipc a0, 0", regs={10: LC_HI}),
    _case("jal", "check: jal a0, done", regs={10: LC_HI}),
    _case("jalr", "la t4, done\ncheck: jalr a0, 0(t4)", regs={10: LC_HI}),
    _case("li", "check: li a0, 5", regs={10: LC_HI}),
    _case("add-x0", "check: add a0, zero, s2", regs={10: LC_LI}),
    _case("addi-in-place", "check: addi s1, s1, 1", regs={9: HC_HI}),
    _case("csr", """
check:
    csrrw  a0, mscratch, s1
    csrrs  a1, mscratch, s2
    csrrci a2, mscratch, 1
    csrrwi a3, mscratch, 0
    csrrs  a4, mscratch, zero
""", regs={10: LC_HI, 11: HC_HI, 12: HC_LI, 13: HC_LI, 14: LC_HI},
          jit=None),
    # ---- the tags loads read ---------------------------------------- #
    _case("lw-mixed", "check: lw a0, 0(t1)", regs={10: HC_LI}),
    _case("lw-uniform", "check: lw a0, 4(t1)", regs={10: HC_HI}),
    _case("lw-misaligned-mixed", "check: lw a0, 1(t1)", regs={10: HC_LI},
          jit="exit"),
    _case("lw-misaligned-uniform", "check: lw a0, 5(t1)",
          regs={10: HC_HI}, jit="exit"),
    _case("lh-mixed", "check: lh a0, 0(t1)", regs={10: HC_LI}),
    _case("lhu-uniform", "check: lhu a0, 2(t1)", regs={10: LC_HI}),
    _case("lhu-misaligned", "check: lhu a0, 3(t1)", regs={10: HC_HI}),
    _case("lb", "check: lb a0, 1(t1)", regs={10: LC_LI}),
    _case("lbu", "check: lbu a0, 0(t1)", regs={10: HC_HI}),
    # ---- the tags stores write -------------------------------------- #
    _case("sw", "check: sw s2, 0(t3)",
          ram={"buf": [LC_LI] * 4 + [LC_HI] * 4}),
    _case("sw-misaligned", "check: sw s1, 1(t3)",
          ram={"buf": [LC_HI] + [HC_HI] * 4 + [LC_HI] * 3},
          jit="exit"),
    _case("sh-misaligned", "check: sh s2, 3(t3)",
          ram={"buf": [LC_HI] * 3 + [LC_LI] * 2 + [LC_HI] * 3}),
    _case("sb", "check: sb s1, 6(t3)",
          ram={"buf": [LC_HI] * 6 + [HC_HI, LC_HI]}),
    _case("sw-over-mixed", "check: sw s2, 0(t2)", ram={"smix": [LC_LI] * 4}),
    _case("sh-over-mixed", "check: sh s1, 2(t2)",
          ram={"smix": [HC_HI, LC_LI, HC_HI, HC_HI]}),
    _case("sb-x0-over-mixed", "check: sb zero, 0(t2)",
          ram={"smix": [LC_HI, LC_LI, LC_HI, LC_HI]}),
    _case("sw-x0-over-mixed", "check: sw zero, 0(t2)",
          ram={"smix": [LC_HI] * 4}),
    # ---- the tag each clearance check tests ------------------------- #
    *[_case(f"{op}-check", f"check: {op} s1, s2, done",
            violation=("branch", HC_LI), jit="exit") for op in _BRANCHES],
    _case("jalr-check", "check: jalr ra, 0(s3)",
          violation=("branch", HC_LI), jit="exit"),
    _case("load-address-check", "check: lbu a0, 0(s1)",
          violation=("mem-addr", HC_HI), jit="exit"),
    _case("store-address-check", "check: sw s2, 0(s1)",
          violation=("mem-addr", HC_HI), jit="exit"),
    _case("fetch-check-mixed", "check: li a0, 1",
          violation=("fetch", HC_LI), jit=None,
          code_tags=[LC_HI, HC_HI, LC_LI, LC_HI]),
    _case("fetch-check-uniform", "check: li a0, 1",
          violation=("fetch", LC_LI), jit=None, code_tags=[LC_LI] * 4),
    _case("mret-check", "csrw mepc, s3\ncheck: mret",
          violation=("branch", HC_LI), jit=None),
    _case("trap-check", "csrw mtvec, s3\ncheck: ecall",
          violation=("branch", HC_LI), jit=None),
    # ---- the tag a trap entry gives mepc ---------------------------- #
    _case("trap-entry", """
    csrw mepc, s3
    la   t4, handler
    csrw mtvec, t4
check: ecall
handler:
    csrr a0, mepc
""", regs={10: LC_HI}, jit=None),
]


def _program(case):
    return assemble(f".text\n_start:\n{_PROLOGUE}\n{case['body']}\n"
                    f"done:\n    ebreak\n{_DATA}")


def _platform(case, path=None):
    """A loaded VP+ whose policy classifies the data words (and the
    instruction ``check`` for a fetch case) and clears fetch for
    (LC,HI), branches for (HC,HI) and memory addresses for (LC,LI)."""
    program = _program(case)
    policy = SecurityPolicy(builders.ifp3(), default_class=LC_HI)
    policy.set_execution_clearance(fetch=LC_HI, branch=HC_HI,
                                   mem_addr=LC_LI)
    classified = dict(_DATA_TAGS)
    if case["code_tags"]:
        classified["check"] = case["code_tags"]
    for label, classes in classified.items():
        base = program.symbol(label)
        for k, cls in enumerate(classes):
            policy.classify_region(base + k, base + k + 1, cls)
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode=RECORD, ram_size=_RAM_SIZE,
        record_events=path))
    platform.load(program)
    return platform, program


def _state(case, program, lattice, reg_tags, tag_image, violations):
    """What ``case`` states an expectation for, as class names."""
    return {
        "regs": {reg: lattice.name_of(reg_tags[reg]) for reg in case["regs"]},
        "ram": {label: [lattice.name_of(tag) for tag in
                        tag_image[program.symbol(label):
                                  program.symbol(label) + len(classes)]]
                for label, classes in case["ram"].items()},
        "violations": [(v.unit, v.tag) for v in violations],
    }


def _expected(case):
    return {"regs": case["regs"], "ram": case["ram"],
            "violations": [case["violation"]] if case["violation"] else []}


def _record(case, tmp):
    """Run ``case`` on the interpreter, recording into ``tmp``."""
    path = os.path.join(tmp, "case.ev")
    platform, program = _platform(case, path)
    result = platform.run(max_instructions=1_000)
    platform.finish_recording()
    return platform, program, result, path


def _check_superblock(case):
    platform, program = _platform(case)
    cpu = platform.cpu
    instrs = [(pc, D.decode(cpu.read_word(pc)))
              for pc in range(program.entry, program.symbol("done"), 4)]
    terminated = D.JAL <= instrs[-1][1][0] <= D.BGEU
    block = compile_block(cpu, set(), None, instrs, terminated, dift=True)
    count, kind = block.fn(cpu, len(instrs))
    if case["jit"] == "exit":
        check = program.symbol("check")
        assert (kind, cpu.pc) == (1, check), (case["name"], kind, cpu.pc)
        assert count == (check - program.entry) // 4, case["name"]
        return
    assert kind == 0 and count == len(instrs), (case["name"], count, kind)
    lattice = platform.engine.lattice
    state = _state(case, program, lattice, cpu.tags,
                   bytes(platform.memory.tags), [])
    expected = dict(_expected(case), violations=[])
    assert state == expected, ("superblock", case["name"], state)


#: instructions the prologue retires before each case's body
_PROLOGUE_ONLY = assemble(f".text\n_start:\n{_PROLOGUE}\ndone:\n"
                          f"    ebreak\n{_DATA}")
_PROLOGUE_LEN = (_PROLOGUE_ONLY.symbol("done") - _PROLOGUE_ONLY.entry) // 4


def _machine(platform):
    """Registers, their tags, pc, RAM and RAM tags."""
    cpu = platform.cpu
    return (list(cpu.regs), list(cpu.tags), cpu.pc,
            bytes(platform.memory.data), bytes(platform.memory.tags))


def _reads_a_tag(platform):
    """Does the instruction at pc read a register or RAM tag above
    bottom?"""
    cpu = platform.cpu
    op, __, rs1, rs2, imm = D.decode(cpu.read_word(cpu.pc))
    if any(reg and cpu.tags[reg] != cpu._bottom for reg in (rs1, rs2)):
        return True
    if not D.LB <= op <= D.LHU:
        return False
    size = 4 if op == D.LW else 2 if op in (D.LH, D.LHU) else 1
    offset = ((cpu.regs[rs1] + imm) & 0xFFFFFFFF) - cpu.ram_base
    return any(tag != cpu._bottom
               for tag in platform.memory.tags[offset:offset + size])


def _check_clean_superblock(case, start):
    """The clean variant of the case's block from its ``start``-th
    instruction, after the interpreter retired the ones before it;
    returns the exit kind."""
    platform, program = _platform(case)
    cpu = platform.cpu
    cpu._interp_dift(start)
    instrs = [(pc, D.decode(cpu.read_word(pc)))
              for pc in range(cpu.pc, program.symbol("done"), 4)]
    terminated = D.JAL <= instrs[-1][1][0] <= D.BGEU
    block = compile_block(cpu, set(), None, instrs, terminated, dift=True,
                          clean=True)
    count, kind = block.fn(cpu, len(instrs))
    twin, __ = _platform(case)
    twin.cpu._interp_dift(start + count)
    where = (case["name"], start, count, kind)
    assert _machine(platform) == _machine(twin), where
    if kind == 0:
        assert count == len(instrs), where
        state = _state(case, program, platform.engine.lattice, cpu.tags,
                       bytes(platform.memory.tags), [])
        assert state == dict(_expected(case), violations=[]), where
    elif kind == 1:
        # only a misaligned word side-exits a clean block
        assert case["jit"] == "exit" and not case["violation"], where
        assert cpu.pc == program.symbol("check"), where
    else:
        assert kind == 3, where
        # a tainted instruction lies ahead, before the case ends
        while not _reads_a_tag(twin):
            assert twin.cpu.pc < program.symbol("done"), where
            twin.cpu._interp_dift(1)
    return kind


def test_cases_cover_every_register_result_opcode():
    stated = {case["name"].split("-")[0] for case in _CASES}
    names = {D.OP_NAMES[op] for op in D.RD_TAG}
    assert names <= stated, names - stated


def test_interpreter():
    for case in _CASES:
        with tempfile.TemporaryDirectory() as tmp:
            platform, program, result, __ = _record(case, tmp)
        assert result.reason == ("security" if case["violation"]
                                 else "ebreak"), (case["name"], result)
        state = _state(case, program, platform.engine.lattice,
                       platform.cpu.tags, bytes(platform.memory.tags),
                       result.violations)
        assert state == _expected(case), ("interpreter", case["name"], state)


def test_record_and_reanalyze():
    for case in _CASES:
        with tempfile.TemporaryDirectory() as tmp:
            platform, program, __, path = _record(case, tmp)
            offline = reanalyze_stream(path)
        state = _state(case, program, platform.engine.lattice,
                       offline.monitor.reg_tags, offline.monitor.tag_image(),
                       offline.violations)
        assert state == _expected(case), ("reanalysis", case["name"], state)


def test_dift_superblocks():
    for case in _CASES:
        if case["jit"]:
            _check_superblock(case)


def test_clean_superblocks():
    kinds = {}
    for case in _CASES:
        if case["jit"]:
            for start in (0, _PROLOGUE_LEN):
                kind = _check_clean_superblock(case, start)
                kinds.setdefault((start, kind), []).append(case["name"])
    # from the entry, every case exits at the prologue's first tagged load
    assert set(kinds) == {(0, 3), (_PROLOGUE_LEN, 0), (_PROLOGUE_LEN, 1),
                          (_PROLOGUE_LEN, 3)}, sorted(kinds)
    # after the prologue, the bodies that read no tag complete
    assert sorted(kinds[_PROLOGUE_LEN, 0]) == [
        "auipc", "jal", "jalr", "lhu-uniform", "li", "lui",
        "sb-x0-over-mixed", "sw-x0-over-mixed"]


if __name__ == "__main__":
    for _name, _check in sorted(globals().items()):
        if _name.startswith("test_") and callable(_check):
            _check()
            print(f"ok  {_name}")
