"""The VP and VP+ interpreter loops are one template compiled twice.

``repro.vp.cpu`` writes the quantum loop once, as ``Cpu._interp``, with
DIFT-only code under ``if _DIFT:`` and plain-only code under ``if not
_DIFT:``, and compiles it at import into ``Cpu._interp_plain`` (the VP)
and ``Cpu._interp_dift`` (the VP+), with the flag replaced by a literal
and the opcode and tag-rule placeholders by one-line expansions of the
tables in ``repro.vp.decode``.  These checks read the compiled bytecode: the plain loop
must carry none of the DIFT code (or Table II's VP baseline would pay
for hooks it never uses), neither loop may test the flag at run time or
name a placeholder, and profiles and tracebacks must still tell the two
loops apart and point at the template's lines.

Only the standard library is used, so the module also runs as a plain
script on interpreters without pytest::

    PYTHONPATH=src python tests/test_interp_template.py
"""

import cProfile
import dis
import os
import pstats
import re

from repro.bench.workloads import WORKLOADS
from repro.vp import cpu as cpu_module
from repro.vp.cpu import Cpu

#: locals that exist only in the DIFT loop
_DIFT_LOCALS = {"tags", "lub", "flow", "mtags", "tags32", "emitq", "dirty",
                "fetch_req", "branch_req", "memaddr_req"}

#: attribute and global names only the DIFT loop reads
_DIFT_ATTRS = {"check_execution", "ram_tags", "tags32", "_emitq",
               "dirty_pages", "fetch_req", "branch_req", "memaddr_req",
               "hot_dift", "ready_dift", "blocks_dift"}
_DIFT_GLOBALS = {"EV_STEP", "EV_LOAD", "EV_STORE", "EV_MMIO_LOAD",
                 "EV_MMIO_STORE", "EV_FAULT_ACCESS", "SECURITY"}

#: names only the plain loop uses: demand mode's RETAINT handovers
_PLAIN_ATTRS = {"taint_introduced", "clean", "hot_plain", "ready_plain",
                "blocks_plain"}
_PLAIN_GLOBALS = {"RETAINT"}

#: the template's placeholders, each replaced before compiling
_PLACEHOLDERS = {"_DIFT", "_VALUE", "_TAKEN", "_RD_TAG", "_CHECK_TAG",
                 "_LOAD_TAG", "_WORD_TAG", "_STORE_TAG", "_STORE_WORD"}

#: instructions that pass a condition through to its jump unchanged
_TRANSPARENT = {"TO_BOOL", "NOT_TAKEN", "COPY", "EXTENDED_ARG", "CACHE",
                "NOP"}

def _names(fn, *kinds):
    """Names the instructions of ``fn`` use, for opnames containing any
    of ``kinds`` (3.13's ``LOAD_FAST_LOAD_FAST`` carries a pair)."""
    names = set()
    for ins in dis.get_instructions(fn):
        if any(kind in ins.opname for kind in kinds):
            argval = ins.argval
            names.update(argval if isinstance(argval, tuple) else (argval,))
    return names


def _names_by_line(fn):
    """``{line: names loaded}`` over the instructions of ``fn``."""
    loaded = {}
    line = None
    for ins in dis.get_instructions(fn):
        if hasattr(ins, "line_number"):  # 3.13+
            line = ins.line_number
        elif ins.starts_line is not None:
            line = ins.starts_line
        if "LOAD" in ins.opname and ins.opname != "LOAD_CONST":
            argval = ins.argval
            loaded.setdefault(line, set()).update(
                argval if isinstance(argval, tuple) else (argval,))
    return loaded


def _constant_conditions(fn):
    """Conditional jumps whose condition is a compile-time constant, such
    as a flag test 3.9 does not fold (``if False and x:``)."""
    code = [ins for ins in dis.get_instructions(fn)
            if ins.opname not in _TRANSPARENT]
    return [(prev.argval, ins.opname, ins.offset)
            for prev, ins in zip(code, code[1:])
            if prev.opname == "LOAD_CONST" and "JUMP_IF" in ins.opname]


def test_both_loops_compile_from_one_template():
    assert not hasattr(Cpu, "_interp"), "the template must not stay callable"
    source = os.path.realpath(cpu_module.__file__)
    with open(source, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    firsts = set()
    for name in ("_interp_plain", "_interp_dift"):
        fn = getattr(Cpu, name)
        code = fn.__code__
        assert code.co_name == name
        assert fn.__qualname__ == f"Cpu.{name}"
        assert os.path.realpath(code.co_filename) == source
        firsts.add(code.co_firstlineno)
    assert len(firsts) == 1
    assert lines[firsts.pop() - 1].strip().startswith("def _interp(self")


def test_plain_loop_carries_no_dift_code():
    plain = Cpu._interp_plain
    # a DIFT local the plain loop never binds would read as a global
    variables = _names(plain, "FAST", "DEREF", "GLOBAL", "NAME")
    assert not variables & (_DIFT_LOCALS | _DIFT_GLOBALS)
    assert not _names(plain, "ATTR", "METHOD") & _DIFT_ATTRS


def test_dift_loop_carries_no_plain_only_code():
    dift = Cpu._interp_dift
    assert not _names(dift, "ATTR", "METHOD") & _PLAIN_ATTRS
    assert not _names(dift, "GLOBAL", "NAME") & _PLAIN_GLOBALS
    # the DIFT-only names this check looks for do appear in the DIFT loop
    assert _DIFT_LOCALS <= _names(dift, "FAST", "DEREF")
    assert _DIFT_ATTRS <= _names(dift, "ATTR", "METHOD")


def test_neither_loop_tests_the_flag():
    for fn in (Cpu._interp_plain, Cpu._interp_dift):
        assert "_DIFT" not in fn.__code__.co_names
        assert "_DIFT" not in _names(fn, "GLOBAL", "NAME", "FAST", "DEREF")
        assert not _constant_conditions(fn), fn.__name__


def test_no_placeholder_survives():
    for fn in (Cpu._interp_plain, Cpu._interp_dift):
        code = fn.__code__
        names = set(code.co_names) | set(code.co_varnames)
        assert not _PLACEHOLDERS & names, fn.__name__


def test_expansions_keep_the_template_line_numbers():
    """Each placeholder expands on its own line: the next line with code
    still holds its own code, not the rest of an expansion."""
    with open(os.path.realpath(cpu_module.__file__),
              encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    seen = set()
    for fn in (Cpu._interp_plain, Cpu._interp_dift):
        loaded = _names_by_line(fn)
        numbers = sorted(number for number in loaded if number)
        for number, following in zip(numbers, numbers[1:]):
            # `taken = _TAKEN(D.BEQ, D.BGEU)`, `t = _LOAD_TAG(1)`, ...
            names = set(re.findall(r"\b(_[A-Z_]+)\(", lines[number - 1]))
            if not names & _PLACEHOLDERS:
                continue
            seen |= names & _PLACEHOLDERS
            # `if taken:` loads taken, `if d[1]:` loads d
            words = set(re.findall(r"\w+", lines[following - 1]))
            assert loaded[following] <= words, (fn.__name__, following)
    assert seen == _PLACEHOLDERS - {"_DIFT"}


def test_profile_lists_the_two_loops_apart():
    """A demand-mode run retires instructions on both loops; cProfile
    keys its stats by (file, first line, name) and must keep them as two
    entries pointing at the template."""
    platform = WORKLOADS["simple-sensor"].make_platform(
        "quick", dift=True, dift_mode="demand")
    profiler = cProfile.Profile()
    profiler.runcall(platform.run, max_instructions=40_000)
    live = platform.cpu.liveness
    assert live.fast_steps > 0 and live.slow_steps > 0
    source = os.path.realpath(cpu_module.__file__)
    first = Cpu._interp_plain.__code__.co_firstlineno
    entries = {name for (path, line, name) in pstats.Stats(profiler).stats
               if name.startswith("_interp")
               and os.path.realpath(path) == source and line == first}
    assert entries == {"_interp_plain", "_interp_dift"}


if __name__ == "__main__":
    for _name, _check in sorted(globals().items()):
        if _name.startswith("test_") and callable(_check):
            _check()
            print(f"ok  {_name}")
