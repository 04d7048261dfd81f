"""VP-DIFT: Dynamic Information Flow Tracking for embedded binaries on a
SystemC-style RISC-V virtual prototype.

Reproduction of Pieper, Herdt, Grosse, Drechsler (DAC 2020).  The public
API surfaces the four layers of the system:

* :mod:`repro.policy` — IFP lattices and security policies (Section IV);
* :mod:`repro.dift`   — the Taint type and the DIFT engine (Section V);
* :mod:`repro.sysc`   — the SystemC/TLM-style simulation substrate;
* :mod:`repro.vp`     — the RISC-V virtual prototype (VP and VP+);
* :mod:`repro.asm`    — the RV32IM assembler for guest software;
* :mod:`repro.sw`     — guest benchmarks and attack suites;
* :mod:`repro.bench`  — Table I / Table II reproduction harness;
* :mod:`repro.casestudy` — the Section VI-A immobilizer case study;
* :mod:`repro.obs`    — observability: metrics, structured tracing;
* :mod:`repro.state`  — checkpoint/restore snapshot artifacts.

Quick start::

    from repro import (Platform, PlatformConfig, SecurityPolicy,
                       builders, assemble)

    program = assemble(open("guest.s").read())
    policy = SecurityPolicy(builders.ifp1(), default_class="LC")
    policy.clear_sink("uart0.tx", "LC")
    vp_plus = Platform.from_config(PlatformConfig(policy=policy))
    vp_plus.load(program)
    result = vp_plus.run()
"""

from repro.asm import Assembler, Program, assemble, disassemble
from repro.dift import DiftEngine, Taint, ViolationRecord
from repro.errors import (
    ClearanceException,
    DeclassificationError,
    ExecutionClearanceError,
    ReproError,
    SecurityViolation,
)
from repro.obs import MetricsRegistry, Observability
from repro.policy import Lattice, SecurityPolicy, builders
from repro.vp import Platform, PlatformConfig, RunResult, run_program

__version__ = "1.0.0"

__all__ = [
    "Platform",
    "PlatformConfig",
    "RunResult",
    "run_program",
    "SecurityPolicy",
    "Lattice",
    "builders",
    "DiftEngine",
    "Taint",
    "ViolationRecord",
    "Observability",
    "MetricsRegistry",
    "Assembler",
    "Program",
    "assemble",
    "disassemble",
    "ReproError",
    "SecurityViolation",
    "ClearanceException",
    "ExecutionClearanceError",
    "DeclassificationError",
    "__version__",
]
