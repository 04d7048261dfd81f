"""Dynamic Information Flow Tracking core: Taint type and engine."""

from repro.dift.engine import (MAX_TAG, RAISE, RECORD, DiftEngine,
                               ViolationRecord)
from repro.dift.taint import Taint

__all__ = [
    "DiftEngine",
    "ViolationRecord",
    "RAISE",
    "RECORD",
    "Taint",
    "MAX_TAG",
]
