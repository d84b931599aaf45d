"""Buffer management (BM) schemes.

This package contains the paper's primary contribution (:class:`Occamy`) and
every baseline it is evaluated against:

* :class:`DynamicThreshold` -- the de facto BM (DT, Choudhury & Hahne 1998).
* :class:`StaticThreshold`, :class:`CompleteSharing`,
  :class:`CompletePartitioning` -- classic static schemes.
* :class:`ABM` -- Active Buffer Management (Addanki et al., SIGCOMM 2022).
* :class:`Pushout` -- the classic preemptive scheme considered optimal.
* :class:`Occamy` -- DT-style proactive admission with a reactive head-drop
  expulsion engine driven by redundant memory bandwidth.

Schemes are attached to a :class:`repro.switchsim.SharedMemorySwitch`, which
consults them on every packet arrival and informs them of every enqueue,
dequeue and drop.
"""

from repro.core.base import AdmissionDecision, BufferManager, EvictionRequest, QueueView
from repro.core.dt import DynamicThreshold
from repro.core.static import CompletePartitioning, CompleteSharing, StaticThreshold
from repro.core.abm import ABM
from repro.core.pushout import Pushout
from repro.core.occamy import Occamy
from repro.core.expulsion import ExpulsionEngine, TokenBucket
from repro.core.registry import (
    available_schemes,
    make_buffer_manager,
    register_scheme,
    scheme_defaults,
    unregister_scheme,
)

__all__ = [
    "ABM",
    "AdmissionDecision",
    "BufferManager",
    "CompletePartitioning",
    "CompleteSharing",
    "DynamicThreshold",
    "EvictionRequest",
    "ExpulsionEngine",
    "Occamy",
    "Pushout",
    "QueueView",
    "StaticThreshold",
    "TokenBucket",
    "available_schemes",
    "make_buffer_manager",
    "register_scheme",
    "scheme_defaults",
    "unregister_scheme",
]
