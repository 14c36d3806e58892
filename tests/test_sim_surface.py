"""The settable surface of the in-process stack.

``ReoCache.build`` and ``ReoCache.enable_supervision`` hold every default of
the simulated cache; the components they assemble take their collaborators
as required arguments, so a value set on the facade cannot be replaced by a
component's own fallback. A value only tests vary is a module constant,
which a test may monkeypatch (``hotness.GHOST_CAPACITY``,
``plotting.HEIGHT``); a new parameter needs a product caller (ROADMAP aim 2:
the same behaviour from the least code).
"""

import inspect

import pytest

from repro.backend.store import BackendStore
from repro.cache.manager import CacheManager
from repro.core.hotness import HotnessTracker
from repro.core.recovery import RecoveryManager
from repro.core.reo import ReoCache
from repro.core.supervisor import RecoverySupervisor, ScrubScheduler
from repro.core.warmup import WarmupAdvisor
from repro.osd.initiator import OsdInitiator
from repro.osd.target import OsdTarget
from repro.sim.clock import SimClock

SURFACE = {
    ReoCache.build: (
        "policy", "num_devices", "cache_bytes", "chunk_size", "device_model",
        "backend_model", "reclassify_interval", "hotness_size_exponent",
        "prioritized_recovery", "eviction_policy", "backend",
    ),
    ReoCache.enable_supervision: ("health_policy", "spares", "scrub_interval", "injector"),
    CacheManager: ("initiator", "backend", "hotness", "reclassify_interval", "eviction"),
    HotnessTracker: ("size_exponent",),
    RecoveryManager: ("target", "cache_manager", "prioritized"),
    RecoverySupervisor: ("cache", "monitor", "injector", "spares", "scrub_interval"),
    ScrubScheduler: ("cache", "interval"),
    OsdTarget: ("array", "policy"),
    BackendStore: ("clock", "model"),
    SimClock: (),
    WarmupAdvisor.preload: ("cache",),
}

#: The parameters with a default, per assembled component: a collaborator or
#: a value the assembler always passes has none, so it cannot drift from it.
DEFAULTED = {
    CacheManager: [],
    RecoveryManager: [],
    RecoverySupervisor: [],
    ScrubScheduler: [],
    OsdTarget: [],
    BackendStore: ["model"],
}


#: The initiator's public calls: the data commands, the control messages
#: and three health and reserve questions. Room is the target's answer to a
#: write, so no space question belongs here.
INITIATOR_CALLS = {
    "write", "read", "update", "remove",
    "set_class", "query", "recovery_status",
    "degraded", "can_afford_hot", "hot_reserve",
}


def parameters(target):
    return [
        parameter
        for parameter in inspect.signature(target).parameters.values()
        if parameter.name not in ("self", "cls")
    ]


@pytest.mark.parametrize("target", list(SURFACE), ids=lambda target: target.__qualname__)
def test_in_process_stack_accepts_only_its_product_parameters(target):
    assert tuple(parameter.name for parameter in parameters(target)) == SURFACE[target]


@pytest.mark.parametrize("cls", list(DEFAULTED), ids=lambda cls: cls.__name__)
def test_assembled_components_default_no_collaborator(cls):
    defaulted = [
        parameter.name
        for parameter in parameters(cls)
        if parameter.default is not inspect.Parameter.empty
    ]
    assert defaulted == DEFAULTED[cls]


def test_initiator_offers_only_commands_and_three_questions():
    public = {name for name in vars(OsdInitiator) if not name.startswith("_")}
    assert public == INITIATOR_CALLS
