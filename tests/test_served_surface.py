"""The settable surface of the served tier.

Every parameter listed here has a product caller: ``max_in_flight`` is 32
on a plain server and 64 on a shard, ``max_total_in_flight`` is the only
source of ``SERVER_BUSY``, ``fault_hook`` is what the chaos plans install,
and the rest are set by the router, the examples, the campaigns or the
benchmark harness. A new parameter needs a product caller too (ROADMAP
aim 2: the same behaviour from the least code); a value only tests vary
is a module constant, which a test may monkeypatch.
"""

import inspect

import pytest

from repro.cluster.breaker import BreakerBank, CircuitBreaker
from repro.cluster.router import RouterClient
from repro.net.client import AsyncOsdClient
from repro.net.flush import StreamFlusher
from repro.net.retry import RetryPolicy
from repro.net.server import OsdServer
from repro.net.stats import LatencyReservoir
from repro.osd import commands
from repro.osd.transport import FrameDecoder

SURFACE = {
    OsdServer: (
        "target", "host", "port", "max_in_flight", "max_total_in_flight", "fault_hook",
    ),
    AsyncOsdClient: ("host", "port", "pool_size", "timeout", "retry"),
    RouterClient: ("cluster_map", "timeout", "retry", "health_monitor"),
    StreamFlusher: ("transport", "on_flush"),
    FrameDecoder: (),
    LatencyReservoir: (),
    RetryPolicy: ("max_attempts", "seed"),
    CircuitBreaker: (),
    BreakerBank: (),
}


#: The service actions a product component sends, and nothing else: each
#: one is a case for the wire codec, the retry table and the shard route
#: check to cover.
SERVED_COMMANDS = [
    "CreatePartition", "GetAttr", "ListPartition", "Read", "Remove", "Update", "Write",
]


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda cls: cls.__name__)
def test_served_tier_accepts_only_its_product_parameters(cls):
    # A dataclass's signature is its fields, so RetryPolicy is pinned too.
    assert tuple(inspect.signature(cls).parameters) == SURFACE[cls]


def test_served_tier_accepts_only_the_commands_products_send():
    assert sorted(commands.__all__) == sorted(SERVED_COMMANDS + ["OsdCommand"])
