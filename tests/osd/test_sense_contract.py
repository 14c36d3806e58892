"""The sense vocabulary is a two-sided contract (paper Table III).

The server tier reports every outcome as a ``SenseCode`` on a healthy
connection; the client tier branches on those codes to retry, re-route,
fail over, or surface the outcome. A member added to the enum and emitted
by a server only would reach every initiator as an unexplained failure, so
each code the server tier names must be named on the client side too — in a
handling branch, or in ``net.client.SENSE_HANDLED_BY_DEFAULT``, the declared
list of codes callers get raw.
"""

import ast
import importlib
import inspect

from repro.net.client import SENSE_HANDLED_BY_DEFAULT
from repro.osd.sense import SenseCode

SERVER_TIER = ("repro.osd.target", "repro.net.server", "repro.cluster.service")
CLIENT_TIER = (
    "repro.net.client",
    "repro.net.retry",
    "repro.cluster.router",
    "repro.cluster.breaker",
    "repro.cache.manager",
    "repro.osd.initiator",
)


def sense_codes_named_in(module_names):
    """Every ``SenseCode.X`` spelled in the modules' source, under any alias."""
    named = set()
    for module_name in module_names:
        module = importlib.import_module(module_name)
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and getattr(module, node.value.id, None) is SenseCode
                and node.attr in SenseCode.__members__
            ):
                named.add(SenseCode[node.attr])
    return named


def test_every_code_the_server_tier_names_has_a_client_side():
    emitted = sense_codes_named_in(SERVER_TIER)
    handled = sense_codes_named_in(CLIENT_TIER) | set(SENSE_HANDLED_BY_DEFAULT)
    assert SenseCode.WRONG_SHARD in emitted  # the walk sees ShardServer
    assert emitted - handled == set()
