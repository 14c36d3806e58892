"""Positive/negative cases for the determinism check."""

import pytest

from tests.test_invariants import check, flagged

WALL_CLOCK = """
import time

def stamp():
    return time.time()
"""

PERF_COUNTER = """
import time

def measure():
    return time.perf_counter()
"""


def test_wall_clock_fires_in_core():
    assert flagged("repro.sim.bad_clock", WALL_CLOCK) == [(5, "determinism")]


def test_wall_clock_fires_outside_core_too():
    assert flagged("repro.experiments.bad_wall", WALL_CLOCK) == [(5, "determinism")]


def test_perf_counter_allowed_outside_core_banned_inside():
    assert flagged("repro.net.timing", PERF_COUNTER) == []
    ((line, name, message),) = check("repro.core.bad_timing", PERF_COUNTER)
    assert (line, name) == (5, "determinism")
    assert "host-clock" in message


def test_datetime_now_fires():
    core = """
    from datetime import datetime

    def stamp():
        return datetime.now()
    """
    faults = """
    import datetime

    def today():
        return datetime.date.today()
    """
    assert flagged("repro.core.bad_datetime", core) == [(5, "determinism")]
    assert flagged("repro.faults.bad_date", faults) == [(5, "determinism")]


def test_module_level_random_fires():
    source = """
    import random

    def roll():
        return random.random()
    """
    assert flagged("repro.faults.bad_random", source) == [(5, "determinism")]


def test_from_import_random_function_fires():
    source = """
    from random import randint

    def roll():
        return randint(1, 6)
    """
    assert flagged("repro.cache.bad_from_import", source) == [(5, "determinism")]


def test_unseeded_random_fires_seeded_is_quiet():
    source = """
    import random

    def good(seed):
        return random.Random(seed)

    def bad():
        return random.Random()
    """
    ((line, name, message),) = check("repro.erasure.rng_use", source)
    assert (line, name) == (8, "determinism")
    assert "without a seed" in message


def test_numpy_global_state_fires_default_rng_quiet():
    source = """
    import numpy as np

    def good(seed):
        return np.random.default_rng(seed)

    def bad_seed():
        np.random.seed(0)

    def bad_unseeded():
        return np.random.default_rng()

    def bad_dist():
        return np.random.normal()
    """
    assert flagged("repro.core.np_rng", source) == [
        (8, "determinism"),
        (11, "determinism"),
        (14, "determinism"),
    ]


def test_numpy_bit_generators_hold_their_own_state():
    source = """
    import numpy as np
    from numpy.random import PCG64, Generator, SeedSequence

    def good_words(seed, count):
        return np.random.PCG64(seed).random_raw(count)

    def good_generator(seed):
        return Generator(PCG64(SeedSequence(seed)))

    def good_others(seed):
        return (np.random.PCG64DXSM(seed), np.random.Philox(key=seed),
                np.random.SFC64(seed), np.random.MT19937(seed))

    def bad_bits():
        return np.random.PCG64()

    def bad_sequence():
        return SeedSequence()

    def bad_generator():
        return Generator()

    def bad_nested():
        return Generator(np.random.Philox())
    """
    found = check("repro.backend.np_bits", source)
    assert [(line, name) for line, name, _ in found] == [
        (16, "determinism"),
        (19, "determinism"),
        (22, "determinism"),
        (25, "determinism"),
    ]
    assert all("without a seed" in message for _, _, message in found)


def test_sim_clock_module_is_exempt():
    assert flagged("repro.sim.clock", WALL_CLOCK) == []


def test_seeded_string_stream_is_quiet():
    # The faults injector's per-(event, device) stream discipline.
    source = """
    import random

    def stream(plan_seed, index, device_id):
        return random.Random(f"{plan_seed}:{index}:{device_id}")
    """
    assert flagged("repro.faults.streams", source) == []


@pytest.mark.parametrize(
    "imports, expression",
    [
        ("import os", "os.urandom(8)"),
        ("from os import urandom", "urandom(8)"),
        ("import uuid", "uuid.uuid4()"),
        ("import uuid", "uuid.uuid1()"),
        ("import secrets", "secrets.token_bytes(4)"),
        ("from secrets import randbelow", "randbelow(6)"),
        ("import random", "random.Random(None)"),
        ("import random", "random.Random(x=None)"),
        ("import numpy", "numpy.random.default_rng(None)"),
        ("import numpy as np", "np.random.default_rng(seed=None)"),
        ("import time", "time.thread_time()"),
        ("import time", "time.thread_time_ns()"),
    ],
)
def test_ambient_entropy_and_thread_clock_fire_in_core(imports, expression):
    source = f"{imports}\n\ndef draw():\n    return {expression}\n"
    assert flagged("repro.core.ambient", source) == [(4, "determinism")]


@pytest.mark.parametrize(
    "imports, expression",
    [
        ("import os", "os.path.join('a', 'b')"),
        ("import uuid", "uuid.UUID(int=seed)"),
        ("import uuid", "uuid.uuid5(uuid.NAMESPACE_OID, str(seed))"),
        ("import random", "random.Random(0)"),
        ("import random", "random.Random(seed)"),
        ("import numpy", "numpy.random.default_rng(0)"),
        ("import numpy as np", "np.random.default_rng(seed=seed)"),
    ],
)
def test_seeded_counterparts_are_quiet_in_core(imports, expression):
    source = f"{imports}\n\ndef draw(seed):\n    return {expression}\n"
    assert flagged("repro.core.seeded", source) == []


@pytest.mark.parametrize("area", ["flash", "backend", "workload"])
def test_engine_and_generator_are_held_to_the_strict_standard(area):
    # GOLDEN pins the engine's and the generator's output bit for bit.
    ((line, name, message),) = check(f"repro.{area}.bad_timing", PERF_COUNTER)
    assert (line, name) == (5, "determinism")
    assert "host-clock" in message


def test_thread_clock_stays_legal_outside_the_core():
    source = """
    import time

    def measure():
        return time.thread_time()
    """
    assert flagged("repro.net.cpu_time", source) == []
