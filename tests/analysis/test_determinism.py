"""Positive/negative fixtures for the determinism rule."""

from __future__ import annotations

import pytest


def test_wall_clock_fires_in_core(lint):
    lint.write(
        "sim/bad_clock.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    assert lint.rule_ids() == ["determinism"]


def test_wall_clock_fires_outside_core_too(lint):
    lint.write(
        "experiments/bad_wall.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    assert lint.rule_ids() == ["determinism"]


def test_perf_counter_allowed_outside_core_banned_inside(lint):
    lint.write(
        "net/timing.py",
        """
        import time

        def measure():
            return time.perf_counter()
        """,
    )
    lint.write(
        "core/bad_timing.py",
        """
        import time

        def measure():
            return time.perf_counter()
        """,
    )
    findings = lint.run()
    assert [f.path for f in findings] == ["src/repro/core/bad_timing.py"]
    assert findings[0].rule_id == "determinism"
    assert "host-clock" in findings[0].message


def test_datetime_now_fires(lint):
    lint.write(
        "core/bad_datetime.py",
        """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """,
    )
    lint.write(
        "faults/bad_date.py",
        """
        import datetime

        def today():
            return datetime.date.today()
        """,
    )
    assert lint.rule_ids() == ["determinism", "determinism"]


def test_module_level_random_fires(lint):
    lint.write(
        "faults/bad_random.py",
        """
        import random

        def roll():
            return random.random()
        """,
    )
    ids = lint.rule_ids()
    assert ids == ["determinism"]


def test_from_import_random_function_fires(lint):
    lint.write(
        "cache/bad_from_import.py",
        """
        from random import randint

        def roll():
            return randint(1, 6)
        """,
    )
    assert lint.rule_ids() == ["determinism"]


def test_unseeded_random_fires_seeded_is_quiet(lint):
    lint.write(
        "erasure/rng_use.py",
        """
        import random

        def good(seed):
            return random.Random(seed)

        def bad():
            return random.Random()
        """,
    )
    findings = lint.run()
    assert [f.symbol for f in findings] == ["bad"]
    assert "without a seed" in findings[0].message


def test_numpy_global_state_fires_default_rng_quiet(lint):
    lint.write(
        "core/np_rng.py",
        """
        import numpy as np

        def good(seed):
            return np.random.default_rng(seed)

        def bad_seed():
            np.random.seed(0)

        def bad_unseeded():
            return np.random.default_rng()

        def bad_dist():
            return np.random.normal()
        """,
    )
    findings = lint.run()
    assert [f.symbol for f in findings] == ["bad_seed", "bad_unseeded", "bad_dist"]
    assert all(f.rule_id == "determinism" for f in findings)


def test_numpy_bit_generators_hold_their_own_state(lint):
    lint.write(
        "backend/np_bits.py",
        """
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
        """,
    )
    findings = lint.run()
    assert [f.symbol for f in findings] == [
        "bad_bits", "bad_sequence", "bad_generator", "bad_nested",
    ]
    assert all("without a seed" in f.message for f in findings)
    assert not any("global RNG state" in f.message for f in findings)


def test_sim_clock_module_is_exempt(lint):
    lint.write(
        "sim/clock.py",
        """
        import time

        def wall():
            return time.time()
        """,
    )
    assert lint.rule_ids() == []


def test_seeded_string_stream_is_quiet(lint):
    # The faults injector's per-(event, device) stream discipline.
    lint.write(
        "faults/streams.py",
        """
        import random

        def stream(plan_seed, index, device_id):
            return random.Random(f"{plan_seed}:{index}:{device_id}")
        """,
    )
    assert lint.rule_ids() == []


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
def test_ambient_entropy_and_thread_clock_fire_in_core(lint, imports, expression):
    lint.write(
        "core/ambient.py",
        f"""
        {imports}

        def draw():
            return {expression}
        """,
    )
    findings = lint.run()
    assert [(f.rule_id, f.symbol) for f in findings] == [("determinism", "draw")]


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
def test_seeded_counterparts_are_quiet_in_core(lint, imports, expression):
    lint.write(
        "core/seeded.py",
        f"""
        {imports}

        def draw(seed):
            return {expression}
        """,
    )
    assert lint.rule_ids() == []


@pytest.mark.parametrize("area", ["flash", "backend", "workload"])
def test_engine_and_generator_are_held_to_the_strict_standard(lint, area):
    # GOLDEN pins the engine's and the generator's output bit for bit.
    lint.write(
        f"{area}/bad_timing.py",
        """
        import time

        def measure():
            return time.perf_counter()
        """,
    )
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["determinism"]
    assert "host-clock" in findings[0].message


def test_thread_clock_stays_legal_outside_the_core(lint):
    lint.write(
        "net/cpu_time.py",
        """
        import time

        def measure():
            return time.thread_time()
        """,
    )
    assert lint.rule_ids() == []
