"""Positive/negative cases for the seed-plumbing check."""

from tests.test_invariants import check, flagged


def test_seed_none_default_fires_in_faults():
    source = """
    class FaultPlan:
        def __init__(self, events=(), seed=None):
            self.events = events
            self.seed = seed
    """
    ((line, name, message),) = check("repro.faults.bad_plan", source)
    assert (line, name) == (3, "seed-plumbing")
    assert "ambient entropy" in message


def test_rng_none_kwonly_default_fires_in_sim():
    source = """
    def run_trace(trace, *, rng=None):
        return trace, rng
    """
    assert flagged("repro.sim.bad_runner", source) == [(2, "seed-plumbing")]


def test_concrete_seed_default_is_quiet():
    source = """
    class FaultPlan:
        def __init__(self, events=(), seed=0):
            self.events = events
            self.seed = seed

    def make_stream(seed):
        return seed
    """
    assert flagged("repro.faults.good_plan", source) == []


def test_private_helpers_are_exempt():
    source = """
    def _internal(seed=None):
        return seed

    class _Hidden:
        def __init__(self, seed=None):
            self.seed = seed
    """
    assert flagged("repro.sim.private_ok", source) == []


def test_seed_none_default_fires_in_cluster():
    source = """
    def run_shard_loss(shards=3, seed=None):
        return shards, seed
    """
    ((line, name, message),) = check("repro.cluster.bad_campaign", source)
    assert (line, name) == (2, "seed-plumbing")
    assert "ambient entropy" in message


def test_seed_none_default_fires_in_workload():
    # The trace generator's samplers feed every byte-gated figure.
    source = """
    class ZipfSampler:
        def __init__(self, num_items, alpha, seed=None):
            self.seed = seed
    """
    ((line, name, message),) = check("repro.workload.distributions", source)
    assert (line, name) == (3, "seed-plumbing")
    assert "ambient entropy" in message


def test_cluster_concrete_seed_is_quiet():
    source = """
    class ShardCampaign:
        def __init__(self, shards=3, seed=1234):
            self.shards = shards
            self.seed = seed

    def run(campaign, *, rng):
        return campaign, rng
    """
    assert flagged("repro.cluster.good_campaign", source) == []


def test_scope_excludes_other_packages():
    source = """
    class RetryPolicy:
        def __init__(self, seed=None):
            self.seed = seed
    """
    assert flagged("repro.net.retry_like", source) == []
