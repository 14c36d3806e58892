"""Behaviour gate: the cluster campaign (shard loss, asked-for condemn).

Runs the same campaign as ``python -m repro.experiments cluster-campaign``:
a seeded population and op mix over a 3-shard cluster, one shard hard-killed
with the map left stale, then condemned and re-homed.

Reliability is the gate, not timing: any protected-class (0-2) loss raises
inside the campaign, and the ledger artefact is a pure function of the seed
— two runs agree byte for byte, and both equal the committed
``results/cluster_campaign_ledger.json``. A change that moves it on purpose
re-records that file in the same PR and says why.
"""

import pathlib

from repro.experiments.cluster_campaign import CLUSTER_LEDGER_NAME, run_cluster_campaign

SEED = 1234
COMMITTED = pathlib.Path(__file__).parent / "results" / CLUSTER_LEDGER_NAME


def test_cluster_campaign(tmp_path):
    committed = COMMITTED.read_bytes()  # before this run rewrites it
    first = run_cluster_campaign(seed=SEED)
    print(first.format())

    assert first.protected_losses == 0
    assert first.record["rehome"]["shard_id"] == first.record["victim_shard"]
    # The degraded window did exercise both redundancy paths.
    assert first.counts["degraded_reads"] > 0 and first.counts["mirror_failovers"] > 0

    second = run_cluster_campaign(seed=SEED)
    replay = second.write_json(tmp_path).read_bytes()
    assert first.write_json().read_bytes() == replay == committed
