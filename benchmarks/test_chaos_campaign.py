"""Behaviour gate: the chaos campaign (autonomous self-healing).

Runs the same campaign as ``python -m repro.experiments chaos-campaign``:
a seeded partition burst + flapping link + fail-slow ramp over a routed
read workload against a 4-shard cluster, with the shard health monitor
and the autonomous supervisor loop doing the healing.

Reliability is the gate, not timing: any protected-class (0-2) loss
raises inside the campaign, the fail-slow shard must be condemned by the
detector verdict (never by the campaign), mirrored reads must have hedged
once the detector saw the slow primary, and the ledger artefact is a pure
function of the seed — two runs agree byte for byte, and both equal the
committed ``results/chaos_campaign_ledger.json``. A change that moves it on
purpose re-records that file in the same PR and says why. Wall-clock
detection latency is reported in ``results/chaos_campaign.txt``, not gated.
"""

import pathlib

from repro.experiments.chaos_campaign import CHAOS_LEDGER_NAME, run_chaos_campaign

SEED = 1234
COMMITTED = pathlib.Path(__file__).parent / "results" / CHAOS_LEDGER_NAME


def test_chaos_campaign(emit, tmp_path):
    committed = COMMITTED.read_bytes()  # before this run rewrites it
    first = run_chaos_campaign(seed=SEED)
    emit("chaos_campaign", first.format())

    # The cluster healed itself: one autonomous condemn, of the fail-slow
    # shard, with every protected object byte-exact (the campaign raises
    # on any protected loss, so these are belt-and-braces).
    counts = first.counts
    assert counts["auto_condemns"] == 1
    assert first.protected_losses == 0
    assert first.record["rehome"]["shard_id"] == first.record["victim_shard"]
    assert counts["detection_latency_s"] >= 0.0
    assert counts["degraded_window_reads"] > 0
    assert counts["hedged_reads"] > 0
    # The window's hedges are a share of the run's, not the whole run.
    assert counts["window_hedged_reads"] <= counts["hedged_reads"]

    # Determinism: an identical seed reproduces the ledger byte-for-byte.
    # Wall-clock metrics (detection latency, throughput) legitimately
    # differ; the durability record must not.
    second = run_chaos_campaign(seed=SEED)
    replay = second.write_json(tmp_path).read_bytes()
    assert first.write_json().read_bytes() == replay == committed

