"""The fault campaign: a composed-fault soak test of the closed repair loop.

The paper's failure experiment (Fig. 8) kills devices at fixed request
indices and lets recovery run. This campaign is the adversarial complement:
the medium workload replays under a *composed* declarative fault plan —
background latent bit-rot the whole time, one device turning fail-slow
mid-run, and one outright fail-stop later — with nobody scripting the
repair. Detection, demotion, spare swap, class-ordered rebuild, and
prioritized scrubbing all happen through the supervised loop
(:meth:`ReoCache.enable_supervision`), exactly as they would for an
unscripted production fault.

Two-phase schedule: fault times must land mid-run, but the simulated pace
of a trace is not known a priori. Phase A replays the first third with only
latent errors active and measures seconds-per-request; the plan is then
*extended* (stream-preserving, see :meth:`FaultInjector.extend`) with a
fail-slow anchored at the observed clock and a fail-stop at a pace-derived
time inside phase B.

Published artefact: ``benchmarks/results/BENCH_fault_campaign.json`` with
the durability ledger plus three gated metrics — detection latency,
time-to-full-redundancy, and degraded-read p99. The campaign *hard-fails*
(raises :class:`~repro.experiments.campaign.CampaignLossError`) if any
object of classes 0-2 is lost: under one-at-a-time device faults with
spares, Reo's protected classes must ride through.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.core.health import HealthPolicy
from repro.experiments.campaign import Campaign, CampaignLossError
from repro.experiments.common import Profile, active_profile, build_experiment_cache
from repro.faults.injector import FaultInjector
from repro.faults.plan import FailSlow, FailStop, FaultPlan, LatentErrors
from repro.sim.runner import ExperimentRunner
from repro.workload.medisyn import Locality, MediSynConfig, generate_workload
from repro.workload.trace import Trace

__all__ = ["run_fault_campaign"]

CAMPAIGN_BENCH_NAME = "BENCH_fault_campaign.json"
#: The configuration the committed baseline was recorded with.
POLICY_KEY = "Reo-20%"
CACHE_PERCENT = 10  # of the data set
#: Per-chunk-read latent bit-rot probability: background noise for the
#: scrubber, far below the demotion threshold.
UBER_RATE = 0.002
LATENCY_MULTIPLIER = 8.0  # the fail-slow device's service-time factor
SPARES = 2  # replacement devices the supervisor may auto-swap


def _campaign_trace(
    profile: Profile,
    seed: int,
    num_objects: Optional[int] = None,
    num_requests: Optional[int] = None,
) -> Trace:
    """The medium workload with a write mix (so the dirty class exists)."""
    config = MediSynConfig(
        locality=Locality.MEDIUM,
        num_objects=num_objects or 4_000,
        mean_object_size=4.4 * 1000 * 1000,
        num_requests=num_requests or profile.requests_for(Locality.MEDIUM),
        write_ratio=0.2,
        seed=seed,
        scale=profile.size_scale,
    )
    return generate_workload(config)


def _sub_trace(trace: Trace, start: int, end: int, label: str) -> Trace:
    return Trace(
        name=f"{trace.name}:{label}",
        catalog=trace.catalog,
        records=trace.records[start:end],
        params=dict(trace.params),
    )


def run_fault_campaign(
    profile: Optional[Profile] = None,
    seed: int = 20190707,
    num_objects: Optional[int] = None,
    num_requests: Optional[int] = None,
) -> Campaign:
    """Run the composed-fault campaign; raises on protected-class loss.

    Its ``record`` is the ``BENCH_fault_campaign.json`` shape that
    ``compare_bench.py`` reads; ``counts`` holds the detection latency of
    each detected fault kind.

    Args:
        seed: drives the workload *and* every injected-fault stream —
            identical seeds produce byte-identical ledgers.
        num_objects / num_requests: overrides for small test campaigns.
    """
    profile = profile or active_profile()
    trace = _campaign_trace(profile, seed, num_objects, num_requests)
    cache = build_experiment_cache(
        POLICY_KEY,
        int(trace.total_bytes * CACHE_PERCENT / 100),
        profile,
        chunk_size=profile.failure_chunk_size,
    )
    plan = FaultPlan(events=(LatentErrors(uber_rate=UBER_RATE, seed=seed),), seed=seed)
    injector = FaultInjector(plan).attach(cache.array)
    supervisor = cache.enable_supervision(
        # The grace period is wall time in the paper's world; scale it like
        # the device fixed costs so it expires within a scaled run.
        health_policy=HealthPolicy(suspect_grace=max(0.02, 10.0 / profile.size_scale)),
        spares=SPARES,
        scrub_interval=_scrub_interval(profile),
        injector=injector,
    )

    # Phase A: latent errors only; measures the trace's simulated pace.
    cut = max(1, len(trace) // 3)
    phase_a = _sub_trace(trace, 0, cut, "phase-a")
    started = cache.clock.now
    result_a = ExperimentRunner(
        cache,
        phase_a,
        recovery_share=profile.recovery_share,
        prewarm=True,
    ).run()
    pace = max((cache.clock.now - started) / max(1, len(phase_a)), 1e-9)

    # Phase B: fail-slow from now; fail-stop of another device ~40% in.
    phase_b = _sub_trace(trace, cut, len(trace), "phase-b")
    slow_device = 1
    stop_device = 3
    stop_at = cache.clock.now + pace * max(1, len(phase_b)) * 0.4
    injector.extend(
        FailSlow(
            device=slow_device,
            latency_multiplier=LATENCY_MULTIPLIER,
            from_time=cache.clock.now,
        ),
        FailStop(at_time=stop_at, device=stop_device),
    )
    fail_slow_from = cache.clock.now
    result_b = ExperimentRunner(
        cache,
        phase_b,
        recovery_share=profile.recovery_share,
    ).run()

    # Wind-down: force any unfired stop (pace was an estimate), then drain
    # all repair work so the ledger closes every incident.
    if injector.pending_fail_stops:
        cache.clock.advance_to(
            max(event.at_time for event in injector.pending_fail_stops)
        )
    supervisor.drain()

    detection: Dict[str, float] = {}
    slow_latency = supervisor.ledger.detection_latency(fail_slow_from, slow_device)
    if slow_latency is not None:
        detection["fail_slow"] = slow_latency
    stop_latency = supervisor.ledger.detection_latency(stop_at, stop_device)
    if stop_latency is not None:
        detection["fail_stop"] = stop_latency
    time_to_full_redundancy = max(
        (
            incident.time_to_full_redundancy()
            for incident in supervisor.ledger.incidents
            if incident.time_to_full_redundancy() is not None
        ),
        default=0.0,
    )
    # Latencies are reported like the paper's: rescaled by the profile.
    degraded_read_p99_ms = (
        supervisor.monitor.degraded_read_percentile(0.99) * 1000.0 * profile.size_scale
    )
    requests = len(phase_a) + len(phase_b)
    hits_weighted = (
        result_a.metrics.hit_ratio_percent * len(phase_a)
        + result_b.metrics.hit_ratio_percent * len(phase_b)
    ) / max(1, requests)
    injected = {
        "corruptions": injector.injected_corruptions,
        "transients": injector.injected_transients,
        "torn_writes": injector.injected_torn_writes,
        "fail_slow": 1,
        "fail_stop": 1,
    }
    ledger = supervisor.ledger.to_dict()
    lost_by_class = ledger["lost_by_class"]
    campaign = Campaign(
        title=f"Fault campaign [{profile.name}, seed {seed}]: "
        "latent bit-rot + fail-slow + fail-stop under supervised recovery",
        artefact=CAMPAIGN_BENCH_NAME,
        record={
            "schema": 1,
            "profile": profile.name,
            "seed": seed,
            "requests": requests,
            "injected": injected,
            "ledger": ledger,
            "metrics": {
                "detection_latency_s": {
                    "label": "worst fault detection latency (sim s)",
                    "value": round(max(detection.values(), default=0.0), 9),
                    "higher_is_better": False,
                },
                "time_to_full_redundancy_s": {
                    "label": "detection to restored redundancy (sim s)",
                    "value": round(time_to_full_redundancy, 9),
                    "higher_is_better": False,
                },
                "degraded_read_p99_ms": {
                    "label": "degraded foreground read p99 (ms, rescaled)",
                    "value": round(degraded_read_p99_ms, 6),
                    "higher_is_better": False,
                },
            },
        },
        rows={
            "requests replayed": f"{requests}",
            "hit ratio": f"{hits_weighted:.1f} %",
            "injected faults": ", ".join(
                f"{kind}={count}" for kind, count in injected.items()
            ),
            **{
                f"detection latency ({kind})": f"{latency * 1000:.2f} ms"
                for kind, latency in detection.items()
            },
            "time to full redundancy": f"{time_to_full_redundancy * 1000:.2f} ms",
            "degraded read p99": f"{degraded_read_p99_ms:.3f} ms",
            "objects rebuilt": f"{ledger['objects_rebuilt']}",
            "chunks repaired by scrub": f"{ledger['chunks_repaired_by_scrub']}",
            "lost by class": json.dumps(lost_by_class) if lost_by_class else "none",
            "reduced-redundancy time": (
                f"{float(ledger['reduced_redundancy_seconds']) * 1000:.2f} ms"
            ),
        },
        counts={
            f"{kind}_detection_latency_s": latency for kind, latency in detection.items()
        },
        notes=" health transitions:\n"
        + "\n".join(
            f"  {t.device_id}: {t.old} -> {t.new} at {round(t.at, 9):.6f}s ({t.reason})"
            for t in supervisor.monitor.transitions
        ),
    )
    campaign.record["protected_losses"] = campaign.protected_losses
    if campaign.protected_losses:
        raise CampaignLossError(
            f"protected classes lost objects: {lost_by_class} "
            f"(seed {seed}, profile {profile.name})"
        )
    return campaign


def _scrub_interval(profile: Profile) -> float:
    """A sweep cadence that fires a few times within a scaled run."""
    return max(0.05, 30.0 / profile.size_scale)
