"""Declarative fault injection for reliability campaigns.

``repro.faults`` turns failure scenarios into data. One container,
:class:`~repro.faults.plan.SeededPlan` — an immutable, seeded, typed
schedule whose every random decision comes from
:func:`~repro.faults.plan.stream` — carries two event vocabularies:

- :class:`~repro.faults.plan.FaultPlan`: device faults (fail-stop, latent
  sector errors, transient read errors, fail-slow, torn writes), executed by
  a :class:`~repro.faults.injector.FaultInjector` against a simulated flash
  array on simulated time;
- :class:`~repro.faults.netplan.NetFaultPlan`: shard-grain network chaos
  (partitions, fail-slow links, flapping, drop noise), executed by
  :class:`~repro.faults.netplan.ShardChaos` as the shard servers' fault
  hooks on each shard's operation count.

See :mod:`repro.faults.plan` and :mod:`repro.faults.netplan` for the event
catalogues.
"""
