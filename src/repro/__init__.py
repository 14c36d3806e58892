"""repro — a Python reproduction of *Reo: Enhancing Reliability and
Efficiency of Object-based Flash Caching* (ICDCS 2019).

The package builds the paper's full stack from scratch: Reed-Solomon coding
over GF(256), a simulated flash-SSD array with stripe-level variable
redundancy, a T10-OSD-style object storage target/initiator pair with the
paper's control-message protocol, an LRU write-back object cache manager,
and Reo's two contributions — differentiated data redundancy and
differentiated data recovery — plus the uniform baselines and the MediSyn
workload generator used in the evaluation.

Quickstart::

    from repro.core.policy import reo_policy
    from repro.core.reo import ReoCache

    cache = ReoCache.build(policy=reo_policy(0.20), cache_bytes=64 << 20)
    cache.register_objects({"obj-1": 1 << 20})
    print(cache.read("obj-1").hit)   # False (cold miss)
    print(cache.read("obj-1").hit)   # True

Every name is imported from the module that defines it; no package
``__init__`` re-exports anything, so importing one module loads only what
that module needs (a served process never loads the simulator).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""
