"""The campaign harness: what every reliability campaign shares.

A campaign injects faults, lets the failure plane repair, and then holds
the outcome against one contract — no object of a protected class (see
:data:`repro.core.policy.PROTECTED_CLASSES`) may be lost — before writing a
seed-deterministic artefact under ``benchmarks/results/``. This module is
the one home of that contract, of the results directory, of the one
result type every campaign returns (:class:`Campaign`: a printed table of
measures, the JSON artefact that holds the durability ledger, and the
counts the gates read), and of the routed campaigns' seeded object
:class:`Population` (payload oracle, populate loop, byte-exact verify
loop). The fault campaign, the cluster campaign, the chaos campaign and
``python -m repro.cluster --smoke`` differ only in the faults they inject.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.core.policy import PROTECTED_CLASSES
from repro.net.client import OsdServiceError
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId
from repro.sim.report import format_table

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.cluster.router import RouterClient
    from repro.osd.target import OsdResponse

__all__ = ["Campaign", "CampaignLossError", "Population", "RESULTS_DIR"]

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


class CampaignLossError(RuntimeError):
    """A protected class lost data — the failure plane broke its contract."""


@dataclass
class Campaign:
    """What one campaign produced: a table to print and an artefact to publish.

    ``record`` is the artefact's JSON content and holds the durability
    ``ledger``; it is written with sorted keys, so its bytes follow its
    content and identical seeds give identical files.
    """

    title: str
    #: File name of the artefact under the results directory.
    artefact: str
    record: Dict[str, Any]
    #: Printed measure -> its text, in print order.
    rows: Dict[str, str] = field(default_factory=dict)
    #: Numbers the gates read that the artefact does not hold.
    counts: Dict[str, float] = field(default_factory=dict)
    #: A block printed under the table.
    notes: Optional[str] = None

    @property
    def ledger(self) -> Dict[str, Any]:
        return self.record["ledger"]

    @property
    def protected_losses(self) -> int:
        """Objects of a protected class the ledger books as lost."""
        return sum(
            count
            for class_id, count in self.ledger["lost_by_class"].items()
            if int(class_id) in PROTECTED_CLASSES
        )

    def format(self) -> str:
        table = format_table(self.title, ["Measure", "Value"], list(self.rows.items()))
        return table if self.notes is None else f"{table}\n{self.notes}"

    def write_json(self, directory: Optional[pathlib.Path] = None) -> pathlib.Path:
        directory = directory or RESULTS_DIR
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / self.artefact
        path.write_text(json.dumps(self.record, indent=2, sort_keys=True) + "\n")
        return path


class Population:
    """A seeded object population, written and verified through a router.

    Object ``index`` has id ``FIRST_USER_OID + oid_offset + index``, class
    ``classes[index % len(classes)]`` and, at version ``v``, the payload
    drawn from ``random.Random(f"{tag}/{seed}/{index}/{v}")`` — a pure
    function of its identity, so the expected bytes need no bookkeeping.
    """

    def __init__(
        self,
        tag: str,
        seed: int,
        *,
        objects: int,
        payload_bytes: int,
        classes: Sequence[int],
        oid_offset: int,
    ) -> None:
        self.tag = tag
        self.seed = seed
        self.payload_bytes = payload_bytes
        self.ids = [
            ObjectId(PARTITION_BASE, FIRST_USER_OID + oid_offset + index)
            for index in range(objects)
        ]
        self.classes = [classes[index % len(classes)] for index in range(objects)]
        self.versions = [0] * objects

    def __len__(self) -> int:
        return len(self.ids)

    def payload(self, index: int) -> bytes:
        """The bytes object ``index`` must hold at its current version."""
        key = f"{self.tag}/{self.seed}/{index}/{self.versions[index]}"
        return random.Random(key).randbytes(self.payload_bytes)

    async def write(self, router: "RouterClient", index: int) -> "OsdResponse":
        return await router.write(
            self.ids[index], self.payload(index), self.classes[index]
        )

    async def populate(self, router: "RouterClient") -> None:
        for index, object_id in enumerate(self.ids):
            if not (await self.write(router, index)).ok:
                raise RuntimeError(f"populate failed at {object_id}")

    async def read(
        self, router: "RouterClient", index: int, phase: str, attempts: int = 1
    ) -> bool:
        """Read one object back; True when it is byte-exact.

        Reads are idempotent, so ``attempts`` spaced tries ride out a
        transient overlap of faults; each is its own observation for an
        attached health monitor. Exhausting them is a miss for an
        unprotected object and :class:`CampaignLossError` for a protected one.
        """
        object_id = self.ids[index]
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(0.05)
            try:
                payload, response = await router.read(object_id)
            except OsdServiceError:
                continue
            if response.ok and payload == self.payload(index):
                return True
        if self.classes[index] in PROTECTED_CLASSES:
            raise CampaignLossError(
                f"class-{self.classes[index]} object {object_id} unreadable "
                f"({phase}, seed {self.seed})"
            )
        return False

    async def verify(
        self, router: "RouterClient", phase: str, attempts: int = 1
    ) -> List[int]:
        """Read the whole population back; the (unprotected) indices missed."""
        return [
            index
            for index in range(len(self.ids))
            if not await self.read(router, index, phase, attempts)
        ]
