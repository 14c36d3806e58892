"""The OSD initiator: the client side the cache manager runs on (paper §V).

The initiator builds OSD commands and executes them against an in-process
target; :class:`~repro.net.client.AsyncOsdClient` is its counterpart over
real sockets, where every command and response crosses as PDU bytes —
the open-osd/iSCSI split of the paper's prototype.

Crucially for Reo, classification and query messages travel through the
reserved control object exactly as the paper describes: synchronous writes
to OID ``0x10004`` (§IV-C.2).

It is also the cache manager's only way to storage. Room is not asked for:
a write or ``#SETID#`` the target refuses with sense 0x64 is the answer.
In process, the health and reserve answers read the target and bill
nothing, and each docstring names the OSD traffic a socket-backed
initiator would send.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.flash.array import ArrayIoResult
from repro.osd import commands
from repro.osd.control import QueryMessage, SetClassMessage
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse, OsdTarget
from repro.osd.types import CONTROL_OBJECT, ROOT_OBJECT, ObjectId

__all__ = ["OsdInitiator", "OsdResponse"]


class OsdInitiator:
    """Client-side handle to one OSD target."""

    def __init__(self, target: OsdTarget) -> None:
        self.target = target

    def _execute(self, command: commands.OsdCommand) -> OsdResponse:
        return command.apply(self.target)

    # ------------------------------------------------------------------
    # Object data path
    # ------------------------------------------------------------------
    def write(
        self, object_id: ObjectId, payload: bytes, class_id: Optional[int] = None
    ) -> OsdResponse:
        """Store an object, optionally tagging its class at write time."""
        return self._execute(commands.Write(object_id, payload, class_id))

    def read(self, object_id: ObjectId) -> Tuple[Optional[bytes], OsdResponse]:
        """Read an object; returns ``(payload or None, response)``."""
        response = self._execute(commands.Read(object_id))
        return response.payload, response

    def update(self, object_id: ObjectId, offset: int, data: bytes) -> OsdResponse:
        """Partial in-place write at a byte offset (delta/direct parity)."""
        return self._execute(commands.Update(object_id, offset, data))

    def remove(self, object_id: ObjectId) -> OsdResponse:
        """Remove an object; FAIL when it is absent."""
        return self._execute(commands.Remove(object_id))

    # ------------------------------------------------------------------
    # Health and reserve questions (a #QUERY# each over a socket)
    # ------------------------------------------------------------------
    def degraded(self) -> bool:
        """True while the array has failed devices that were not replaced.

        SUSPECT devices do not count: they still serve reads.
        """
        array = self.target.array
        return array.available_count < array.width

    def can_afford_hot(self, size: int) -> bool:
        """Would ``size`` hot bytes fit in the reserve? True without one."""
        budget = self.target.budget
        return budget is None or budget.can_afford_hot(size)

    def hot_reserve(self) -> Optional[Tuple[float, float]]:
        """``(reserve left after mandatory redundancy, hot overhead per byte)``.

        None without a reserve. The census of mandatory (class 0 and 1)
        redundancy is a ListPartition and a GetAttr (the class label) each.
        """
        budget = self.target.budget
        if budget is None:
            return None
        mandatory = budget.mandatory_bytes(self.target.user_objects())
        return budget.budget_bytes - mandatory, budget.hot_overhead_per_byte()

    # ------------------------------------------------------------------
    # Control messages (paper §IV-C.2)
    # ------------------------------------------------------------------
    def set_class(self, object_id: ObjectId, class_id: int) -> OsdResponse:
        """Send a #SETID# classification command through the control object.

        The write is synchronous (the paper fsyncs it past the buffer cache)
        so the returned sense code reflects the completed reclassification.
        """
        message = SetClassMessage(object_id, class_id)
        return self._execute(commands.Write(CONTROL_OBJECT, message.encode()))

    def query(
        self,
        object_id: ObjectId,
        operation: str = "R",
        offset: int = 0,
        size: int = 0,
    ) -> Tuple[SenseCode, ArrayIoResult]:
        """Send a #QUERY# status probe; returns the sense code."""
        message = QueryMessage(object_id, operation, offset, size)
        response = self._execute(commands.Write(CONTROL_OBJECT, message.encode()))
        return response.sense, response.io

    def recovery_status(self) -> SenseCode:
        """Poll the global recovery state via a root-object #QUERY#.

        Returns 0x65 while recovery runs, 0x66 after it completed, 0x0 when
        none ever ran (paper Table III).
        """
        sense, _ = self.query(ROOT_OBJECT)
        return sense

    def __repr__(self) -> str:
        return f"OsdInitiator(target={self.target!r})"
