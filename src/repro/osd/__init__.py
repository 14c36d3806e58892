"""T10-OSD-style object storage substrate.

Models the open-osd split the paper prototypes on (§II-A, §V): an
:class:`~repro.osd.target.OsdTarget` that owns the flash array and executes
object commands, an :class:`~repro.osd.initiator.OsdInitiator` that plays the
client (cache-manager) side, and the reserved *control object*
(OID ``0x10004``) whose writes carry ``#SETID#`` classification and
``#QUERY#`` status messages between the two (§IV-C.2).
"""

from repro.osd.control import QueryMessage, SetClassMessage, parse_control_message
from repro.osd.initiator import OsdInitiator
from repro.osd.sense import SenseCode
from repro.osd.target import OsdTarget
from repro.osd.types import (
    CONTROL_OBJECT,
    DEVICE_TABLE,
    FIRST_USER_OID,
    ROOT_DIRECTORY,
    ROOT_OBJECT,
    SUPER_BLOCK,
    ObjectId,
    ObjectInfo,
    ObjectKind,
)

__all__ = [
    "CONTROL_OBJECT",
    "DEVICE_TABLE",
    "FIRST_USER_OID",
    "ObjectId",
    "ObjectInfo",
    "ObjectKind",
    "OsdInitiator",
    "OsdTarget",
    "QueryMessage",
    "ROOT_DIRECTORY",
    "ROOT_OBJECT",
    "SUPER_BLOCK",
    "SenseCode",
    "SetClassMessage",
    "parse_control_message",
]
