"""T10-OSD-style object storage substrate.

Models the open-osd split the paper prototypes on (§II-A, §V): an
:class:`~repro.osd.target.OsdTarget` that owns the flash array and executes
object commands, an :class:`~repro.osd.initiator.OsdInitiator` that plays the
client (cache-manager) side, and the reserved *control object*
(OID ``0x10004``) whose writes carry ``#SETID#`` classification and
``#QUERY#`` status messages between the two (§IV-C.2).
"""
