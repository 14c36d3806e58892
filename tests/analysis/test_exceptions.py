"""Positive/negative cases for the broad-except and sense-policy checks."""

from tests.test_invariants import check, flagged


def test_bare_except_fires():
    source = """
    def swallow():
        try:
            return 1
        except:
            return None
    """
    ((line, name, message),) = check("repro.cache.bad_bare", source)
    assert (line, name) == (5, "broad-except")
    assert "bare except" in message


def test_except_exception_fires_even_in_tuple():
    source = """
    def swallow():
        try:
            return 1
        except Exception:
            return None

    def tuple_swallow():
        try:
            return 1
        except (ValueError, Exception):
            return None

    def base_swallow():
        try:
            return 1
        except BaseException:
            return None
    """
    assert flagged("repro.backend.bad_broad", source) == [
        (5, "broad-except"),
        (11, "broad-except"),
        (17, "broad-except"),
    ]


def test_narrow_except_is_quiet():
    source = """
    class FlashError(Exception):
        pass

    def narrow():
        try:
            return 1
        except (FlashError, ValueError):
            return None
    """
    assert flagged("repro.flash.good_narrow", source) == []


def test_cluster_broad_except_fires():
    # The rule is repo-wide, which includes repro.cluster: a supervisor
    # that swallows Exception hides the very faults it must react to.
    source = """
    async def probe_once(client):
        try:
            return await client.service_stats()
        except Exception:
            return None
    """
    assert flagged("repro.cluster.bad_probe", source) == [(5, "broad-except")]


def test_cluster_narrow_except_is_quiet():
    source = """
    class OsdServiceError(Exception):
        pass

    async def probe_once(client):
        try:
            return await client.service_stats()
        except (OsdServiceError, ConnectionError, OSError):
            return None
    """
    assert flagged("repro.cluster.good_probe", source) == []


def test_sense_policy_flags_raise_in_handler():
    source = """
    class OsdResponse:
        pass

    class OsdTarget:
        def read_object(self, object_id) -> OsdResponse:
            if object_id is None:
                raise ValueError("no id")
            return OsdResponse()
    """
    ((line, name, message),) = check("repro.osd.target", source)
    assert (line, name) == (8, "sense-policy")
    assert "OsdTarget.read_object" in message
    assert "sense code" in message


def test_sense_policy_quiet_when_handler_returns_sense():
    source = """
    class OsdResponse:
        pass

    class ObjectNotFoundError(Exception):
        pass

    class OsdTarget:
        def read_object(self, object_id) -> OsdResponse:
            return OsdResponse()

        def get_info(self, object_id) -> "ObjectInfo":
            # Not a wire handler: internal raises stay legal.
            raise ObjectNotFoundError(object_id)
    """
    assert flagged("repro.osd.target", source) == []


def test_sense_policy_scope_is_target_module_only():
    source = """
    class OsdResponse:
        pass

    class Caller:
        def probe(self) -> OsdResponse:
            raise RuntimeError("initiators may raise")
    """
    assert flagged("repro.osd.initiator", source) == []
