"""Positive/negative fixtures for broad-except and sense-policy."""

from __future__ import annotations

from repro.analysis.rules.exceptions import BroadExceptRule


def test_bare_except_fires(lint):
    lint.write(
        "cache/bad_bare.py",
        """
        def swallow():
            try:
                return 1
            except:
                return None
        """,
    )
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["broad-except"]
    assert "bare except" in findings[0].message


def test_except_exception_fires_even_in_tuple(lint):
    lint.write(
        "backend/bad_broad.py",
        """
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
        """,
    )
    assert lint.rule_ids() == ["broad-except"] * 3


def test_narrow_except_is_quiet(lint):
    lint.write(
        "flash/good_narrow.py",
        """
        class FlashError(Exception):
            pass

        def narrow():
            try:
                return 1
            except (FlashError, ValueError):
                return None
        """,
    )
    assert lint.rule_ids() == []


def test_cluster_broad_except_fires(lint):
    # The rule is repo-wide, which includes repro.cluster: a supervisor
    # that swallows Exception hides the very faults it must react to.
    lint.write(
        "cluster/bad_probe.py",
        """
        async def probe_once(client):
            try:
                return await client.service_stats()
            except Exception:
                return None
        """,
    )
    assert lint.rule_ids() == ["broad-except"]


def test_cluster_narrow_except_is_quiet(lint):
    lint.write(
        "cluster/good_probe.py",
        """
        class OsdServiceError(Exception):
            pass

        async def probe_once(client):
            try:
                return await client.service_stats()
            except (OsdServiceError, ConnectionError, OSError):
                return None
        """,
    )
    assert lint.rule_ids() == []


def test_allowlisted_rollback_site_is_quiet(lint):
    lint.write(
        "flash/rollback.py",
        """
        def rollback():
            try:
                return 1
            except Exception:
                raise
        """,
    )

    class Allowing(BroadExceptRule):
        allowed_sites = ("repro.flash.rollback:rollback",)

    assert lint.rule_ids(rules=[Allowing()]) == []
    # The allowlist is exact: a different symbol still fires.
    assert lint.rule_ids(rules=[BroadExceptRule()]) == ["broad-except"]


def test_sense_policy_flags_raise_in_handler(lint):
    lint.write(
        "osd/target.py",
        """
        class OsdResponse:
            pass

        class OsdTarget:
            def read_object(self, object_id) -> OsdResponse:
                if object_id is None:
                    raise ValueError("no id")
                return OsdResponse()
        """,
    )
    findings = lint.run()
    assert [(f.rule_id, f.symbol) for f in findings] == [
        ("sense-policy", "OsdTarget.read_object")
    ]
    assert "sense code" in findings[0].message


def test_sense_policy_quiet_when_handler_returns_sense(lint):
    lint.write(
        "osd/target.py",
        """
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
        """,
    )
    assert lint.rule_ids() == []


def test_sense_policy_scope_is_target_module_only(lint):
    lint.write(
        "osd/initiator.py",
        """
        class OsdResponse:
            pass

        class Caller:
            def probe(self) -> OsdResponse:
                raise RuntimeError("initiators may raise")
        """,
    )
    assert lint.rule_ids() == []
