"""Integration tests: live multi-shard clusters, router, and supervisor.

Everything here runs real shard servers on localhost ephemeral ports —
the same harness the smoke CLI and the shard-loss campaign use — and pins
the ISSUE-7 acceptance behaviours: byte-exact read-back across shards for
every redundancy class, WRONG_SHARD stale-map healing with replay,
degraded striped reads through the erasure codec, mirror failover,
condemn/re-home with zero protected losses, and byte-identical recovery
ledgers per seed.
"""

import asyncio
import itertools
import random

import pytest

from repro.cluster.map import ShardState, fragment_object_id
from repro.cluster.router import RouterClient, decode_fragment, encode_fragment
from repro.net.client import OsdServiceError
from repro.cluster.service import ClusterService, ShardServer
from repro.cluster.supervisor import ClusterSupervisor
from repro.core.policy import ReoPolicy
from repro.net.retry import NO_RETRY
from repro.osd import commands
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId

from tests.closed_loop import run_closed_loop

pytestmark = pytest.mark.cluster


def run(coro):
    return asyncio.run(coro)


def oid(index):
    return ObjectId(PARTITION_BASE, FIRST_USER_OID + 0x2000 + index)


def payload_for(tag, index, size=1536):
    return random.Random(f"cluster-test/{tag}/{index}").randbytes(size)


def make_router(service, **kwargs):
    kwargs.setdefault("retry", NO_RETRY)
    router = service.router(**kwargs)
    assert isinstance(router, RouterClient)
    return router


# ----------------------------------------------------------------------
# Routed data path
# ----------------------------------------------------------------------
class TestRoutedDataPath:
    def test_all_classes_byte_exact_across_shards(self):
        async def scenario():
            async with ClusterService(4) as service:
                async with make_router(service) as router:
                    expected = {}
                    for index in range(24):
                        class_id = (0, 1, 2, 3)[index % 4]
                        body = payload_for("classes", index)
                        expected[oid(index)] = (body, class_id)
                        response = await router.write(oid(index), body, class_id)
                        assert response.ok
                    for object_id, (body, class_id) in expected.items():
                        got, response = await router.read(object_id)
                        assert response.ok
                        assert got == body
                        layout = {0: "mirror", 1: "mirror", 2: "stripe", 3: "plain"}
                        assert router._layouts[object_id] == layout[class_id]
                    assert router.router_stats.mirrors_written == 12
                    assert router.router_stats.stripes_written == 6
                    # Healthy cluster: nothing degraded, nothing redirected.
                    assert router.router_stats.degraded_reads == 0
                    assert router.router_stats.redirects == 0

        run(scenario())

    def test_stripe_fragments_land_on_distinct_shards(self):
        async def scenario():
            async with ClusterService(6) as service:
                async with make_router(service) as router:
                    body = payload_for("distinct", 0, size=4096)
                    assert (await router.write(oid(100), body, 2)).ok
                    cluster_map = router.cluster_map
                    homes = {
                        cluster_map.owners_for(fragment_object_id(oid(100), i))[0]
                        for i in range(router.codec.n)
                    }
                    # 6 fragments over 6 shards: fully declustered.
                    assert len(homes) == router.codec.n
                    # Four data fragments plus the paper's hot-clean parity.
                    assert router.codec.k == 4
                    assert router.codec.m == ReoPolicy().hot_parity

        run(scenario())

    def test_stats_fan_out(self):
        async def scenario():
            async with ClusterService(3) as service:
                async with make_router(service) as router:
                    assert (await router.write(oid(200), b"x" * 64, 3)).ok
                    merged = await router.service_stats_all()
                    assert merged["shards"] == 3
                    assert merged["commands"] >= 1

        run(scenario())

    def test_four_routers_share_one_cluster_zero_loss(self):
        """Concurrent routers, mixed classes: no error, every read byte-exact."""

        async def scenario():
            async with ClusterService(2) as service:
                report = await run_closed_loop(
                    [make_router(service) for _ in range(4)],
                    requests=60,
                    payload_bytes=2048,
                    write_fraction=0.35,
                    seed=17,
                    classes=(1, 2, 3),
                )
                assert report.ops == 4 * 60
                assert report.errors == 0
                assert report.corrupted == 0

        run(scenario())


def test_fragment_header_round_trip_and_rejections():
    blob = encode_fragment(b"abcdef", k=4, m=2, index=5, class_id=2, size=21)
    header, payload = decode_fragment(blob)
    assert header == {"k": 4, "m": 2, "index": 5, "class_id": 2, "size": 21}
    assert payload == b"abcdef" and type(payload) is bytes
    with pytest.raises(OsdServiceError, match="shorter than its header"):
        decode_fragment(blob[:15])
    with pytest.raises(OsdServiceError, match="bad stripe fragment magic"):
        decode_fragment(b"XXXX" + blob[4:])


def _holders(service):
    """Every user object (fragments included) each shard's target holds."""
    return {
        shard_id: sorted(info.object_id for info in server.target.user_objects())
        for shard_id, server in sorted(service.shards.items())
    }


def _holding(service, object_id):
    """The shards whose target holds ``object_id``, sorted."""
    return sorted(
        shard_id
        for shard_id, server in service.shards.items()
        if server.target.exists(object_id)
    )


class TestClassChangingOverwrite:
    @pytest.mark.parametrize(
        "old_class,new_class",
        list(itertools.permutations((1, 2, 3), 2)),
        ids=lambda class_id: {1: "mirror", 2: "stripe", 3: "plain"}[class_id],
    )
    def test_overwrite_leaves_only_the_new_layout(self, old_class, new_class):
        """The paper's lifecycle (dirty → clean, hot → cold) changes an
        object's class on overwrite; the old layout's copies must go."""

        async def scenario():
            async with ClusterService(4) as service:
                async with make_router(service) as router:
                    target, body = oid(700), payload_for("relayout", 1)
                    # What a fresh write of the new class puts down.
                    assert (await router.write(target, body, new_class)).ok
                    fresh = _holders(service)
                    assert (await router.remove(target)).ok
                    assert not any(_holders(service).values())

                    assert (await router.write(target, payload_for("relayout", 0), old_class)).ok
                    assert (await router.write(target, body, new_class)).ok
                    assert _holders(service) == fresh
                    got, response = await router.read(target)
                    assert response.ok and got == body
                    assert (await router.remove(target)).ok
                    assert not any(_holders(service).values())

        run(scenario())


class TestPlacementIsALookup:
    def test_placed_objects_are_never_ranked_again(self, scores):
        """Router and shards both answer a placed object's route from the memo."""

        async def scenario():
            async with ClusterService(4) as service:
                async with make_router(service) as router:
                    # First touch of a stripe: one ranking of the parent (one
                    # score per eligible shard), not one per fragment.
                    assert (await router.write(oid(802), payload_for("memo", 2), 2)).ok
                    assert sorted(scores) == [0, 1, 2, 3]
                    assert (await router.write(oid(801), payload_for("memo", 1), 1)).ok
                    assert (await router.write(oid(803), payload_for("memo", 3), 3)).ok
                    del scores[:]
                    for index, class_id in ((801, 1), (802, 2), (803, 3)):
                        body = payload_for("memo-again", index)
                        assert (await router.write(oid(index), body, class_id)).ok
                        got, response = await router.read(oid(index))
                        assert response.ok and got == body
                        assert (await router.remove(oid(index))).ok
                    assert scores == []
                    assert not any(_holders(service).values())

        run(scenario())


# ----------------------------------------------------------------------
# Stale-map healing (WRONG_SHARD -> adopt -> replay)
# ----------------------------------------------------------------------
class TestStaleMapHealing:
    def test_wrong_shard_redirect_adopts_newer_map_and_replays(self):
        async def scenario():
            async with ClusterService(3) as service:
                stale_map = service.cluster_map
                assert stale_map is not None
                async with make_router(service) as router:
                    # Advance the cluster behind the router's back: drain
                    # shard 0, so its epoch-1 placements are all misroutes.
                    newer = stale_map.with_shard_state(0, ShardState.DRAINING)
                    service.install_map(newer)
                    assert router.cluster_map.epoch == stale_map.epoch

                    # An object whose *stale* primary is the drained shard.
                    index = next(
                        i for i in range(512) if stale_map.owners_for(oid(i))[0] == 0
                    )
                    body = payload_for("stale", index)
                    response = await router.write(oid(index), body, 3)
                    assert response.ok
                    # The bounce carried the epoch-2 map; the router adopted
                    # it and replayed along the corrected route.
                    assert router.router_stats.redirects >= 1
                    assert router.cluster_map.epoch == newer.epoch
                    got, response = await router.read(oid(index))
                    assert response.ok and got == body

        run(scenario())

    def test_refresh_map_pulls_newest_epoch_from_any_shard(self):
        async def scenario():
            async with ClusterService(2) as service:
                stale_map = service.cluster_map
                assert stale_map is not None
                async with make_router(service) as router:
                    newer = stale_map.with_shard_state(1, ShardState.DRAINING)
                    service.install_map(newer)
                    assert await router.refresh_map()
                    assert router.cluster_map.epoch == newer.epoch
                    assert router.router_stats.map_refreshes == 1
                    # Already current: a second refresh is a no-op.
                    assert not await router.refresh_map()

        run(scenario())

    def test_mapless_shard_serves_everything(self):
        """Before a map is installed there is no enforcement (boot window)."""

        async def scenario():
            from repro.cluster.service import default_target_factory
            from repro.net.client import AsyncOsdClient

            server = ShardServer(default_target_factory(0), shard_id=0)
            await server.start()
            try:
                async with AsyncOsdClient("127.0.0.1", server.port) as client:
                    response = await client.write(oid(300), b"pre-map write", class_id=3)
                    assert response.ok
                    assert server.wrong_shard_rejections == 0
            finally:
                await server.shutdown()

        run(scenario())


# ----------------------------------------------------------------------
# Stale-map healing when the map changes AGAIN mid-replay
# ----------------------------------------------------------------------
class TestDoubleCondemnMidReplay:
    """Two condemns land back-to-back while a stale router is replaying.

    The router starts on the epoch-1 map. Its first attempt hits a shard
    that has only learned of the *first* condemn, so the bounce teaches it
    the epoch-2 map — whose route is itself already stale, because a
    second condemn (epoch 3) landed everywhere else. Healing must chase
    the chain: two bounces, two adoptions, then success on the final home.
    """

    @staticmethod
    def _condemn_chain(start_map, object_id):
        """(map1, map2, map3, s1, s2, s3): condemn the primary, twice."""
        s1 = start_map.owners_for(object_id)[0]
        map2 = start_map.with_shard_state(s1, ShardState.CONDEMNED)
        s2 = map2.owners_for(object_id)[0]
        map3 = map2.with_shard_state(s2, ShardState.CONDEMNED)
        s3 = map3.owners_for(object_id)[0]
        assert len({s1, s2, s3}) == 3  # HRW excludes condemned shards
        return map2, map3, s1, s2, s3

    @staticmethod
    def _skew_maps(service, map2, map3, s1):
        """Shard ``s1`` saw only the first condemn; everyone else both."""
        service.shards[s1].install_map(map2)
        for shard_id, server in service.shards.items():
            if shard_id != s1:
                server.install_map(map3)

    def test_read_chases_two_condemns_and_final_map_wins(self):
        async def scenario():
            async with ClusterService(4) as service:
                map1 = service.cluster_map
                target = oid(700)
                map2, map3, s1, s2, s3 = self._condemn_chain(map1, target)
                self._skew_maps(service, map2, map3, s1)

                # Seed the object at its *final* home through a current
                # router — the stale one must find it there, not write it.
                body = payload_for("double-condemn", 700)
                async with RouterClient(map3, retry=NO_RETRY) as seeder:
                    assert (await seeder.write(target, body, 3)).ok

                async with RouterClient(map1, retry=NO_RETRY) as stale:
                    got, response = await stale.read(target)
                    assert response.ok and got == body
                    # Exactly two hops: s1 bounced with epoch 2, s2 bounced
                    # with epoch 3, s3 served. The final map won.
                    assert stale.router_stats.redirects == 2
                    assert stale.cluster_map.epoch == map3.epoch
                assert service.shards[s1].wrong_shard_rejections >= 1
                assert service.shards[s2].wrong_shard_rejections >= 1

        run(scenario())

    def test_write_replays_to_the_final_home(self):
        async def scenario():
            async with ClusterService(4) as service:
                map1 = service.cluster_map
                target = oid(710)
                map2, map3, s1, s2, s3 = self._condemn_chain(map1, target)
                self._skew_maps(service, map2, map3, s1)

                # WRONG_SHARD means the mutation did not execute, so the
                # replay chain is safe: the write lands once, at the final
                # home, and nothing sticks to the condemned shards.
                body = payload_for("double-condemn-write", 710)
                async with RouterClient(map1, retry=NO_RETRY) as stale:
                    response = await stale.write(target, body, 3)
                    assert response.ok
                    assert stale.router_stats.redirects == 2
                    assert stale.cluster_map.epoch == map3.epoch
                    got, response = await stale.read(target)
                    assert response.ok and got == body
                    # Healed: the read went straight to the final home.
                    assert stale.router_stats.redirects == 2

        run(scenario())

    def test_redirect_budget_bounds_the_chase(self):
        async def scenario():
            async with ClusterService(4) as service:
                map1 = service.cluster_map
                target = oid(720)
                map2, map3, s1, s2, s3 = self._condemn_chain(map1, target)
                self._skew_maps(service, map2, map3, s1)

                # A chain two condemns deep needs two redirects; a router
                # capped at one must fail loudly instead of looping.
                from repro.net.client import OsdServiceError

                async with RouterClient(
                    map1, retry=NO_RETRY, max_redirects=1
                ) as capped:
                    with pytest.raises(OsdServiceError, match="did not converge"):
                        await capped.read(target)
                    assert capped.router_stats.redirects == 2
                    # Even the failed chase taught it the newest map.
                    assert capped.cluster_map.epoch == map3.epoch

        run(scenario())


# ----------------------------------------------------------------------
# Degraded reads (shard down, map stale)
# ----------------------------------------------------------------------
class TestDegradedReads:
    def test_striped_read_reconstructs_with_a_shard_down(self):
        async def scenario():
            async with ClusterService(3) as service:
                async with make_router(service) as router:
                    body = payload_for("degraded", 0, size=5000)
                    assert (await router.write(oid(400), body, 2)).ok
                    # Hard-kill a shard holding at least one *data* fragment
                    # (with 4 data fragments on 3 shards, any shard does).
                    cluster_map = router.cluster_map
                    victim = cluster_map.owners_for(
                        fragment_object_id(oid(400), 0)
                    )[0]
                    await service.stop_shard(victim)
                    got, response = await router.read(oid(400))
                    assert response.ok
                    assert got == body
                    assert router.router_stats.degraded_reads == 1

        run(scenario())

    @pytest.mark.parametrize("fragment_0_down", [False, True])
    def test_striped_read_ignores_a_fragment_of_another_version(self, fragment_0_down):
        """A stripe overwrite that failed part-way leaves one data fragment
        of another size; reads must neither splice it in nor trip the codec."""

        async def scenario():
            async with ClusterService(6) as service:
                async with make_router(service) as router:
                    body = payload_for("torn-stripe", 0, size=5000)
                    assert (await router.write(oid(450), body, 2)).ok
                    cluster_map = router.cluster_map
                    home = {
                        index: cluster_map.owners_for(fragment_object_id(oid(450), index))[0]
                        for index in range(router.codec.n)
                    }
                    assert len(set(home.values())) == router.codec.n
                    # Fragment 1 of a 3000-byte version: 750 bytes, not 1250.
                    other = payload_for("torn-stripe", 1, size=3000)
                    stale = encode_fragment(
                        other[750:1500], k=4, m=2, index=1, class_id=2, size=len(other)
                    )
                    response = await router.client(home[1]).write(
                        fragment_object_id(oid(450), 1), stale, 2
                    )
                    assert response.ok
                    if fragment_0_down:
                        await service.stop_shard(home[0])
                    got, response = await router.read(oid(450))
                    assert response.ok
                    assert got == body
                    assert router.router_stats.degraded_reads == 1

        run(scenario())

    def test_striped_read_fails_when_fewer_than_k_fragments_agree(self):
        async def scenario():
            async with ClusterService(6) as service:
                async with make_router(service) as router:
                    body = payload_for("torn-stripe", 2, size=5000)
                    assert (await router.write(oid(460), body, 2)).ok
                    other = payload_for("torn-stripe", 3, size=3000)
                    for index in (1, 2):
                        fragment_id = fragment_object_id(oid(460), index)
                        stale = encode_fragment(
                            other[index * 750 : (index + 1) * 750],
                            k=4, m=2, index=index, class_id=2, size=len(other),
                        )
                        shard = router.cluster_map.owners_for(fragment_id)[0]
                        assert (await router.client(shard).write(fragment_id, stale, 2)).ok
                    # Three fragments of the written version survive; k is 4.
                    await service.stop_shard(
                        router.cluster_map.owners_for(fragment_object_id(oid(460), 0))[0]
                    )
                    got, response = await router.read(oid(460))
                    assert not response.ok
                    assert got is None

        run(scenario())

    def test_mirrored_read_fails_over_to_the_mirror(self):
        async def scenario():
            async with ClusterService(3) as service:
                async with make_router(service) as router:
                    body = payload_for("failover", 0)
                    assert (await router.write(oid(500), body, 1)).ok
                    primary = router.cluster_map.owners_for(oid(500))[0]
                    await service.stop_shard(primary)
                    got, response = await router.read(oid(500))
                    assert response.ok
                    assert got == body
                    assert router.router_stats.mirror_failovers == 1

        run(scenario())


# ----------------------------------------------------------------------
# Condemn / re-home
# ----------------------------------------------------------------------
async def _populate(router, count, tag):
    expected = {}
    router.known_partitions.add(PARTITION_BASE)
    for index in range(count):
        class_id = (1, 2, 3)[index % 3]
        body = payload_for(tag, index)
        expected[oid(index)] = (body, class_id)
        assert (await router.write(oid(index), body, class_id)).ok
    return expected


class TestCondemnRehome:
    def test_evacuation_keeps_every_class_byte_exact(self):
        async def scenario():
            async with ClusterService(3) as service:
                async with make_router(service) as router:
                    expected = await _populate(router, 18, "evacuate")
                    supervisor = ClusterSupervisor(service, router)
                    report = await supervisor.condemn(2, "test evacuation")
                    assert report.epoch_after == report.epoch_before + 2
                    assert report.objects_lost == 0
                    assert 2 not in router.cluster_map.readable_ids
                    assert 2 not in service.shards
                    # Evacuation is lossless for *all* classes, 3 included:
                    # the draining shard stayed readable while copying out.
                    for object_id, (body, _class_id) in expected.items():
                        got, response = await router.read(object_id)
                        assert response.ok and got == body
                    ledger = supervisor.ledger.to_dict()
                    assert ledger["objects_lost"] == 0

        run(scenario())

    def test_crash_condemn_protects_classes_1_and_2(self):
        async def scenario():
            async with ClusterService(3) as service:
                async with make_router(service) as router:
                    expected = await _populate(router, 18, "crash")
                    victim = max(service.shards)
                    await service.stop_shard(victim)  # map left stale: a crash
                    supervisor = ClusterSupervisor(service, router)
                    report = await supervisor.condemn(
                        victim, "test crash", evacuate=False
                    )
                    assert report.epoch_after == report.epoch_before + 1
                    for object_id, (body, class_id) in expected.items():
                        if class_id == 3:
                            continue  # sole copies may die with the shard
                        got, response = await router.read(object_id)
                        assert response.ok, f"class-{class_id} {object_id} lost"
                        assert got == body
                    # Crash recovery rebuilt at least one lost fragment.
                    assert report.fragments_reconstructed > 0

        run(scenario())

    def test_object_dirtied_after_a_clean_write_is_rehomed_mirrored(self):
        """Class 3 then class 1: the surviving primary must say "dirty"."""

        async def scenario():
            async with ClusterService(4) as service:
                async with make_router(service) as router:
                    router.known_partitions.add(PARTITION_BASE)
                    target = oid(900)
                    assert (await router.write(target, payload_for("dirtied", 0), 3)).ok
                    body = payload_for("dirtied", 1)
                    assert (await router.write(target, body, 1)).ok
                    primary, mirror = router.cluster_map.owners_for(target, width=2)
                    await service.stop_shard(mirror)  # the primary is all that is left
                    supervisor = ClusterSupervisor(service, router)
                    report = await supervisor.condemn(mirror, "test crash", evacuate=False)
                    assert report.objects_lost == 0
                    holders = _holding(service, target)
                    assert holders == sorted(
                        router.cluster_map.owners_for(target, width=2)
                    )
                    assert primary in holders and len(holders) == 2
                    got, response = await router.read(target)
                    assert response.ok and got == body

        run(scenario())

    @pytest.mark.parametrize(
        "written_class, silenced",
        [
            # One dropped GetAttr must not decide: the next holder says dirty.
            pytest.param(1, 1, id="first-holder-silent"),
            # Nobody says: fail safe toward protection, not toward class 3.
            pytest.param(3, 4, id="every-holder-silent"),
        ],
    )
    def test_unanswered_class_query_never_demotes(self, written_class, silenced):
        def drop_getattr(command, seq):
            return "drop" if isinstance(command, commands.GetAttr) else None

        async def scenario():
            async with ClusterService(4) as service:
                async with make_router(service) as router:
                    router.known_partitions.add(PARTITION_BASE)
                    target = oid(910)
                    body = payload_for("silent", written_class)
                    assert (await router.write(target, body, written_class)).ok
                    held_by = _holding(service, target)
                    for shard_id in held_by[:silenced]:
                        service.shards[shard_id].fault_hook = drop_getattr
                    supervisor = ClusterSupervisor(service, router)
                    report = await supervisor.condemn(held_by[-1], "test drain")
                    assert report.objects_lost == 0
                    holders = _holding(service, target)
                    assert holders == sorted(
                        router.cluster_map.owners_for(target, width=2)
                    )
                    for shard_id in holders:
                        stored = service.shards[shard_id].target
                        assert stored.get_info(target).attributes["reo.class_id"] == "1"
                        assert stored.read_object(target).payload == body

        run(scenario())

    def test_rehome_walks_classes_in_recovery_order(self):
        """Differentiated recovery: class 0 first, class 3 last (§IV-D)."""

        async def scenario():
            async with ClusterService(3) as service:
                async with make_router(service) as router:
                    router.known_partitions.add(PARTITION_BASE)
                    for index in range(24):
                        class_id = (3, 2, 1, 0)[index % 4]
                        body = payload_for("order", index)
                        assert (await router.write(oid(index), body, class_id)).ok
                    supervisor = ClusterSupervisor(service, router)
                    walked = []
                    book = supervisor.ledger.record_rehomed

                    def spy(object_id, class_id, nbytes):
                        walked.append(class_id)
                        book(object_id, class_id, nbytes)

                    supervisor.ledger.record_rehomed = spy
                    await supervisor.condemn(2, "test evacuation")
                    assert set(walked) == {0, 1, 2, 3}
                    assert walked == sorted(walked)

        run(scenario())

    def test_same_seed_produces_byte_identical_ledgers(self):
        import json

        async def one_run():
            async with ClusterService(3) as service:
                async with make_router(service) as router:
                    await _populate(router, 12, "deterministic")
                    supervisor = ClusterSupervisor(service, router)
                    report = await supervisor.condemn(1, "determinism probe")
                    return (
                        json.dumps(supervisor.ledger.to_dict(), sort_keys=True),
                        json.dumps(report.to_dict(), sort_keys=True),
                    )

        first = run(one_run())
        second = run(one_run())
        assert first == second

