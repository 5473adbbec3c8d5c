"""The one rendezvous hash (``repro.hashing.pick``) and its two users.

ECMP choices must be bit-identical to the pre-seed implementation (kept
here, verbatim, as the reference); the cache's placement formula changed
once, so it is pinned by its properties instead — minimal disruption and
balance over similarly named nodes.  The column forms (``pick_column``,
``fnv1a64_column``) are pinned bit for bit against the scalar ones.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.cache import DistributedCache
from repro.edge.ecmp import ECMPRouter
from repro.hashing import (
    fnv1a64,
    fnv1a64_column,
    hrw_seed,
    hrw_table,
    pick,
    pick_column,
    splitmix64,
)
from repro.web.http import Request
from repro.web.origin import OriginPool

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _ref_splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _ref_hrw_weight(server: str, fh: int) -> int:
    """``edge/ecmp.py:_hrw_weight`` as it stood before the seeds were cached."""
    h = 0xCBF29CE484222325
    for byte in server.encode():
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return _ref_splitmix64(h ^ fh)


def _ref_choose(servers: list[str], fh: int) -> str:
    return max(servers, key=lambda s: (_ref_hrw_weight(s, fh), s))


_STYLES = (
    lambda i: f"s{i}",
    lambda i: f"bench-pop-srv{i:02d}",
    lambda i: f"dc-ams-rack{i // 4}-srv{i % 4}.internal.example.net",
    lambda i: f"σερβερ-{i}",
)


def _member_sets(rng: random.Random) -> list[list[str]]:
    sets = []
    for style in _STYLES:
        for size in (1, 2, 3, 8, 16, 33):
            names = [style(i) for i in range(size)]
            rng.shuffle(names)
            sets.append(names)
    return sets


class TestEcmpBitIdentity:
    def test_choose_matches_the_reference_weight(self):
        rng = random.Random(0xEC)
        pairs = 0
        for names in _member_sets(rng):
            router = ECMPRouter(names)
            for _ in range(100):
                fh = rng.getrandbits(64)
                assert router.choose(fh) == _ref_choose(names, fh), (names, fh)
                pairs += 1
        assert pairs >= 2000

    def test_drain_and_restore_matches_the_reference(self):
        """Remove-then-re-add reorders the member list; choices must follow
        the reference through all three memberships and end where they began."""
        rng = random.Random(0xD1)
        names = [f"bench-pop-srv{i:02d}" for i in range(8)]
        router = ECMPRouter(names)
        hashes = [rng.getrandbits(64) for _ in range(500)]
        original = [router.choose(fh) for fh in hashes]
        for drained in names:
            router.remove_server(drained)
            rest = router.servers()
            assert drained not in rest
            assert [router.choose(fh) for fh in hashes] == [_ref_choose(rest, fh) for fh in hashes]
            router.add_server(drained)
            assert router.servers()[-1] == drained
            assert [router.choose(fh) for fh in hashes] == original
        assert original == [_ref_choose(names, fh) for fh in hashes]

    def test_tied_weights_match_the_reference_tie_break(self):
        """Equal seeds tie on every key (the finalizer is a bijection, so a
        real tie needs an FNV collision); the reference broke ties with
        ``max`` over ``(weight, name)``."""
        rng = random.Random(0x71E)
        for _ in range(200):
            names = rng.sample("abcdefghij", rng.randint(2, 6))
            seed, fh = rng.getrandbits(64), rng.getrandbits(64)
            # Two tied groups, interleaved, in arbitrary list order.
            members = [(seed if i % 2 else seed ^ 1, n) for i, n in enumerate(names)]
            expected = max(members, key=lambda m: (_ref_splitmix64(m[0] ^ fh), m[1]))[1]
            assert pick(members, fh) == expected
            assert pick(members[::-1], fh) == expected


def _cache(names: list[str]) -> DistributedCache:
    cache = DistributedCache(OriginPool())
    for name in names:
        cache.add_node(name)
    return cache


def _keys(n: int) -> list[tuple[str, str]]:
    return [(f"www.site-{i % 1531:04d}.example.com", f"/asset/{i}") for i in range(n)]


class TestCachePlacement:
    def test_home_node_is_the_documented_formula(self):
        names = [f"pop-srv{i:02d}" for i in range(8)]
        cache = _cache(names)
        for host, path in _keys(200):
            key_hash = fnv1a64(host.encode() + b"\xff" + path.encode())
            expected = max(names, key=lambda n: splitmix64(fnv1a64(n.encode()) ^ key_hash))
            assert cache.home_node((host, path)).name == expected

    def test_host_and_path_do_not_run_together(self):
        """The 0xFF separator keeps ("ab", "c") and ("a", "bc") apart: over
        64 nodes, three splits of one string almost never share a home."""
        cache = _cache([f"n{i}" for i in range(64)])
        texts = [f"host{i}.example.com/index" for i in range(40)]
        together = sum(
            len({cache.home_node((text[:k], text[k:])).name for k in (5, 9, 17)}) == 1
            for text in texts
        )
        assert together <= 2

    def test_removing_a_node_remaps_only_its_keys(self):
        names = [f"pop-srv{i:02d}" for i in range(8)]
        cache, keys = _cache(names), _keys(5000)
        before = {key: cache.home_node(key).name for key in keys}
        owned = {key for key, home in before.items() if home == "pop-srv03"}
        assert owned
        cache.remove_node("pop-srv03")
        after = {key: cache.home_node(key).name for key in keys}
        assert {key for key in keys if after[key] != before[key]} == owned

    def test_adding_a_node_moves_keys_only_to_it(self):
        names = [f"pop-srv{i:02d}" for i in range(8)]
        cache, keys = _cache(names), _keys(5000)
        before = {key: cache.home_node(key).name for key in keys}
        cache.add_node("pop-srv08")
        moved = {key: cache.home_node(key).name for key in keys
                 if cache.home_node(key).name != before[key]}
        assert set(moved.values()) == {"pop-srv08"}
        assert 5000 / 9 * 0.8 < len(moved) < 5000 / 9 * 1.2

    def test_balance_over_similarly_named_nodes(self):
        """Names differing in their last byte: without the avalanche
        finalizer their weights correlate and one node runs hot."""
        cache = _cache([f"edge-pop-ams-s{i}" for i in range(8)])
        rng = random.Random(20_000)
        keys = [
            (f"h{rng.getrandbits(40):x}.example.com", f"/{rng.getrandbits(24):x}")
            for _ in range(20_000)
        ]
        loads = Counter(cache.home_node(key).name for key in keys)
        assert len(loads) == 8
        assert max(loads.values()) / (20_000 / 8) <= 1.06


# -- column forms ≡ scalar forms, bit for bit -------------------------------------

_key_hashes = st.lists(
    st.one_of(st.integers(0, _MASK64), st.sampled_from([0, 1, 1 << 63, _MASK64])),
    max_size=40,
)


class TestPickColumn:
    """``pick_column`` over a prepared ``hrw_table`` against ``pick`` per
    key — the scalar loop is the reference, and stays one."""

    @settings(max_examples=200, deadline=None)
    @given(style=st.sampled_from(_STYLES), size=st.integers(1, 33),
           order=st.randoms(use_true_random=False), keys=_key_hashes)
    def test_matches_pick_per_key(self, style, size, order, keys):
        names = [style(i) for i in range(size)]
        order.shuffle(names)
        members = [hrw_seed(name) for name in names]
        assert pick_column(hrw_table(members), keys) == [pick(members, k) for k in keys]

    @settings(max_examples=60, deadline=None)
    @given(style=st.sampled_from(_STYLES), size=st.integers(2, 33),
           drained=st.integers(0, 32), keys=_key_hashes)
    def test_routers_follow_a_drain_and_restore(self, style, size, drained, keys):
        """``remove_server`` / ``add_server`` rebuild the prepared table:
        ``choose_many`` tracks ``choose`` through all three memberships."""
        names = [style(i) for i in range(size)]
        router, victim = ECMPRouter(names), names[drained % size]
        original = router.choose_many(keys)
        assert original == [router.choose(k) for k in keys]
        router.remove_server(victim)
        assert victim not in router.choose_many(keys)
        assert router.choose_many(keys) == [router.choose(k) for k in keys]
        router.add_server(victim)  # now last in the member list
        assert router.choose_many(keys) == original

    def test_tied_weights_break_on_the_name_in_either_list_order(self):
        """The construction of ``test_tied_weights_match_the_reference_tie_break``:
        the column's first maximum must be the greatest tied name."""
        rng = random.Random(0x71E)
        for _ in range(200):
            names = rng.sample("abcdefghij", rng.randint(2, 6))
            seed = rng.getrandbits(64)
            keys = [rng.getrandbits(64) for _ in range(8)]
            members = [(seed if i % 2 else seed ^ 1, n) for i, n in enumerate(names)]
            expected = [pick(members, k) for k in keys]
            assert pick_column(hrw_table(members), keys) == expected
            assert pick_column(hrw_table(members[::-1]), keys) == expected
            # All seeds equal: every key ties across the board.
            flat = [(seed, n) for n in names]
            assert pick_column(hrw_table(flat), keys) == [max(names)] * len(keys)

    def test_cache_home_nodes_follow_membership(self):
        names = [f"pop-srv{i:02d}" for i in range(8)]
        cache = _cache(names)
        requests = [Request(host, path) for host, path in _keys(600)]
        requests.append(Request("WWW.Site-0001.Example.COM.", "/asset/1"))  # keyed canonically

        def scalar():
            return [cache.home_node((r.authority.lower().rstrip("."), r.path)) for r in requests]

        assert cache.home_nodes(requests) == scalar()
        assert cache.home_nodes(requests)[-1] is cache.home_nodes(requests)[1]
        cache.remove_node("pop-srv03")
        assert cache.home_nodes(requests) == scalar()
        assert "pop-srv03" not in {node.name for node in cache.home_nodes(requests)}
        cache.add_node("pop-srv03")
        assert cache.home_nodes(requests) == scalar()
        assert cache.home_nodes([]) == []


class TestFnvColumn:
    @settings(max_examples=200, deadline=None)
    @given(datas=st.lists(st.binary(max_size=300), max_size=24))
    def test_matches_fnv1a64_per_string(self, datas):
        column = fnv1a64_column(datas)
        assert column.dtype == np.uint64
        assert column.tolist() == [fnv1a64(data) for data in datas]

    @pytest.mark.parametrize("datas", [
        [],
        [b""],
        [b"", b"", b""],
        [b"same-length-a", b"same-length-b", b"same-length-c"],
        [b"", b"x", b"y" * 300, b"", b"z" * 7],
        ["σερβερ.example.com".encode() + b"\xff" + "/π".encode(),
         "bücher.example".encode() + b"\xff/"],
    ], ids=["empty-column", "one-empty", "all-empty", "equal", "unequal", "non-ascii"])
    def test_shapes(self, datas):
        assert fnv1a64_column(datas).tolist() == [fnv1a64(data) for data in datas]
