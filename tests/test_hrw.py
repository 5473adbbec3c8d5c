"""The one rendezvous hash (``repro.hashing.pick``) and its two users.

ECMP choices must be bit-identical to the pre-seed implementation (kept
here, verbatim, as the reference); the cache's placement formula changed
once, so it is pinned by its properties instead — minimal disruption and
balance over similarly named nodes.
"""

import random
from collections import Counter

from repro.edge.cache import DistributedCache
from repro.edge.ecmp import ECMPRouter
from repro.hashing import fnv1a64, pick, splitmix64
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


def _member_sets(rng: random.Random) -> list[list[str]]:
    styles = (
        lambda i: f"s{i}",
        lambda i: f"bench-pop-srv{i:02d}",
        lambda i: f"dc-ams-rack{i // 4}-srv{i % 4}.internal.example.net",
        lambda i: f"σερβερ-{i}",
    )
    sets = []
    for style in styles:
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
