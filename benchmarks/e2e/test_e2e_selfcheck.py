"""Self-checks of the benchmark's own machinery.

Not part of tier 1 (``testpaths`` is ``tests``); run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_selfcheck.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import loadgen  # noqa: E402
import measure  # noqa: E402
import trace  # noqa: E402


def test_self_time_is_duration_minus_child_cover():
    #  root [0, 100] ── a [10, 40] ── c [15, 25]
    #               └── b [50, 90]
    targets = (("flow.engine", "m:root"), ("edge.cache", "m:a"),
               ("edge.cache", "m:b"), ("web.origin", "m:c"))
    recorder = trace.Recorder(targets)
    for target, parent, start, end in ((0, -1, 0, 100), (1, 0, 10, 40),
                                       (3, 1, 15, 25), (2, 0, 50, 90)):
        recorder.target.append(target)
        recorder.parent.append(parent)
        recorder.start.append(start)
        recorder.end.append(end)
    assert recorder.self_times() == [30, 20, 10, 40]

    ledger = recorder.ledger(ops=2, wall_ns=100)
    assert ledger["flow.engine"] == {"self_us_per_op": 0.015, "calls_per_op": 0.5, "share": 0.3}
    assert ledger["edge.cache"]["share"] == pytest.approx(0.6)
    assert ledger["edge.cache"]["calls_per_op"] == 1.0
    assert ledger["web.origin"]["share"] == pytest.approx(0.1)
    assert sum(row["share"] for row in ledger.values()) == pytest.approx(1.0)
    assert ledger["dns.wire"] == {"self_us_per_op": 0.0, "calls_per_op": 0.0, "share": 0.0}


def test_wrappers_record_nesting_and_are_removed_on_exit():
    from repro.serve import ProtocolCore, build_server

    targets = trace.FLOW_TARGETS + tuple(t for t in trace.WIRE_TARGETS
                                         if t not in trace.FLOW_TARGETS)
    owners = [trace.resolve(path) for _, path in targets]
    before = [vars(owner)[attr] for owner, attr in owners]
    core = ProtocolCore(build_server(), pop="serve")
    query = b"\x00\x07" + loadgen.udp_a_corpus()[0][1]
    with pytest.raises(RuntimeError), trace.traced(targets) as recorder:
        assert core.datagram(query)[:2] == b"\x00\x07"
        names = [targets[t][1].partition(":")[2] for t in recorder.target]
        # a method, a classmethod (Message.decode), a module function (extract_opt)
        assert names[:3] == ["ProtocolCore.datagram", "AuthoritativeServer.handle_wire",
                             "Message.decode"]
        assert "extract_opt" in names and "AddressPool.random_address" in names
        assert recorder.parent[:3] == [-1, 0, 1]
        assert all(parent >= 0 for parent in recorder.parent[1:])
        assert all(end >= start > 0 for start, end in zip(recorder.start, recorder.end))
        raise RuntimeError("restore must survive an error in the block")
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in zip(owners, before))
    core.datagram(query)
    assert len(recorder) == len(names)  # nothing records once the block is left


def test_percentile_interpolates_between_ranks():
    values = [40, 10, 30, 20]
    assert measure.percentile(values, 0.0) == 10
    assert measure.percentile(values, 0.5) == 25
    assert measure.percentile(values, 0.9) == pytest.approx(37)
    assert measure.percentile(values, 1.0) == 40
    assert measure.percentile([7], 0.9) == 7
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_spread_is_iqr_over_median():
    # quartiles of 1..9 (exclusive method) are 2.5, 5, 7.5
    assert measure.spread(range(1, 10)) == pytest.approx(1.0)
    assert measure.spread([5, 5, 5]) == 0


def test_sources_never_repeat_and_follow_the_seed():
    taken = loadgen.SourceAllocator(seed=3)
    addrs, ports = taken.take(50_000)
    assert len({(a.value, p) for a, p in zip(addrs, ports)}) == 50_000
    assert all(20_000 <= p < 60_000 for p in ports)
    again = loadgen.SourceAllocator(seed=3).take(100)
    assert ([a.value for a in again[0]], again[1]) == ([a.value for a in addrs[:100]], ports[:100])
    assert loadgen.SourceAllocator(seed=4).take(100)[1] != ports[:100]


def test_mixed_corpus_follows_the_seed_and_the_mix():
    corpus = loadgen.mixed_corpus(5)
    assert corpus == loadgen.mixed_corpus(5) != loadgen.mixed_corpus(6)
    shares = [sum(kind == k for kind, _ in corpus) / len(corpus) for k in range(4)]
    assert shares == pytest.approx(loadgen.MIXED_SHARES, abs=0.02)
    nx_bodies = [body for kind, body in corpus if kind == loadgen.KINDS.index("nx")]
    assert len(set(nx_bodies)) == len(nx_bodies)


@pytest.mark.parametrize("traced,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["flow_steady", "wire_mixed"])
def test_quick_output_names_exactly_the_declared_metrics(workload, traced, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--trace", str(traced), "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
