"""The benchmark workloads at their held-out seeds give their recorded
outputs.

``tests/test_benchmark_harness.py`` pins each workload at its default
seed; these pins cover the held-out seeds that ``benchmarks/run.py``
checks a claimed gain on, so that a rewrite of the hot path that changes
any output bit fails here too.  The bytes depend on the numpy and BLAS
build, so on another build they are re-recorded from code known to be
right.
"""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

HELD_OUT_WITNESSES = {
    ("ppo_train", 202): "56d5923a547b5d27bfb8d13b57a3f5822af880c30d5c346445c75b16aac392b8",
    ("td_full16", 102): "9773fc297e4c83c7ff4ed5ee80414492c3c712a9b6d56ee42c19a90de64f8e13",
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    return workloads


@pytest.mark.witness
@pytest.mark.parametrize("name, seed", sorted(HELD_OUT_WITNESSES))
def test_held_out_seed_gives_its_recorded_witness(workloads, tmp_path, name, seed):
    w = workloads.WORKLOADS[name]
    assert w.held_out_seed == seed
    op = w.check(w.run(w.prepare(seed, tmp_path), lambda: None))
    assert op.problems == []
    assert op.witness == HELD_OUT_WITNESSES[name, seed]
