"""Property tests of the granule policy under both weight sets.

A join decides its kernel first (``choose_kernel``), then derives ``k``
for it: Equation 1 under the paper's weights
(``CostWeights.main_memory()``) for every kernel, and under the
engine's (``CostWeights.engine()``, the default) for the naive kernel;
the ``sweep`` and ``numpy`` kernels, which never touch a false hit, run
at ``k = 1`` under the engine's.  Over drawn edge-case relations —
empty sides, point intervals, a one-chronon domain, tuples on the
domain bounds — both weight sets and every requested kernel:

* the join runs the chosen kernel;
* the derived ``k`` is at least 1 (exactly 1 for a fast kernel under
  the engine's weights), and each side's count is the derived ``k``
  capped to that side's time range;
* the self-adjusting join equals the join pinned at its derived ``k``
  in pairs (in order), cost counters and resilience counters;
* the result records which weights chose ``k`` and, when Equation 1
  chose it, Equation 1's predicted cost there.

Snapshot tests pin what the default means for a snapshot: one saved
under the paper's weights is served under the policy it records, and a
default join degrades it with ``config_mismatch`` to a rebuild equal to
a plain default join; a default snapshot serves a naive join at its
own ``k``, loaded or rebuilt.
"""

import os

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.granules import GranulePolicy, choose_kernel
from repro.core.kernels import KERNELS
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.service.service import JoinService, summarize_result
from repro.storage.device import DeviceProfile
from repro.storage.metrics import CostWeights
from repro.storage.snapshot import save_index
from repro.workloads import long_lived_mixture

from .test_probe_core import relation_pairs

SMALL = settings(max_examples=40, deadline=None)

#: ``None`` is the default: the engine's weights.
WEIGHTS = st.sampled_from([None, CostWeights.main_memory(), CostWeights.engine()])
REQUESTED = st.sampled_from(("auto",) + KERNELS)


def _record(result):
    return (
        list(result.pairs),
        result.counters.snapshot(),
        result.resilience.snapshot(),
    )


@SMALL
@given(relations=relation_pairs(), weights=WEIGHTS, requested=REQUESTED)
def test_derived_k_is_capped_and_equals_its_pinned_join(
    relations, weights, requested
):
    outer, inner = relations
    device = DeviceProfile.main_memory()
    policy = GranulePolicy(weights=weights).resolved()
    kernel = choose_kernel(outer, inner, requested)
    derivation = policy.derive(outer, inner, device, kernel)
    assert derivation.k >= 1
    model = derivation.model
    assert model.kernel == kernel
    assert model.prices_candidates == (
        kernel == "naive" or weights == CostWeights.main_memory()
    )
    if not model.prices_candidates:
        assert derivation.k == 1
    auto = OIPJoin(weights=weights, kernel=requested).join(outer, inner)
    assert auto.details.get("kernel", kernel) == kernel
    pinned = OIPJoin(weights=weights, kernel=requested, k=derivation.k).join(
        outer, inner
    )
    assert _record(auto) == _record(pinned)
    if outer.is_empty or inner.is_empty:
        return
    k_outer, k_inner = policy.counts(outer, inner, derivation)
    assert k_outer == max(1, min(derivation.k, outer.time_range_duration))
    assert k_inner == max(1, min(derivation.k, inner.time_range_duration))
    details = auto.details
    assert (details["k_outer"], details["k_inner"]) == (k_outer, k_inner)
    assert details["k_weights"] == (
        "paper" if weights == CostWeights.main_memory() else "engine"
    )
    if model.prices_candidates:
        assert details["k_predicted_cost"] == model.overhead_cost(k_inner)
    else:
        assert "k_predicted_cost" not in details
    assert "k_weights" not in pinned.details


def _figure8_pair():
    domain = Interval(1, 20_000)
    return (
        long_lived_mixture(400, 0.3, time_range=domain, seed=11, name="r"),
        long_lived_mixture(400, 0.3, time_range=domain, seed=12, name="s"),
    )


def _paper_snapshot(tmp_path):
    outer, inner = _figure8_pair()
    path = os.path.join(str(tmp_path), "paper.oip")
    save_index(path, outer, inner, weights=CostWeights.main_memory())
    paper = OIPJoin(weights=CostWeights.main_memory()).join(outer, inner)
    engine = OIPJoin().join(outer, inner)
    # The two weight sets partition this pair differently, so the
    # checks below can tell which policy ran.
    assert paper.details["k"] != engine.details["k"]
    return path, outer, inner, paper, engine


def test_service_serves_a_paper_snapshot_under_its_recorded_policy(tmp_path):
    path, _, _, paper, engine = _paper_snapshot(tmp_path)
    service = JoinService(path)
    service.start()
    try:
        body = service.query("join")
    finally:
        service.drain()
    expected = summarize_result(paper, op="join", window=None, generation=None)
    assert (body["fingerprint"], body["pairs"]) == (
        expected["fingerprint"],
        expected["pairs"],
    )
    assert body["counters"] == paper.counters.snapshot()
    assert body["counters"] != engine.counters.snapshot()
    assert body["index"]["loaded"] is True


def test_default_join_degrades_a_paper_snapshot_to_a_rebuild(tmp_path):
    path, outer, inner, _, engine = _paper_snapshot(tmp_path)
    result = OIPJoin(index_path=path).join(outer, inner)
    assert result.details["index"] == {
        "path": path,
        "loaded": False,
        "reason": "config_mismatch",
    }
    assert _record(result) == _record(engine)
    assert result.details["k"] == engine.details["k"]


def test_a_default_snapshot_serves_a_naive_join_at_its_k(tmp_path):
    """A default snapshot's k is priced for the fast kernels, and so is
    every join that uses an index: a naive join restores it (also when
    served) rather than rebuilding, and a naive join whose load
    degrades rebuilds the same partitioning."""
    outer, inner = _figure8_pair()
    path = os.path.join(str(tmp_path), "engine.oip")
    save_index(path, outer, inner)
    fast = OIPJoin(kernel="sweep").join(outer, inner)
    assert OIPJoin(kernel="naive").join(outer, inner).details["k"] != (
        fast.details["k"]
    )
    at_index_k = OIPJoin(kernel="naive", k=fast.details["k"]).join(outer, inner)
    restored = OIPJoin(index_path=path, kernel="naive").join(outer, inner)
    assert restored.details["index"]["loaded"] is True
    assert _record(restored) == _record(at_index_k)
    missing = os.path.join(str(tmp_path), "missing.oip")
    rebuilt = OIPJoin(index_path=missing, kernel="naive").join(outer, inner)
    assert rebuilt.details["index"]["loaded"] is False
    assert _record(rebuilt) == _record(at_index_k)
    service = JoinService(path, kernel="naive")
    service.start()
    try:
        served = service.query("join")
        per_request = service.query("join", kernel="naive")
    finally:
        service.drain()
    for body in (served, per_request):
        assert body["index"]["loaded"] is True
        assert body["kernel"] == "naive"
        assert body["counters"] == at_index_k.counters.snapshot()


def test_fast_kernels_run_at_one_granule_under_the_engine_weights():
    """Under the engine's weights the naive kernel keeps Equation 1 and
    the fast kernels run at k=1, on equal relations and on a tiny one
    against a large one; under the paper's weights every kernel derives
    Equation 1's k."""
    device = DeviceProfile.main_memory()
    engine = GranulePolicy().resolved()
    paper = GranulePolicy(weights=CostWeights.main_memory())
    domain = Interval(1, 20_000)
    tiny = long_lived_mixture(2, 0.0, time_range=domain, seed=13, name="tiny")
    large = long_lived_mixture(
        20_000, 0.0, time_range=domain, seed=14, name="large"
    )
    for outer, inner in (_figure8_pair(), (tiny, large)):
        for kernel in ("sweep", "numpy"):
            assert engine.derive(outer, inner, device, kernel).k == 1
        assert engine.derive(outer, inner, device, "naive").k > 1
        assert len(
            {paper.derive(outer, inner, device, kernel).k for kernel in KERNELS}
        ) == 1
