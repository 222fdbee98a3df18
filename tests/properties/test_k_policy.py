"""Property tests of the granule policy under both weight sets.

A join derives ``k`` from the paper's weights (``CostWeights
.main_memory()``, Equation 1 as printed) or from the engine's
(``CostWeights.engine()``, the default, which prices a partition
access).  Over drawn edge-case relations — empty sides, point
intervals, a one-chronon domain, tuples on the domain bounds — and
both weight sets:

* the derived ``k`` is at least 1, and each side's count is the derived
  ``k`` capped to that side's time range;
* the self-adjusting join equals the join pinned at its derived ``k``
  in pairs (in order), cost counters and resilience counters;
* the result records which weights chose ``k`` and Equation 1's
  predicted cost there.

Two snapshot tests pin what a change of the default means for a
snapshot saved under the paper's weights: the service serves it under
the policy it records, and a default join degrades it with
``config_mismatch`` to a rebuild equal to a plain default join.
"""

import os

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.granules import GranulePolicy
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


def _record(result):
    return (
        list(result.pairs),
        result.counters.snapshot(),
        result.resilience.snapshot(),
    )


@SMALL
@given(relations=relation_pairs(), weights=WEIGHTS)
def test_derived_k_is_capped_and_equals_its_pinned_join(relations, weights):
    outer, inner = relations
    device = DeviceProfile.main_memory()
    policy = GranulePolicy(weights=weights).resolved()
    derivation = policy.derive(outer, inner, device)
    assert derivation.k >= 1
    auto = OIPJoin(weights=weights).join(outer, inner)
    pinned = OIPJoin(weights=weights, k=derivation.k).join(outer, inner)
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
    assert details["k_predicted_cost"] == (
        derivation.model.overhead_cost(k_inner)
    )
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
