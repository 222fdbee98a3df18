"""Differential suite for the vectorized numpy kernel tier.

Two acceptance properties:

* **parity** — with numpy installed, the ``numpy`` kernel is
  bit-identical to ``naive``/``sweep``: same pairs in the same order,
  same counters, same report counter sections, same checkpoint handoff.
  Both physical paths are covered — the broadcasted comparison matrix
  for small partition pairs and the ``searchsorted`` range
  decomposition for large ones.
* **graceful absence** — with numpy unavailable (monkeypatched import
  failure), every resolution layer degrades to the sweep: name-level
  (``choose_kernel`` never hands out ``"numpy"``) and
  function-level (``kernel_function("numpy")`` returns the sweep
  callable), with the substitution recorded in the join's result details.
"""

import random

import pytest

from repro.core import kernels
from repro.core.granules import (
    NUMPY_FROM_CANDIDATES,
    choose_kernel,
    estimated_candidates,
)
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.kernels import (
    DecodedRun,
    kernel_function,
    naive_matches,
    numpy_available,
    numpy_matches,
    sweep_matches,
)
from repro.engine.governor import CancellationToken
from repro.storage.metrics import CostWeights
from repro.workloads import long_lived_mixture

from ..conftest import random_relation
from .test_kernels import (
    CONFIGS,
    SAME_K,
    WORKLOADS,
    brute_force_hits,
    fingerprint,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy is not installed"
)


# ---------------------------------------------------------------------------
# Kernel unit parity, both physical paths.
# ---------------------------------------------------------------------------


@requires_numpy
class TestNumpyMatches:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_broadcast_path(self, seed):
        rng = random.Random(seed)
        outer = list(random_relation(rng, rng.randint(1, 40), range_size=60))
        inner = list(random_relation(rng, rng.randint(1, 40), range_size=60))
        hits = numpy_matches(
            DecodedRun.from_tuples(outer), DecodedRun.from_tuples(inner)
        )
        assert hits == brute_force_hits(outer, inner)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_searchsorted_path(self, seed, monkeypatch):
        # Force the range-decomposition path even for small pairs.
        monkeypatch.setattr(kernels, "NUMPY_BROADCAST_CELLS", 0)
        rng = random.Random(100 + seed)
        outer = list(random_relation(rng, rng.randint(1, 50), range_size=80))
        inner = list(random_relation(rng, rng.randint(1, 50), range_size=80))
        hits = numpy_matches(
            DecodedRun.from_tuples(outer), DecodedRun.from_tuples(inner)
        )
        assert hits == brute_force_hits(outer, inner)

    @pytest.mark.parametrize("path_cells", [0, 4096])
    def test_emission_order_matches_naive(self, path_cells, monkeypatch):
        monkeypatch.setattr(kernels, "NUMPY_BROADCAST_CELLS", path_cells)
        rng = random.Random(7)
        outer = DecodedRun.from_tuples(
            list(random_relation(rng, 35, range_size=50))
        )
        inner = DecodedRun.from_tuples(
            list(random_relation(rng, 30, range_size=50))
        )
        # The same *list*, not merely the same set: ascending encoded
        # order is the inner-major emission order of Algorithm 2.
        assert numpy_matches(outer, inner) == naive_matches(outer, inner)

    def test_empty_runs(self):
        rng = random.Random(3)
        run = DecodedRun.from_tuples(list(random_relation(rng, 5)))
        empty = DecodedRun.from_tuples([])
        assert numpy_matches(empty, run) == []
        assert numpy_matches(run, empty) == []
        assert numpy_matches(empty, empty) == []

    def test_tie_heavy_starts_searchsorted(self, monkeypatch):
        monkeypatch.setattr(kernels, "NUMPY_BROADCAST_CELLS", 0)
        from repro.core.relation import TemporalRelation

        tuples = list(
            TemporalRelation.from_records(
                [(5, 5 + (i % 3), i) for i in range(12)]
            )
        )
        run = DecodedRun.from_tuples(tuples)
        assert numpy_matches(run, run) == brute_force_hits(tuples, tuples)


# ---------------------------------------------------------------------------
# Join-level parity.
# ---------------------------------------------------------------------------


@requires_numpy
class TestNumpyDifferentialIdentity:
    """numpy kernel == naive kernel, bit for bit."""

    @pytest.fixture(scope="class")
    def references(self):
        return {
            name: OIPJoin(kernel="naive", **SAME_K).join(*rels)
            for name, rels in WORKLOADS.items()
        }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_backend_identity(self, references, workload, config):
        result = OIPJoin(kernel="numpy", **SAME_K, **CONFIGS[config]).join(
            *WORKLOADS[workload]
        )
        assert result.details["kernel"] == "numpy"
        assert fingerprint(result) == fingerprint(references[workload])

    def test_coarse_k_identity(self, references):
        # k=2 produces the huge partition pairs that exercise the
        # searchsorted path without any monkeypatching.
        outer, inner = WORKLOADS["mixed"]
        reference = OIPJoin(kernel="naive", k_outer=2, k_inner=2).join(
            outer, inner
        )
        result = OIPJoin(kernel="numpy", k_outer=2, k_inner=2).join(
            outer, inner
        )
        assert fingerprint(result) == fingerprint(reference)

    def test_report_counter_sections_identical(self, references):
        outer, inner = WORKLOADS["mixed"]
        result = OIPJoin(kernel="numpy", collect_report=True, **SAME_K).join(
            outer, inner
        )
        naive = OIPJoin(kernel="naive", collect_report=True, **SAME_K).join(
            outer, inner
        )
        assert result.report["counters"] == naive.report["counters"]
        assert result.report["resilience"] == naive.report["resilience"]
        assert result.report["result"] == naive.report["result"]

    @pytest.mark.parametrize("resume_kernel", ("naive", "sweep", "numpy"))
    def test_checkpoint_handoff(self, tmp_path, resume_kernel):
        # A checkpoint written under numpy resumes under any kernel.
        outer, inner = WORKLOADS["mixed"]
        # The paper's weights partition finely enough that the cancel
        # after four checks lands mid-probe.
        weights = CostWeights.main_memory()
        reference = OIPJoin(kernel="naive", weights=weights).join(outer, inner)
        path = str(tmp_path / f"numpy-{resume_kernel}.ckpt")
        token = CancellationToken(cancel_after_checks=4)
        partial = OIPJoin(
            kernel="numpy",
            weights=weights,
            cancellation=token,
            checkpoint_path=path,
            checkpoint_every=1,
        ).join(outer, inner)
        assert not partial.completed
        resumed = OIPJoin(
            kernel=resume_kernel, weights=weights, resume_from=path
        ).join(outer, inner)
        assert resumed.completed
        assert resumed.pair_keys() == reference.pair_keys()


# ---------------------------------------------------------------------------
# Graceful degradation without numpy.
# ---------------------------------------------------------------------------


def _break_numpy(monkeypatch):
    def fail():
        raise ImportError("numpy deliberately unavailable for this test")

    monkeypatch.setattr(kernels, "_import_numpy", fail)


class TestNumpyAbsent:
    def test_numpy_available_reports_false(self, monkeypatch):
        _break_numpy(monkeypatch)
        assert not kernels.numpy_available()

    def test_kernel_function_falls_back_to_sweep(self, monkeypatch):
        _break_numpy(monkeypatch)
        assert kernel_function("numpy") is sweep_matches

    def test_direct_call_raises_with_guidance(self, monkeypatch):
        _break_numpy(monkeypatch)
        rng = random.Random(1)
        run = DecodedRun.from_tuples(list(random_relation(rng, 4)))
        with pytest.raises(RuntimeError, match="kernel_function"):
            numpy_matches(run, run)

    def test_resolve_kernel_substitutes_sweep(self, monkeypatch):
        _break_numpy(monkeypatch)
        outer, inner = WORKLOADS["mixed"]
        assert choose_kernel(outer, inner, "numpy") == "sweep"

    def test_choose_kernel_skips_numpy_tier(self, monkeypatch):
        _break_numpy(monkeypatch)
        big = long_lived_mixture(
            1_000, 0.5, Interval(1, 2**20), seed=7, name="big"
        )
        lam = big.duration_fraction
        estimated = estimated_candidates(big.cardinality, big.cardinality, lam, lam)
        assert estimated >= NUMPY_FROM_CANDIDATES
        assert choose_kernel(big, big) == "sweep"

    def test_join_records_substitution(self, monkeypatch):
        _break_numpy(monkeypatch)
        outer, inner = WORKLOADS["mixed"]
        reference = OIPJoin(kernel="naive", **SAME_K).join(outer, inner)
        result = OIPJoin(kernel="numpy", **SAME_K).join(outer, inner)
        assert result.details["kernel"] == "sweep"
        assert result.details["kernel_requested"] == "numpy"
        assert fingerprint(result) == fingerprint(reference)

    def test_join_parity_without_numpy_all_backends(self, monkeypatch):
        # The full differential property holds in a numpy-less
        # environment too (this is what the CI numpy-absent leg runs).
        _break_numpy(monkeypatch)
        outer, inner = WORKLOADS["uniform"]
        reference = OIPJoin(kernel="naive", **SAME_K).join(outer, inner)
        result = OIPJoin(kernel="numpy", **SAME_K).join(outer, inner)
        assert fingerprint(result) == fingerprint(reference)
