"""Seeded N-thread contention hammers for the governor primitives.

The serving layer trusts one invariant under arbitrary interleaving:
admission slot accounting can never go negative or exceed its bounds.
These tests hammer it with deterministic per-thread seeds while sampler
threads watch the live state for violations.
"""

import random
import threading

from repro.engine.governor import AdmissionController, AdmissionRejectedError

THREADS = 12
ROUNDS = 40


class TestAdmissionContention:
    def _hammer(self, controller, seed, outcomes):
        rng = random.Random(seed)
        for _ in range(ROUNDS):
            try:
                with controller.admit(timeout=rng.choice([0.0, 0.005, 0.05])):
                    if rng.random() < 0.5:
                        threading.Event().wait(rng.random() * 0.002)
                outcomes["admitted"] += 1
            except AdmissionRejectedError as error:
                assert error.active >= 0
                assert error.queued >= 0
                outcomes["rejected"] += 1

    def test_slot_accounting_never_negative(self):
        controller = AdmissionController(max_active=3, max_queued=4)
        stop = threading.Event()
        violations = []

        def sampler():
            while not stop.is_set():
                active, queued = controller.active, controller.queued
                if not (0 <= active <= controller.max_active):
                    violations.append(("active", active))
                if not (0 <= queued <= controller.max_queued):
                    violations.append(("queued", queued))

        watch = threading.Thread(target=sampler, daemon=True)
        watch.start()
        per_thread = [
            {"admitted": 0, "rejected": 0} for _ in range(THREADS)
        ]
        threads = [
            threading.Thread(
                target=self._hammer,
                args=(controller, 1000 + index, per_thread[index]),
            )
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        watch.join(2.0)
        assert violations == []
        stats = controller.stats
        admitted = sum(outcome["admitted"] for outcome in per_thread)
        rejected = sum(outcome["rejected"] for outcome in per_thread)
        # Conservation: every submission was either admitted or
        # rejected, every admitted query completed, and the pool
        # returned to empty.
        assert stats.submitted == THREADS * ROUNDS
        assert stats.submitted == stats.admitted + stats.rejected
        assert stats.admitted == stats.completed == admitted
        assert stats.rejected == rejected
        assert stats.timeouts <= stats.rejected
        assert controller.active == 0
        assert controller.queued == 0
        assert 1 <= stats.peak_active <= controller.max_active
        assert stats.peak_queued <= controller.max_queued

    def test_zero_queue_rejects_immediately_under_contention(self):
        controller = AdmissionController(max_active=1, max_queued=0)
        barrier = threading.Barrier(THREADS)

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(ROUNDS):
                try:
                    with controller.admit(timeout=0.0):
                        threading.Event().wait(rng.random() * 0.001)
                except AdmissionRejectedError:
                    pass

        threads = [
            threading.Thread(target=worker, args=(2000 + index,))
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = controller.stats
        assert stats.submitted == stats.admitted + stats.rejected
        assert stats.admitted == stats.completed
        assert stats.peak_queued == 0
        assert controller.active == 0
