"""Wire-propagation trace plumbing: trace ids, the server-side ring of
finished trees, and client/server stitching."""

import threading

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    TraceBuffer,
    Tracer,
    new_trace_id,
    stitch_traces,
)


def _tree(trace_id, name="service.query"):
    return {
        "name": name,
        "start_ms": 0.0,
        "duration_ms": 1.0,
        "attributes": {"trace_id": trace_id},
    }


class TestTraceIds:
    def test_ids_are_short_hex_and_unique(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)  # hex or raise

    def test_minting_makes_no_system_call(self, monkeypatch):
        """A system call per id releases and retakes the interpreter
        lock on every request, which starved the other threads of a
        serving process for seconds; ids come from an in-process
        generator."""
        import os

        def no_syscall(size):
            raise AssertionError("new_trace_id called os.urandom")

        monkeypatch.setattr(os, "urandom", no_syscall)
        assert len({new_trace_id() for _ in range(100)}) == 100

    @pytest.mark.skipif(
        not hasattr(__import__("os"), "fork"), reason="needs os.fork"
    )
    def test_forked_children_mint_their_own_ids(self):
        """Pre-forked workers must not repeat each other's ids."""
        import os

        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child writes its first id and exits
            os.close(read)
            os.write(write, new_trace_id().encode())
            os._exit(0)
        os.close(write)
        child = os.read(read, 64).decode()
        os.close(read)
        os.waitpid(pid, 0)
        assert len(child) == 16
        assert child != new_trace_id()

    def test_tracer_stamps_root_with_trace_id(self):
        tracer = Tracer(trace_id="cafe")
        with tracer.span("service.query"):
            with tracer.span("join"):
                pass
        root = tracer.last_root
        assert root.attributes["trace_id"] == "cafe"
        assert "trace_id" not in root.children[0].attributes

    def test_null_tracer_has_no_trace_id(self):
        assert NULL_TRACER.trace_id is None


class TestTraceBuffer:
    def test_fifo_and_len(self):
        buffer = TraceBuffer(capacity=8)
        for i in range(3):
            buffer.add(_tree(f"t{i}"))
        assert len(buffer) == 3
        assert [t["attributes"]["trace_id"] for t in buffer.dump()] == [
            "t0", "t1", "t2",
        ]

    def test_eviction_counts_dropped(self):
        buffer = TraceBuffer(capacity=2)
        for i in range(5):
            buffer.add(_tree(f"t{i}"))
        assert len(buffer) == 2
        assert buffer.dropped == 3
        assert [t["attributes"]["trace_id"] for t in buffer.dump()] == [
            "t3", "t4",
        ]

    def test_dump_filters_by_trace_id_and_limit(self):
        buffer = TraceBuffer()
        buffer.add(_tree("a"))
        buffer.add(_tree("b"))
        buffer.add(_tree("a"))
        assert len(buffer.dump(trace_id="a")) == 2
        assert len(buffer.dump(limit=1)) == 1
        assert buffer.dump(limit=1)[0]["attributes"]["trace_id"] == "a"
        assert buffer.dump(trace_id="missing") == []

    def test_clear(self):
        buffer = TraceBuffer()
        buffer.add(_tree("a"))
        buffer.clear()
        assert len(buffer) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceBuffer(capacity=0)

    def test_concurrent_adds_are_safe(self):
        buffer = TraceBuffer(capacity=64)
        barrier = threading.Barrier(4)

        def worker(worker_id):
            barrier.wait()
            for i in range(50):
                buffer.add(_tree(f"w{worker_id}-{i}"))

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(buffer) == 64
        assert buffer.dropped == 200 - 64


class TestStitching:
    def test_server_tree_grafts_under_matching_client_span(self):
        client = {
            "name": "client.request",
            "start_ms": 0.0,
            "duration_ms": 5.0,
            "attributes": {"op": "join", "trace_id": "abc"},
            "children": [],
        }
        server = _tree("abc")
        merged = stitch_traces(client, server)
        assert merged["children"][-1] is server
        # The input client tree is left untouched.
        assert client["children"] == []

    def test_anchor_found_anywhere_in_client_tree(self):
        client = {
            "name": "session",
            "attributes": {},
            "children": [
                {"name": "client.request", "attributes": {"trace_id": "x"}},
                {"name": "client.request", "attributes": {"trace_id": "y"}},
            ],
        }
        merged = stitch_traces(client, _tree("y"))
        anchors = merged["children"]
        assert "children" not in anchors[0]
        assert anchors[1]["children"][0]["attributes"]["trace_id"] == "y"

    def test_missing_ids_raise(self):
        client = {"name": "client.request", "attributes": {"trace_id": "a"}}
        with pytest.raises(ValueError, match="no trace_id"):
            stitch_traces(client, {"name": "service.query", "attributes": {}})
        with pytest.raises(ValueError, match="no span with trace_id"):
            stitch_traces(client, _tree("other"))
