"""The served path never imports numpy on sweep-kernel relations.

Importing numpy adds ~14 MB to a process that otherwise never loads it
(the reason ``auto`` picks the numpy kernel only above
``NUMPY_FROM_CANDIDATES``).  A served lookup or join over relations the
sweep kernel joins — restore, probe, summary, wire — must stay clear of
it, or ``peak_rss_mb`` of a lookup service grows by that much.  The
check runs in a fresh interpreter, so no other test's import counts.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

SCRIPT = textwrap.dedent(
    """
    import os, sys, tempfile

    from repro.core.granules import choose_kernel
    from repro.service import JoinService
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceServer
    from repro.storage import save_index
    from repro.workloads.synthetic import uniform_relation

    outer, inner = (
        uniform_relation(1500, seed=seed, name=name)
        for seed, name in ((5, "outer"), (6, "inner"))
    )
    assert choose_kernel(outer, inner) == "sweep"
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "served.oip")
        save_index(path, outer, inner)
        service = JoinService(path, result_cache_size=4)
        service.start()
        server = ServiceServer(service).start()
        client = ServiceClient(server.host, server.port, timeout_s=60.0)
        try:
            span = outer.time_range
            width = span.duration // 20
            for step in range(4):
                start = span.start + step * width
                body = client.lookup([start, start + width])
                assert body["completed"], body
            assert service.query("join")["completed"]
        finally:
            client.close()
            server.shutdown()
    print("numpy" in sys.modules)
    """
)


def test_served_lookups_on_sweep_relations_do_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "False"
