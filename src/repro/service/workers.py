"""Pre-fork worker pool: N processes of probe work behind one port.

Python's GIL caps a single serving process at roughly one core of probe
work no matter how many handler threads it runs.  The classic unix
answer — and this module's — is the **pre-fork shared-listener** model:
the parent binds the TCP listener once, forks N workers, and every
worker ``accept()``\\ s on the inherited socket; the kernel balances
incoming connections across blocked acceptors, so no user-space proxy
sits on the hot path and the parent does nothing per request.

Each worker is a full, independent :class:`~repro.service.service
.JoinService` — its own restored snapshot generation, admission
controller, metrics registry, result cache — so the pool's
correctness argument is inductive: every worker individually honours
the single-process bit-identity contract against the shared snapshot
file, therefore any interleaving of connections across workers does
too.

Coordination is deliberately thin:

* **roster** — the parent atomically rewrites ``roster.json`` (worker
  ids, pids, per-worker control endpoints, restart count) after every
  fork; workers read it to aggregate fleet-wide ``stats``
  (:mod:`repro.service.aggregate`).
* **refresh** — SIGHUP to the parent fans out as SIGHUP to every
  worker, each of which hot-swaps through its own
  :class:`~repro.service.snapshots.SnapshotManager` against the same
  snapshot path (the existing single-process path, N times).
* **supervision** — the parent waits on process sentinels; a worker
  that dies (crash, SIGKILL chaos) is logged, counted in
  ``service.worker.restarts``, and replaced while its in-flight clients
  see a dropped connection and retry onto a surviving worker
  (:class:`~repro.service.client.ServiceClient` ``retries=``).
* **shutdown** — SIGTERM to the parent (or a client ``shutdown`` op,
  which the receiving worker forwards to the parent) SIGTERMs every
  worker; each drains its in-flight queries before exiting.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from .errors import ScaleOutConfigError

__all__ = ["WorkerSupervisor", "WorkerStartupError", "MAX_WORKERS"]

#: Sanity ceiling on the pool size; past this the per-worker snapshot
#: restores dominate memory long before throughput improves.
MAX_WORKERS = 256


class WorkerStartupError(RuntimeError):
    """A worker failed to become ready; carries the exit code the
    single-process ``serve`` path would have used (66 missing snapshot,
    65 corrupt, 70 anything else) so the CLI surfaces the same code
    regardless of worker count."""

    def __init__(self, message: str, *, exit_code: int = 70) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def _write_atomic(path: str, document: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _worker_main(
    listener: socket.socket,
    worker_index: int,
    conn: Any,
    config: Dict[str, Any],
) -> None:
    """Child entry: build a full service, adopt the shared listener,
    report readiness (or a classified failure) over the pipe, then park
    until SIGTERM."""
    from ..obs.log import QueryLog
    from ..storage.snapshot import SnapshotError
    from .server import ServiceServer
    from .service import JoinService

    parent_pid = os.getppid()
    stop = threading.Event()
    try:
        query_log = None
        log_path = config.get("query_log_path")
        if log_path:
            # One NDJSON file per worker: concurrent appends from N
            # processes would interleave torn lines in a shared file.
            query_log = QueryLog(
                path=f"{log_path}.w{worker_index}",
                sample_rate=config.get("log_sample_rate", 1.0),
                slow_query_ms=config.get("slow_query_ms"),
            )
        service = JoinService(
            config["index_path"],
            worker_id=worker_index,
            roster_path=config["roster_path"],
            query_log=query_log,
            **config.get("service_kwargs", {}),
        )
        generation = service.start()
        control = ServiceServer(service, host="127.0.0.1", port=0).start()
        main_server = ServiceServer(
            service,
            listener=listener,
            drain_timeout_s=config.get("drain_timeout_s", 30.0),
            hard_stop_timeout_s=config.get("hard_stop_timeout_s", 5.0),
            # A client-initiated shutdown must stop the *pool*: forward
            # to the parent, which SIGTERMs every worker (including this
            # one) for a coordinated drain.
            on_shutdown_request=lambda: os.kill(
                parent_pid, signal.SIGTERM
            ),
        ).start()
    except SnapshotError as error:
        conn.send(
            {
                "ok": False,
                "worker": worker_index,
                "error": f"{error} [reason={error.reason}]",
                "exit_code": 66 if error.reason == "missing" else 65,
            }
        )
        conn.close()
        os._exit(66 if error.reason == "missing" else 65)
    except Exception as error:  # noqa: BLE001 - report, then die
        conn.send(
            {
                "ok": False,
                "worker": worker_index,
                "error": f"{type(error).__name__}: {error}",
                "exit_code": 70,
            }
        )
        conn.close()
        os._exit(70)

    def _term(_signum: int, _frame: Any) -> None:
        stop.set()

    def _hup(_signum: int, _frame: Any) -> None:
        def _refresh() -> None:
            try:
                service.refresh()
            except Exception:  # noqa: BLE001 - rejected swap keeps serving
                pass

        threading.Thread(target=_refresh, daemon=True).start()

    signal.signal(signal.SIGTERM, _term)
    signal.signal(signal.SIGINT, _term)
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, _hup)
    conn.send(
        {
            "ok": True,
            "worker": worker_index,
            "pid": os.getpid(),
            "generation": generation,
            "control_host": "127.0.0.1",
            "control_port": control.port,
        }
    )
    conn.close()
    stop.wait()
    main_server.shutdown()
    control.shutdown()
    if query_log is not None:
        query_log.close()
    sys.exit(0)


class WorkerSupervisor:
    """Fork, roster, supervise, and stop a pool of service workers.

    The parent process never touches a request: it owns the bound
    listener, the roster file, and the lifecycle.  ``start()`` forks the
    pool and blocks until every worker reports ready (propagating the
    first failure with its exit code); ``run()`` supervises until
    :meth:`initiate_shutdown`; ``refresh()`` fans SIGHUP out to the
    pool.
    """

    def __init__(
        self,
        index_path: str,
        *,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        service_kwargs: Optional[Dict[str, Any]] = None,
        drain_timeout_s: float = 30.0,
        hard_stop_timeout_s: float = 5.0,
        runtime_dir: Optional[str] = None,
        query_log_path: Optional[str] = None,
        log_sample_rate: float = 1.0,
        slow_query_ms: Optional[float] = None,
        ready_timeout_s: float = 60.0,
    ) -> None:
        if not 1 <= int(workers) <= MAX_WORKERS:
            raise ScaleOutConfigError(
                f"workers must be in [1, {MAX_WORKERS}], got {workers}",
                detail={"workers": workers},
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ScaleOutConfigError(
                "multi-process serving requires the fork start method, "
                "unavailable on this platform"
            )
        self.index_path = index_path
        self.workers = int(workers)
        self.host = host
        self._requested_port = port
        self.drain_timeout_s = drain_timeout_s
        self.hard_stop_timeout_s = hard_stop_timeout_s
        self.ready_timeout_s = ready_timeout_s
        self.restarts = 0
        self._ctx = multiprocessing.get_context("fork")
        self._listener: Optional[socket.socket] = None
        #: Every started worker, from fork until reaped.  ``_lock``
        #: orders each fork against :meth:`shutdown`: a worker is either
        #: registered before shutdown signals the pool, or never forked.
        self._procs: List[Any] = []
        self._lock = threading.Lock()
        self._roster_entries: List[Dict[str, Any]] = []
        self._stopping = threading.Event()
        if runtime_dir is None:
            runtime_dir = f"{index_path}.workers"
        os.makedirs(runtime_dir, exist_ok=True)
        self.runtime_dir = runtime_dir
        self.roster_path = os.path.join(runtime_dir, "roster.json")
        self._config: Dict[str, Any] = {
            "index_path": index_path,
            "roster_path": self.roster_path,
            "service_kwargs": dict(service_kwargs or {}),
            "drain_timeout_s": drain_timeout_s,
            "hard_stop_timeout_s": hard_stop_timeout_s,
            "query_log_path": query_log_path,
            "log_sample_rate": log_sample_rate,
            "slow_query_ms": slow_query_ms,
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("supervisor is not started")
        return self._listener.getsockname()[1]

    def start(self) -> Dict[str, Any]:
        """Bind, fork the pool, wait for readiness, write the roster.
        Returns the ready document (host, port, generation, pids)."""
        self._listener = socket.create_server(
            (self.host, self._requested_port), backlog=128
        )
        generation = None
        for index in range(self.workers):
            entry = self._spawn(index)
            generation = entry["generation"]
        self._write_roster()
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "generation": generation,
            "pids": [e["pid"] for e in self._roster_entries],
            "roster": self.roster_path,
        }

    def _spawn(
        self, index: int, *, teardown_on_failure: bool = True
    ) -> Dict[str, Any]:
        """Fork worker *index* and wait for its readiness report.

        A startup failure during the initial ``start()`` tears the whole
        pool down (``teardown_on_failure=True``): the pool never served,
        so failing loudly with the classified exit code is correct.  A
        failure while *replacing* a dead worker must instead reap only
        the failed replacement — surviving workers keep serving on the
        still-open listener and the caller retries the index later.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._listener, index, child_conn, self._config),
            name=f"oip-worker-{index}",
        )
        with self._lock:
            if self._stopping.is_set():
                raise WorkerStartupError(
                    f"worker {index} not started: the pool is stopping"
                )
            proc.start()
            self._procs.append(proc)
        child_conn.close()
        if not parent_conn.poll(self.ready_timeout_s):
            proc.terminate()
            self._reap_failed(proc, teardown_on_failure)
            raise WorkerStartupError(
                f"worker {index} did not report ready within "
                f"{self.ready_timeout_s:.0f}s"
            )
        try:
            report = parent_conn.recv()
        except EOFError:  # died before reporting, e.g. SIGTERMed by shutdown
            report = {"error": "exited before reporting ready"}
        parent_conn.close()
        if not report.get("ok"):
            self._reap_failed(proc, teardown_on_failure)
            raise WorkerStartupError(
                f"worker {index} failed to start: {report.get('error')}",
                exit_code=int(report.get("exit_code", 70)),
            )
        entry = {
            "worker": index,
            "pid": report["pid"],
            "generation": report["generation"],
            "control_host": report["control_host"],
            "control_port": report["control_port"],
        }
        self._roster_entries = [
            e for e in self._roster_entries if e["worker"] != index
        ] + [entry]
        self._roster_entries.sort(key=lambda e: e["worker"])
        return entry

    def _reap_failed(self, proc: Any, teardown: bool) -> None:
        """Reap a worker that failed to start, then tear the whole pool
        down when *teardown* is set."""
        proc.join(timeout=5.0)
        with self._lock:
            if proc in self._procs:
                self._procs.remove(proc)
        if teardown:
            self._teardown_procs()

    def _write_roster(self) -> None:
        with self._lock:
            if self._listener is None:
                return  # shut down: there is no pool to describe
            _write_atomic(
                self.roster_path,
                {
                    "version": 1,
                    "parent_pid": os.getpid(),
                    "host": self.host,
                    "port": self.port,
                    "workers": self._roster_entries,
                    "restarts": self.restarts,
                },
            )

    def run(self, poll_interval_s: float = 0.5) -> None:
        """Supervise until shutdown: wait on process sentinels, replace
        any worker that dies, keep the roster current.

        A replacement that itself fails to start (e.g. the snapshot went
        bad mid-rotation) never touches the rest of the pool: the failed
        fork is reaped, the listener stays open, surviving workers keep
        serving their pinned generation, and the index stays *pending* —
        retried on every supervision pass until a replacement sticks.
        """
        pending: set = set()
        while not self._stopping.is_set():
            changed = False
            with self._lock:
                dead = [p for p in self._procs if not p.is_alive()]
                for proc in dead:
                    self._procs.remove(proc)
            for proc in dead:
                index = int(proc.name.rsplit("-", 1)[1])
                # Drop the dead worker's roster entry now so fleet-wide
                # stats aggregation stops dialling its control port.
                self._roster_entries = [
                    e for e in self._roster_entries if e["worker"] != index
                ]
                self.restarts += 1
                pending.add(index)
                changed = True
            for index in sorted(pending):
                if self._stopping.is_set():
                    break
                try:
                    self._spawn(index, teardown_on_failure=False)
                except WorkerStartupError:
                    continue  # retried on the next pass
                pending.discard(index)
                changed = True
            if changed:
                self._write_roster()
            # Wait on every registered worker, not only the ones alive
            # now: a worker that died since the pass above keeps its
            # sentinel ready, so the wait returns at once and the next
            # pass replaces it.  Asking is_alive() again here would let
            # a death between the two checks end supervision.
            with self._lock:
                sentinels = [p.sentinel for p in self._procs]
            if not sentinels and not pending:
                break
            if sentinels:
                multiprocessing.connection.wait(
                    sentinels, timeout=poll_interval_s
                )
            else:
                # Every worker is down and awaiting respawn; pace the
                # retry loop instead of spinning.
                time.sleep(poll_interval_s)

    def refresh(self) -> None:
        """Fan the parent's SIGHUP out to every live worker."""
        if not hasattr(signal, "SIGHUP"):
            return
        for proc in self._procs:
            if proc.is_alive() and proc.pid:
                try:
                    os.kill(proc.pid, signal.SIGHUP)
                except OSError:
                    pass

    def initiate_shutdown(self) -> None:
        self._stopping.set()

    def shutdown(self) -> None:
        """SIGTERM the pool, wait for drains, reap stragglers.  A worker
        still starting is signalled too; no worker starts afterwards."""
        with self._lock:
            self._stopping.set()
            procs = list(self._procs)
        for proc in procs:
            if proc.is_alive() and proc.pid:
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except OSError:
                    pass
        deadline = (
            time.monotonic()
            + self.drain_timeout_s
            + self.hard_stop_timeout_s
            + 5.0
        )
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        with self._lock:
            self._procs = []
            listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()

    def _teardown_procs(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._procs = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None
