"""Long-running campaign evaluation service (stdlib HTTP, no new deps).

:class:`FleetServer` is the queue + execution half of the fleet service:
clients POST :class:`~repro.api.spec.CampaignSpec` s, a single drain thread
pulls jobs off the FIFO and pushes their cells through the same supervised
machinery local campaigns use (:class:`~repro.api.fleet.CellSupervisor` —
worker-death recovery, per-cell timeouts, seeded retries), and every record
flows to three sinks as it lands: the job's in-memory stream (served
incrementally to polling clients), the fleet-wide spec-hash
:class:`~repro.service.cache.ResultCache` (a cell is never computed twice),
and the columnar :class:`~repro.service.store.ResultStore` ingest log.

Threading model (deliberately boring)::

    ThreadingHTTPServer        one thread per request; handlers only read/
        |                      mutate shared state under self._lock
    drain thread               executes jobs FIFO, one at a time (cells
        |                      within a job parallelize via the pool)
    producer thread (per job)  iterates CellSupervisor.iter_records() into
                               a Queue so the drain thread can tick the
                               job heartbeat every second even while a
                               long cell runs, and so cancellation takes
                               effect at the next cell boundary

``repro lint`` enforces both halves of this model statically: RPR401 keeps
the package stdlib-only (deployable on a bare interpreter; the columnar
store is the one declared numpy boundary) and RPR402 flags mutations of
lock-guarded attributes that happen outside ``with self._lock:``.

Graceful shutdown (:meth:`close` / SIGINT in the CLI): stop accepting
jobs, ask the running job to stop at its next cell boundary, drain the
producer, compact the store, then stop the HTTP listener.  Records already
produced stay durable in the per-job JSONL, the cache, and the store.

The HTTP surface is defined in :mod:`repro.service.protocol`; the payload
contract is that records are payload-bit-identical to a local serial
``CampaignRunner`` run of the same spec (asserted in CI's service smoke).
"""

from __future__ import annotations

import itertools
import json
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Union
from urllib.parse import parse_qs, urlparse

from ..api.fleet import CellSupervisor
from ..api.runner import ExperimentRecord, dispatch_order
from ..api.spec import CampaignSpec, FleetPolicy, _is_int
from .cache import ResultCache
from .protocol import (
    CANCELLED,
    DONE,
    FAILED,
    PROTOCOL_VERSION,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobStatus,
    error_body,
    json_body,
)
from .store import ResultStore

#: Drain-thread wake-up period: the floor on heartbeat resolution and on
#: cancel/shutdown latency during a long cell.
HEARTBEAT_TICK_S = 1.0


class _EndOfJob:
    """Sentinel the producer enqueues after its last record."""


@dataclass
class _Job:
    """Server-side state of one submitted campaign."""

    job_id: str
    campaign: CampaignSpec
    jobs: int
    policy: Optional[FleetPolicy]
    state: str = QUEUED
    records: List[ExperimentRecord] = field(default_factory=list)
    n_cached: int = 0
    n_errors: int = 0
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    heartbeat_at: Optional[float] = None
    detail: Optional[str] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def status(self, now: Optional[float] = None) -> JobStatus:
        now = time.time() if now is None else now
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            campaign=self.campaign.name,
            n_cells=len(self.campaign),
            n_records=len(self.records),
            n_cached=self.n_cached,
            n_errors=self.n_errors,
            created_at=self.created_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            heartbeat_at=self.heartbeat_at,
            heartbeat_age_s=(
                None if self.heartbeat_at is None
                else max(0.0, now - self.heartbeat_at)
            ),
            detail=self.detail,
        )


class FleetServer:
    """Job-queue server for campaign evaluation.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (the bound port is
        on :attr:`port` — tests and benchmarks rely on this).
    data_dir:
        Root for service state: ``cache/`` (spec-hash result cache),
        ``store/`` (columnar store), ``jobs/<job_id>.jsonl`` (per-job
        durable record log).
    jobs:
        Default worker processes per job (a submit may override).
    policy:
        Default :class:`~repro.api.spec.FleetPolicy` per job.
    use_cache:
        Disable to force recomputation (benchmarking cold paths).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        data_dir: Union[str, Path, None] = None,
        jobs: int = 1,
        policy: Optional[FleetPolicy] = None,
        use_cache: bool = True,
    ):
        self.data_dir = Path(data_dir) if data_dir is not None else Path(
            "fleet_data"
        )
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = jobs
        self.policy = policy
        self.use_cache = use_cache
        self.cache = ResultCache(self.data_dir / "cache")
        self.store = ResultStore(self.data_dir / "store")
        self.started_at = time.time()

        self._lock = threading.Lock()
        self._jobs: Dict[str, _Job] = {}
        self._job_counter = itertools.count(1)
        self._pending: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stopping = threading.Event()
        self._drain_thread: Optional[threading.Thread] = None
        self._serve_thread: Optional[threading.Thread] = None

        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.host, self.port = self.httpd.server_address[:2]

    # -- lifecycle -------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FleetServer":
        """Start the drain thread and serve HTTP in the background
        (returns immediately; use :meth:`serve_forever` for a foreground
        server)."""
        self._start_drain()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="fleet-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the HTTP loop in the calling thread (blocks until
        :meth:`close`; the CLI wraps this with SIGINT handling)."""
        self._start_drain()
        self.httpd.serve_forever(poll_interval=0.1)

    def _start_drain(self) -> None:
        if self._drain_thread is None:
            self._drain_thread = threading.Thread(
                target=self._drain_loop, name="fleet-drain", daemon=True
            )
            self._drain_thread.start()

    def close(self, timeout_s: float = 30.0) -> None:
        """Graceful shutdown: refuse new jobs, stop the running job at its
        next cell boundary, persist everything, stop serving."""
        self._stopping.set()
        with self._lock:
            for job in self._jobs.values():
                if job.state in (QUEUED, RUNNING):
                    job.cancel_event.set()
                    if job.state == QUEUED:
                        job.state = CANCELLED
                        job.detail = "server shutdown"
                        job.finished_at = time.time()
        self._pending.put(None)  # wake the drain thread
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=timeout_s)
        try:
            if self.store.pending_ingest:
                self.store.compact()
        except ValueError:
            pass  # foreign-version store: leave the ingest log intact
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=timeout_s)

    # -- submission (called from handler threads) ------------------------
    def submit(self, payload: dict) -> str:
        if self._stopping.is_set():
            raise ValueError("server is shutting down; not accepting jobs")
        if not isinstance(payload, dict) or "campaign" not in payload:
            raise ValueError('submit body must be {"campaign": {...}, ...}')
        campaign = CampaignSpec.from_dict(payload["campaign"])
        if len(campaign) == 0:
            raise ValueError("campaign has no cells")
        jobs = payload.get("jobs")
        if jobs is None:
            jobs = self.jobs
        elif not _is_int(jobs) or jobs < 1:
            raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
        policy = self.policy
        if payload.get("policy") is not None:
            policy = FleetPolicy.from_dict(payload["policy"])
        with self._lock:
            job_id = f"job-{next(self._job_counter):04d}"
            self._jobs[job_id] = _Job(
                job_id=job_id, campaign=campaign, jobs=jobs, policy=policy
            )
        self._pending.put(job_id)
        return job_id

    def job(self, job_id: str) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id}")
        return job

    def cancel(self, job_id: str) -> JobStatus:
        job = self.job(job_id)
        with self._lock:
            if job.state == QUEUED:
                job.state = CANCELLED
                job.detail = "cancelled while queued"
                job.finished_at = time.time()
            elif job.state == RUNNING:
                job.cancel_event.set()
                job.detail = "cancel requested (next cell boundary)"
            job.cancel_event.set()
            return job.status()

    def records_page(self, job_id: str, since: int) -> dict:
        job = self.job(job_id)
        with self._lock:
            records = job.records[since:]
            state = job.state
        return {
            "records": [r.to_dict() for r in records],
            "next": since + len(records),
            "state": state,
            "done": state in TERMINAL_STATES,
        }

    def health(self) -> dict:
        with self._lock:
            states = [j.state for j in self._jobs.values()]
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self.started_at, 3),
            "jobs": {state: states.count(state) for state in set(states)},
            "queue_depth": states.count(QUEUED),
            "cache": self.cache.stats.to_dict(),
        }

    # -- execution (drain thread) ----------------------------------------
    def _drain_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                job_id = self._pending.get(timeout=HEARTBEAT_TICK_S)
            except queue.Empty:
                continue
            if job_id is None:
                break
            job = self.job(job_id)
            with self._lock:
                if job.state != QUEUED:
                    continue  # cancelled while queued
                job.state = RUNNING
                job.started_at = job.heartbeat_at = time.time()
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 — job machinery failure
                with self._lock:
                    job.state = FAILED
                    job.detail = f"{type(exc).__name__}: {exc}"
                    job.finished_at = time.time()

    def _sink_record(self, job: _Job, record: ExperimentRecord,
                     sink, cached: bool) -> None:
        """One record → job stream + durable JSONL + cache + store."""
        sink.write(record.to_json_line() + "\n")
        sink.flush()
        if not cached:
            if self.use_cache:
                self.cache.put(record)
            self.store.ingest(record)
        with self._lock:
            job.records.append(record)
            if cached:
                job.n_cached += 1
            if record.error is not None:
                job.n_errors += 1
            job.heartbeat_at = time.time()

    def _run_job(self, job: _Job) -> None:
        jobs_dir = self.data_dir / "jobs"
        jobs_dir.mkdir(parents=True, exist_ok=True)
        with open(jobs_dir / f"{job.job_id}.jsonl", "a",
                  encoding="utf-8") as sink:
            # Cache pass first: hits stream back immediately and never touch
            # the pool.  Order within the job is hits-then-computed; clients
            # that need campaign order key on record.spec.
            pending = []
            for spec in job.campaign:
                hit = self.cache.get(spec) if self.use_cache else None
                if hit is not None:
                    self._sink_record(job, hit, sink, cached=True)
                else:
                    pending.append(spec)

            interrupted = False
            if pending and not job.cancel_event.is_set():
                interrupted = self._run_pending(job, pending, sink)

        with self._lock:
            if job.cancel_event.is_set() and (
                interrupted or len(job.records) < len(job.campaign)
            ):
                job.state = CANCELLED
                job.detail = job.detail or "cancelled"
            else:
                job.state = DONE
            job.finished_at = job.heartbeat_at = time.time()

    def _run_pending(self, job: _Job, pending, sink) -> bool:
        """Drive uncached cells through the supervisor; True if the job
        stopped early on cancel/shutdown."""
        if job.jobs > 1 and len(pending) > 1:
            pending = dispatch_order(pending)
        supervisor = CellSupervisor(
            pending, jobs=job.jobs, policy=job.policy
        )
        out: "queue.Queue[Any]" = queue.Queue()

        def produce() -> None:
            try:
                for record in supervisor.iter_records():
                    out.put(record)
                    if job.cancel_event.is_set():
                        break
                out.put(_EndOfJob)
            except BaseException as exc:  # noqa: BLE001 — crosses threads
                out.put(exc)

        producer = threading.Thread(
            target=produce, name=f"fleet-{job.job_id}", daemon=True
        )
        producer.start()
        interrupted = False
        while True:
            try:
                item = out.get(timeout=HEARTBEAT_TICK_S)
            except queue.Empty:
                # A long cell is running: tick the heartbeat so clients can
                # distinguish "slow cell" from "dead server".
                with self._lock:
                    job.heartbeat_at = time.time()
                continue
            if item is _EndOfJob:
                break
            if isinstance(item, BaseException):
                raise item
            self._sink_record(job, item, sink, cached=False)
            if job.cancel_event.is_set():
                interrupted = True
        producer.join(timeout=HEARTBEAT_TICK_S)
        return interrupted or job.cancel_event.is_set()


# -- HTTP plumbing ---------------------------------------------------------

_ROUTES = {
    "health": re.compile(r"^/healthz$"),
    "jobs": re.compile(r"^/jobs$"),
    "job": re.compile(r"^/jobs/([A-Za-z0-9_-]+)$"),
    "records": re.compile(r"^/jobs/([A-Za-z0-9_-]+)/records$"),
    "cancel": re.compile(r"^/jobs/([A-Za-z0-9_-]+)/cancel$"),
}


def _make_handler(server: FleetServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-fleet/1"

        # Quiet by default; the CLI serve loop prints its own summary lines.
        def log_message(self, fmt, *args):  # noqa: A003 — stdlib signature
            pass

        def _send(self, code: int, body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, data: dict, code: int = 200) -> None:
            self._send(code, json_body(data))

        def _send_error_line(self, code: int, message: str) -> None:
            self._send(code, error_body(message))

        def _read_body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError(f"request body is not valid JSON: {exc}")

        def do_GET(self) -> None:  # noqa: N802 — stdlib naming
            parsed = urlparse(self.path)
            path = parsed.path
            try:
                if _ROUTES["health"].match(path):
                    self._send_json(server.health())
                    return
                if _ROUTES["jobs"].match(path):
                    with server._lock:
                        statuses = [
                            j.status().to_dict()
                            for j in server._jobs.values()
                        ]
                    self._send_json({"jobs": statuses})
                    return
                m = _ROUTES["records"].match(path)
                if m:
                    qs = parse_qs(parsed.query)
                    since = int(qs.get("since", ["0"])[0])
                    if since < 0:
                        raise ValueError("since must be >= 0")
                    self._send_json(server.records_page(m.group(1), since))
                    return
                m = _ROUTES["job"].match(path)
                if m:
                    self._send_json(server.job(m.group(1)).status().to_dict())
                    return
                self._send_error_line(404, f"no such endpoint: {path}")
            except KeyError as exc:
                self._send_error_line(404, str(exc.args[0]))
            except ValueError as exc:
                self._send_error_line(400, str(exc))
            except Exception as exc:  # noqa: BLE001 — never kill the thread
                self._send_error_line(500, f"{type(exc).__name__}: {exc}")

        def do_POST(self) -> None:  # noqa: N802 — stdlib naming
            path = urlparse(self.path).path
            try:
                if _ROUTES["jobs"].match(path):
                    job_id = server.submit(self._read_body())
                    self._send_json({"job_id": job_id}, code=201)
                    return
                m = _ROUTES["cancel"].match(path)
                if m:
                    self._send_json(server.cancel(m.group(1)).to_dict())
                    return
                self._send_error_line(404, f"no such endpoint: {path}")
            except KeyError as exc:
                self._send_error_line(404, str(exc.args[0]))
            except (TypeError, ValueError) as exc:
                self._send_error_line(400, str(exc))
            except Exception as exc:  # noqa: BLE001 — never kill the thread
                self._send_error_line(500, f"{type(exc).__name__}: {exc}")

    return Handler
