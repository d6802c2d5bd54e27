"""``service_admit``: the placement daemon under an open-loop admission load.

``repro serve`` runs in its own process.  This process plays
independent clients: every admission has a due time on a fixed-rate
schedule and is sent on one of :data:`CONNECTIONS` keep-alive
connections as soon as it is due and a connection is free, whether or
not earlier admissions were slow (an open loop, so a stall queues the
admissions behind it).  Two latencies are kept per request: from the
due time to the end of the response, which includes the wait a stall
imposes on later admissions (the ``loadgen.*`` percentiles), and from
sending the request to the end of its response, which leaves out how
late the generator's own thread woke.  How late the generator ran is
reported separately (``loadgen.lag_p99_ms``, ``loadgen.backlog_max``).

The end-to-end ``latency_ms`` is the median of the daemon's
send-to-response latencies divided by that of a do-nothing responder
(:mod:`responder`) loaded in alternating windows with the same
requests, in milliseconds of the reference host: on a shared virtual
machine the host's wake-up latency, which both pay, moves the raw
figure by up to half from one run to the next.

The generator speaks HTTP itself, on blocking sockets from one thread
per connection: ``time.sleep`` wakes within a fraction of a millisecond
of a due time where the asyncio timer rounds to 1 ms, and the
package's own client stays outside what is measured.

The traffic is the repository's own synthetic tenants,
:func:`repro.service.loadgen.make_workload` (the ``repro loadgen``
defaults: :data:`TENANTS` tenants, log-uniform estimates on [0.5, 4],
per-tenant ``default_rng([seed, i])``), sent round-robin over the
tenants.  As in ``repro loadgen``, every ``RETRY_EVERY``-th task of
each tenant is sent twice with the same idempotency key, as a retrying
client would, and the daemon must deduplicate exactly those.  After the
load the daemon is drained: it must have admitted exactly one task per
distinct key, completed all of them, and answered every request without
an error.
"""

from __future__ import annotations

import json
import os
import re
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import hostspeed

STRATEGY = "ls_group[k=2]"
MACHINES = 8
ALPHA = 1.5
#: Keep-alive connections of the generator; with the daemon, three busy
#: threads on a two-core host.
CONNECTIONS = 2
#: Synthetic tenants, as ``repro loadgen --tenants`` defaults to.
TENANTS = 100
#: Admissions per second of the base-rate windows.
BASE_RATE = 500.0
#: The fixed high rate at which ``loadgen.peak_p99_ms`` is measured.
PEAK_RATE = 1500.0
#: Rounds of alternating windows per daemon.  A round gives
#: :data:`BASE_SHARE` of its time to the daemon at the base rate, as much
#: to the responder at the base rate, and :data:`PEAK_SHARE` to the
#: daemon at the peak rate.
WINDOWS = 12
BASE_SHARE = 0.4
PEAK_SHARE = 0.2
#: The do-nothing responder (``perfbench/responder.py``) whose latency
#: ``latency_ms`` is rescaled by, and that latency's median at the base
#: rate on the reference host (2-core x86 Xeon microVM, median of four
#: runs).
RESPONDER = Path(__file__).with_name("responder.py")
RESPONDER_P50_MS = 0.47
#: The rate ladder ``loadgen.sustained_rps`` is read from: 500 to 6000
#: admissions/s in steps of 100.  It is searched coarse to fine: every
#: tenth rung first, then the rungs above the highest coarse one held.
LADDER_STEP = 100
COARSE = 10
LADDER = tuple(float(r) for r in range(500, 6001, LADDER_STEP))
#: A ladder rung is sustained when its p99 stays within this limit and
#: no more than a connection's worth of requests was still unsent when
#: the rung's last request fell due (no growing backlog).
P99_LIMIT_MS = 20.0
READY_TIMEOUT_S = 60.0


@dataclass
class PhaseResult:
    rate: float
    latencies_ms: list[float] = field(default_factory=list)  # from the due time
    services_ms: list[float] = field(default_factory=list)  # from sending
    lags_ms: list[float] = field(default_factory=list)
    backlog_max: int = 0
    final_backlog: int = 0
    errors: int = 0
    http_s: float = 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies_ms, q)) if self.latencies_ms else float("inf")

    def sustained(self) -> bool:
        return (
            self.errors == 0
            and self.percentile(99) <= P99_LIMIT_MS
            and self.final_backlog <= CONNECTIONS
        )


@dataclass
class Ledger:
    """What the generator sent and what the daemon answered."""

    keys: set[str] = field(default_factory=set)
    duplicates: int = 0
    created: int = 0
    deduplicated: int = 0
    errors: int = 0
    attempted: int = 0


class Server:
    """A server process that first prints ``http://127.0.0.1:<port>``."""

    def __init__(self, cmd: list[str], root: Path, env: dict[str, str] | None = None) -> None:
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"{cmd[1:3]} did not report a port: {line!r}")
        self.port = int(match.group(1))

    def cpu_s(self) -> float:
        """CPU seconds the server's (only) thread has run so far, to the ns."""
        return int(Path(f"/proc/{self.proc.pid}/schedstat").read_text().split()[0]) / 1e9

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Daemon(Server):
    """One ``repro serve`` process on a free TCP port."""

    def __init__(self, root: Path, seed: int, *, spans_out: Path | None = None) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        serve_args = [
            "serve", "--port", "0", "--strategy", STRATEGY, "--m", str(MACHINES),
            "--alpha", str(ALPHA), "--seed", str(seed),
        ]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            wrapper = Path(__file__).with_name("serve_traced.py")
            cmd = [sys.executable, str(wrapper), str(spans_out), *serve_args]
        super().__init__(cmd, root, env)
        try:
            self.request("GET", "/v1/status")  # first answer: the daemon is ready
        except BaseException:
            self.kill()
            raise

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, dict[str, Any]]:
        with socket.create_connection(("127.0.0.1", self.port), timeout=READY_TIMEOUT_S) as sock:
            sock.sendall(_http(method, path, body, None, keep_alive=False))
            with sock.makefile("rb") as stream:
                return _read_response(stream)

    def peak_rss_mb(self) -> float:
        text = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="ascii")
        kib = int(re.search(r"VmHWM:\s+(\d+)", text).group(1))
        return kib / 1024.0

    def shutdown(self) -> dict[str, Any]:
        """Drain and stop; returns the drained scheduler counters."""
        try:
            status, body = self.request("POST", "/v1/shutdown")
        finally:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
            self.kill()
        if status != 200:
            raise RuntimeError(f"shutdown answered {status}")
        return body


def _http(method: str, path: str, body: bytes, key: str | None, *, keep_alive: bool) -> bytes:
    head = [
        f"{method} {path} HTTP/1.1",
        "Host: perfbench",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if key is not None:
        head.append(f"Idempotency-Key: {key}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _read_response(stream) -> tuple[int, dict[str, Any]]:
    status_line = stream.readline()
    if not status_line:
        raise ConnectionError("daemon closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    raw = stream.read(length) if length else b""
    return status, (json.loads(raw) if raw else {})


class LoadGenerator:
    """Seeded admissions sent open-loop over a few keep-alive connections."""

    def __init__(self, port: int, seed: int) -> None:
        self.port = port
        self.seed = seed
        self.ledger = Ledger()
        self._sent = 0  # admissions (not replays) handed out so far
        self._tasks = 0  # tasks per tenant in ``self._workload``
        self._workload: list[Any] = []

    def _items(self, count: int) -> list[tuple[bytes, str, bool]]:
        """``count`` requests: the next admissions plus their scripted replays.

        Admission ``k`` is task ``k // TENANTS`` of tenant ``k % TENANTS``.
        The workload is regrown with twice the tasks when it runs out;
        each tenant's estimates are a prefix-stable stream of its own
        generator, so regrowing leaves the tasks already sent unchanged.
        """
        from repro.service.loadgen import RETRY_EVERY, make_workload

        items: list[tuple[bytes, str, bool]] = []
        while len(items) < count:
            tenant, task = self._sent % TENANTS, self._sent // TENANTS
            if task >= self._tasks:
                self._tasks = max(64, 2 * self._tasks)
                self._workload = make_workload(TENANTS, self._tasks, seed=self.seed)
            spec = self._workload[tenant]
            key = spec.keys[task]
            body = json.dumps(
                {"tenant": spec.tenant, "estimate": spec.estimates[task], "size": 0.0},
                separators=(",", ":"),
            ).encode("ascii")
            request = _http("POST", "/v1/tasks", body, key, keep_alive=True)
            items.append((request, key, False))
            if task % RETRY_EVERY == RETRY_EVERY - 1:
                items.append((request, key, True))
            self._sent += 1
        return items

    def run(self, rate: float, seconds: float) -> PhaseResult:
        """Send ``rate * seconds`` admissions on schedule; blocks until answered."""
        items = self._items(max(1, int(rate * seconds)))
        for _request, key, duplicate in items:
            if duplicate:
                self.ledger.duplicates += 1
            else:
                self.ledger.keys.add(key)
        result = PhaseResult(rate)
        n = len(items)
        latencies = [0.0] * n
        services = [0.0] * n
        lags = [0.0] * n
        cursor = [0]
        lock = threading.Lock()
        errors: list[BaseException] = []
        start = time.perf_counter() + 0.02

        def worker() -> None:
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    with sock.makefile("rb") as stream:
                        self._drive(
                            sock, stream, items, rate, start, cursor, lock,
                            latencies, services, lags, result,
                        )
            except BaseException as exc:  # reported by the caller
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            result.errors += len(errors)
            self.ledger.errors += len(errors)
        result.latencies_ms = [1000.0 * v for v in latencies]
        result.services_ms = [1000.0 * v for v in services]
        result.lags_ms = [1000.0 * v for v in lags]
        # Requests not yet sent when the last one fell due: the backlog
        # the rate left behind.
        last_due = (n - 1) / rate
        result.final_backlog = sum(i / rate + lags[i] > last_due for i in range(n))
        self.ledger.attempted += n
        return result

    def _drive(
        self, sock, stream, items, rate, start, cursor, lock, latencies, services, lags, result
    ) -> None:
        n = len(items)
        while True:
            with lock:
                i = cursor[0]
                if i >= n:
                    return
                cursor[0] = i + 1
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            backlog = min(n, int((sent - start) * rate) + 1) - (i + 1)
            request, _key, _duplicate = items[i]
            sock.sendall(request)
            status, body = _read_response(stream)
            done = time.perf_counter()
            latencies[i] = done - due
            services[i] = done - sent
            lags[i] = sent - due
            with lock:
                result.http_s += done - sent
                result.backlog_max = max(result.backlog_max, backlog)
                if status in (200, 201) and isinstance(body.get("created"), bool):
                    if body["created"]:
                        self.ledger.created += 1
                    else:
                        self.ledger.deduplicated += 1
                else:
                    result.errors += 1
                    self.ledger.errors += 1


def _pooled(phases: list[PhaseResult], q: float, attr: str = "latencies_ms") -> float:
    """Percentile ``q`` of ``attr`` over all requests of ``phases``."""
    return float(np.percentile([v for p in phases for v in getattr(p, attr)], q))


def _climb(gen: LoadGenerator, rates, seconds: float, rungs: list[PhaseResult]) -> float:
    """Highest sustained rate of ``rates``, climbing until two rungs in a row fail."""
    best = 0.0
    misses = 0
    for rate in rates:
        rung = gen.run(rate, seconds)
        rungs.append(rung)
        if rung.sustained():
            best, misses = rate, 0
        else:
            misses += 1
            if misses == 2:
                break
    return best


def _measure(
    root: Path, seed: int, seconds: float, smoke: bool, spans_out: Path | None, *, ladder: bool
) -> dict[str, Any]:
    """One daemon lifetime: start, seeded load, drain, checks.

    ``seconds`` go to the alternating windows; the rate ladder, which
    only ``loadgen.sustained_rps`` reads, runs after them if ``ladder``.
    """
    daemon = Daemon(root, seed, spans_out=spans_out)
    try:
        responder = Server([sys.executable, str(RESPONDER)], root)
    except BaseException:
        daemon.kill()
        raise
    gen = LoadGenerator(daemon.port, seed)
    baseline = LoadGenerator(responder.port, seed)  # the same requests
    share = 0.02 if smoke else 1.0
    try:
        warm_up = gen.run(BASE_RATE, 0.5 * share)  # checked, not reported
        baseline.run(BASE_RATE, 0.5 * share)
        # The daemon at the base rate, the responder at the base rate and
        # the daemon at the peak rate alternate in short windows, so that
        # a slow spell of the shared host hits all three alike; the
        # percentiles pool every window (2400 admissions a side at the
        # base rate at --seconds 12).  Daemon CPU time is read around
        # the daemon's windows only.
        base: list[PhaseResult] = []
        floor: list[PhaseResult] = []
        peak: list[PhaseResult] = []
        cpu_s = 0.0
        window = seconds * share / WINDOWS
        for _ in range(WINDOWS):
            cpu_start = daemon.cpu_s()
            base.append(gen.run(BASE_RATE, BASE_SHARE * window))
            cpu_s += daemon.cpu_s() - cpu_start
            floor.append(baseline.run(BASE_RATE, BASE_SHARE * window))
            cpu_start = daemon.cpu_s()
            peak.append(gen.run(PEAK_RATE, PEAK_SHARE * window))
            cpu_s += daemon.cpu_s() - cpu_start
        admitted_per_cpu_s = sum(len(p.latencies_ms) for p in base + peak) / cpu_s
        rungs: list[PhaseResult] = []
        sustained = None
        if ladder:
            coarse = _climb(gen, LADDER[::COARSE], 0.04 * seconds * share, rungs)
            above = [r for r in LADDER if coarse < r < coarse + COARSE * LADDER_STEP]
            sustained = max(coarse, _climb(gen, above, 0.04 * seconds * share, rungs))
        rss = daemon.peak_rss_mb()
        drained = daemon.shutdown()
    except BaseException:
        daemon.kill()
        raise
    finally:
        responder.kill()
    ledger = gen.ledger
    unique = len(ledger.keys)
    checks = {
        "no request errors": ledger.errors == 0,
        "created once per key": ledger.created == unique,
        "scripted replays deduplicated": ledger.deduplicated == ledger.duplicates,
        "daemon admitted every key once": drained.get("admitted") == unique,
        "daemon deduplicated every replay": drained.get("deduplicated") == ledger.duplicates,
        "every admitted task completed": drained.get("done") == drained.get("admitted"),
        "responder answered every request": baseline.ledger.errors == 0,
    }
    phases = [warm_up] + base + peak + rungs
    return {
        "base": base,
        "floor": floor,
        "peak": peak,
        "sustained": sustained,
        "admissions_per_cpu_s": admitted_per_cpu_s,
        "rss": rss,
        "ledger": ledger,
        "checks": checks,
        "lag_p99_ms": _pooled(phases, 99, "lags_ms"),
        "backlog_max": float(max(p.backlog_max for p in phases)),
        "http_s": sum(p.http_s for p in phases),
    }


def run_service(root: Path, seed: int, seconds: float, *, traced: bool, smoke: bool, work: Path) -> dict[str, Any]:
    """One ``service_admit`` run; returns metrics plus check outcomes."""
    # Set-up is the daemon's CPU time from exec to its first answer plus
    # shutdown: CPU time, unlike wall time, does not grow while other
    # tenants of a shared host hold the core; it is rescaled to the
    # reference host's speed as the grid workloads' timings are.
    setups: list[float] = []
    slow_before = hostspeed.slowdown()
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        Daemon(root, seed).shutdown()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        slow_after = hostspeed.slowdown()
        setups.append(hostspeed.rescaled(cpu, slow_before, slow_after))
        slow_before = slow_after
    layers: dict[str, float] = {}
    if traced:
        plain = _measure(root, seed, seconds / 2, smoke, None, ladder=True)
        spans_out = work / f"service_admit-seed{seed}-daemon-spans.jsonl"
        run = _measure(root, seed, seconds / 2, smoke, spans_out, ladder=False)
        layers = _service_layers(spans_out, run, plain)
        runs = [plain, run]
    else:
        run = _measure(root, seed, seconds, smoke, None, ladder=False)
        runs = [run]
    checks: dict[str, bool] = {}
    attempted = failed = 0
    for r in runs:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
        attempted += r["ledger"].attempted
        failed += r["ledger"].errors + sum(not ok for ok in r["checks"].values())
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": run["admissions_per_cpu_s"],
        # The daemon's latency in units of the responder's, measured in
        # the same spell of the host, in reference-host milliseconds.
        "latency_ms": RESPONDER_P50_MS
        * _pooled(run["base"], 50, "services_ms")
        / _pooled(run["floor"], 50, "services_ms"),
        "peak_rss_mb": run["rss"],
        "ok_share": 1.0 - min(failed, attempted) / attempted,
    }
    return {"e2e": e2e, "layers": layers, "checks": checks, "attempted": attempted, "failed": failed}


def _service_layers(spans_file: Path, run: dict[str, Any], plain: dict[str, Any]) -> dict[str, float]:
    """Per-layer figures from the daemon's spans and the generator's clock."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for line in spans_file.read_text(encoding="utf-8").splitlines():
        span = json.loads(line)
        busy[span["name"]] = busy.get(span["name"], 0.0) + span["end"] - span["start"]
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    admit = busy.get("service.admit", 0.0)
    traced_mean = statistics.fmean(v for p in run["base"] for v in p.latencies_ms)
    plain_mean = statistics.fmean(v for p in plain["base"] for v in p.latencies_ms)
    return {
        "service.admit.calls": float(calls.get("service.admit", 0)),
        "service.admit.busy_s": admit,
        "service.place.busy_s": busy.get("service.place", 0.0),
        "service.step.calls": float(calls.get("service.step", 0)),
        "service.step.busy_s": busy.get("service.step", 0.0),
        "service.http_s": run["http_s"] - admit,
        # The generator's own figures come from the untraced daemon.
        "loadgen.lag_p99_ms": plain["lag_p99_ms"],
        "loadgen.backlog_max": plain["backlog_max"],
        "loadgen.responder_p50_ms": _pooled(plain["floor"], 50, "services_ms"),
        "loadgen.base_p50_ms": _pooled(plain["base"], 50),
        "loadgen.base_p90_ms": _pooled(plain["base"], 90),
        "loadgen.base_p99_ms": _pooled(plain["base"], 99),
        "loadgen.peak_p99_ms": _pooled(plain["peak"], 99),
        "loadgen.sustained_rps": plain["sustained"],
        "trace.overhead_pct": 100.0 * (traced_mean - plain_mean) / plain_mean,
    }
