"""Start and stop the system the way an operator does: CLI subprocesses.

Each shard is a ``repro serve --data-dir`` process (durable store, engine
workers forked by the server itself) and a cluster adds one
``repro coordinate`` front end.  Everything runs from the checkout's own
``src`` tree, so the benchmark measures the code of the commit it sits in.
Process lifetime is owned here: every process started is stopped with
SIGTERM (graceful drain), killed if it does not drain, and waited for —
together with the engine workers it forked.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: How long a service may take to bind its port (pairing-group set-up
#: and engine fork included).
READY_TIMEOUT_S = 60.0
#: How long a SIGTERMed service may take to drain before it is killed.
STOP_TIMEOUT_S = 20.0


def _children_by_parent() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # Field 4 is the parent pid; the command name before it may hold
        # spaces, so split after its closing parenthesis.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    return children


def descendants(pid: int) -> list[int]:
    """Every live process below *pid* (engine workers and their kin)."""
    children = _children_by_parent()
    found: list[int] = []
    frontier = [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def rss_mb(pid: int) -> float:
    """Resident set size of one process in MB (0 once it has exited)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _wait_gone(pids: list[int], timeout_s: float) -> None:
    """Wait until none of *pids* is alive; SIGKILL what outlives the wait."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        alive = [pid for pid in alive if Path(f"/proc/{pid}").exists()]
        if alive:
            time.sleep(0.02)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class ProcessFailed(RuntimeError):
    """A service process failed to start, or is not running."""


class Service:
    """One ``python -m repro <verb>`` subprocess with a port file."""

    def __init__(self, name: str, args: list[str], workdir: Path):
        self.name = name
        self.args = list(args)
        self.log_path = workdir / f"{name}.log"
        self.port_file = workdir / f"{name}.port"
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._workers: list[int] = []

    def spawn(self) -> None:
        """Start the process; :meth:`wait_ready` returns its port."""
        self.port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        argv = [
            sys.executable, "-m", "repro", *self.args,
            "--port", "0", "--port-file", str(self.port_file),
        ]
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )

    def wait_ready(self, timeout_s: float = READY_TIMEOUT_S) -> int:
        """Block until the service wrote its port file; return the port.

        Raises:
            ProcessFailed: If the process exits or stays silent too long.
        """
        if self.proc is None:
            raise ProcessFailed(f"{self.name} was never started")
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ProcessFailed(
                    f"{self.name} exited with {self.proc.returncode}: "
                    f"{self.log_tail()}"
                )
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.strip():
                self.port = int(text)
                return self.port
            time.sleep(0.005)
        raise ProcessFailed(f"{self.name} did not start in {timeout_s:.0f} s")

    def log_tail(self, lines: int = 5) -> str:
        """The last lines of the service's log, for error messages."""
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])

    @property
    def alive(self) -> bool:
        """Whether the process is running."""
        return self.proc is not None and self.proc.poll() is None

    def rss(self) -> tuple[float, float]:
        """(parent MB, MB summed over its descendants)."""
        if not self.alive:
            return 0.0, 0.0
        pid = self.proc.pid
        return rss_mb(pid), sum(rss_mb(kid) for kid in descendants(pid))

    def terminate(self) -> None:
        """Send SIGTERM (graceful drain); :meth:`join` waits for it."""
        if self.alive:
            self._workers = descendants(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)

    def join(self) -> None:
        """Wait for the drain, kill on timeout; reap its engine workers."""
        if self.proc is None:
            return
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        _wait_gone(self._workers, STOP_TIMEOUT_S)
        self._workers = []
        self.proc = None

    def stop(self) -> None:
        """:meth:`terminate` and :meth:`join`."""
        self.terminate()
        self.join()


class Deployment:
    """The shards (and coordinator) of one workload, as CLI processes."""

    def __init__(self, spec, workdir: Path, key_path: Path):
        self.spec = spec
        self.workdir = workdir
        self.shards = [
            Service(
                f"shard{index}",
                [
                    "serve",
                    "--key", str(key_path),
                    "--data-dir", str(workdir / f"shard{index}"),
                    "--workers", str(spec.workers),
                ],
                workdir,
            )
            for index in range(spec.shards)
        ]
        self.coordinator: Service | None = None

    @property
    def services(self) -> list[Service]:
        """Every process of the deployment, front end first."""
        front = [self.coordinator] if self.coordinator is not None else []
        return front + self.shards

    @property
    def front_port(self) -> int:
        """The port clients talk to (the coordinator's, if any)."""
        front = self.coordinator or self.shards[0]
        if front.port is None:
            raise ProcessFailed("deployment is not running")
        return front.port

    def shard_port(self, index: int) -> int:
        """The port of one backend shard."""
        port = self.shards[index].port
        if port is None:
            raise ProcessFailed(f"shard{index} is not running")
        return port

    def start(self) -> int:
        """Start every shard in parallel, then the coordinator; return the
        front port."""
        try:
            for shard in self.shards:
                shard.spawn()
            for shard in self.shards:
                shard.wait_ready()
            if self.spec.coordinated:
                args = [
                    "coordinate",
                    "--data-dir", str(self.workdir / "coordinator"),
                    "--replication", str(self.spec.replication),
                ]
                for shard in self.shards:
                    args += ["--shard", f"127.0.0.1:{shard.port}"]
                self.coordinator = Service("coordinator", args, self.workdir)
                self.coordinator.spawn()
                self.coordinator.wait_ready()
        except BaseException:
            self.stop()
            raise
        return self.front_port

    def rss_mb(self) -> float:
        """VmRSS summed over every service process and engine worker."""
        return sum(sum(service.rss()) for service in self.services)

    def stop(self) -> None:
        """SIGTERM every process at once, then wait for each."""
        for service in self.services:
            service.terminate()
        for service in self.services:
            service.join()
