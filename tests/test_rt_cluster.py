"""End-to-end runtime tests: real processes, real sockets, real kills.

These drive the actual ``python -m repro`` entrypoints as subprocesses:
the port-0 readiness handshake (bind ephemeral, announce the bound
address as one JSON line — no sleep-polling, no port collisions), a
healthy storm run against a launched cluster, and the acceptance
scenario — SIGKILL an agent mid-prepare, let the supervisor respawn
it, and require the full invariant battery to hold.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.rt.cluster import ClusterSupervisor

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _repro(*argv):
    return [sys.executable, "-m", "repro", *argv]


class TestPortZeroReadiness:
    """Satellite: ephemeral binding + readiness handshake."""

    @pytest.mark.parametrize(
        "role_argv, role, name",
        [
            (("coordinator", "--name", "c9"), "coordinator", "coord-c9"),
            (("agent", "--site", "branch1"), "agent", "agent-branch1"),
        ],
    )
    def test_ready_line_announces_bound_ephemeral_port(
        self, tmp_path, role_argv, role, name
    ):
        proc = subprocess.Popen(
            _repro(
                "serve",
                *role_argv,
                "--listen",
                "127.0.0.1:0",
                "--json",
                "--data-root",
                str(tmp_path),
            ),
            stdout=subprocess.PIPE,
            env=_env(),
        )
        try:
            # The readiness contract: exactly one JSON status line, only
            # after the listener is bound. A blocking readline IS the
            # synchronisation — no polling loop needed.
            line = proc.stdout.readline()
            status = json.loads(line)
            assert status["event"] == "ready"
            assert status["role"] == role
            assert status["name"] == name
            assert status["host"] == "127.0.0.1"
            assert status["port"] != 0  # port 0 resolved to a real port
            assert status["pid"] == proc.pid
            assert status["boot"]
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)

    def test_two_nodes_never_collide_on_ports(self, tmp_path):
        procs = [
            subprocess.Popen(
                _repro(
                    "serve",
                    "coordinator",
                    "--name",
                    f"c{i}",
                    "--listen",
                    "127.0.0.1:0",
                    "--json",
                    "--data-root",
                    str(tmp_path),
                ),
                stdout=subprocess.PIPE,
                env=_env(),
            )
            for i in range(2)
        ]
        try:
            ports = [json.loads(p.stdout.readline())["port"] for p in procs]
            assert ports[0] != ports[1]
        finally:
            for p in procs:
                p.send_signal(signal.SIGTERM)
            for p in procs:
                p.wait(timeout=10)


class TestClusterSupervision:
    """Satellites: the crash-loop guard's restart budget, and readiness
    failures that *say why* (the dead child's stderr) instead of hanging."""

    def test_exhausted_restart_budget_gives_up_visibly(self, tmp_path):
        """SIGKILL an agent under ``--max-restarts 0``: the supervisor
        must emit a ``gave-up`` event and record ``gave_up`` in
        cluster.json rather than hot-loop respawning a doomed child."""
        proc = subprocess.Popen(
            _repro(
                "serve",
                "cluster",
                "--bank-sites",
                "branch1",
                "--max-restarts",
                "0",
                "--json",
                "--data-root",
                str(tmp_path),
            ),
            stdout=subprocess.PIPE,
            env=_env(),
            text=True,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            cluster = json.loads((tmp_path / "cluster.json").read_text())
            assert cluster["max_restarts"] == 0
            victim = cluster["agents"][0]
            os.kill(victim["pid"], signal.SIGKILL)

            events = []
            for _ in range(10):
                line = proc.stdout.readline()
                if not line:
                    break
                events.append(json.loads(line))
                if events[-1]["event"] == "gave-up":
                    break
            kinds = [e["event"] for e in events]
            assert "exited" in kinds and "gave-up" in kinds
            gave_up = events[-1]
            assert gave_up["name"] == victim["site"]
            assert gave_up["restarts"] == 0

            # cluster.json is rewritten with the terminal state (just
            # after the event line — poll past that tiny window): a
            # client polling it can see the cluster is degraded
            deadline = time.monotonic() + 10.0
            while True:
                cluster = json.loads((tmp_path / "cluster.json").read_text())
                if cluster["agents"][0]["gave_up"]:
                    break
                assert time.monotonic() < deadline, cluster
                time.sleep(0.05)
            assert cluster["coordinator"]["gave_up"] is False
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=15)

    def test_child_dead_at_boot_fails_fast_with_its_stderr(self, tmp_path):
        """Plant a regular file where the coordinator's WAL directory
        must go: the launch must fail promptly (not hang on readiness)
        and the error must carry the child's own stderr."""
        (tmp_path / "coord-c1").write_text("not a directory")
        proc = subprocess.run(
            _repro(
                "serve",
                "cluster",
                "--bank-sites",
                "branch1",
                "--json",
                "--data-root",
                str(tmp_path),
            ),
            env=_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "exited before its ready line" in proc.stderr
        # the child's own traceback was surfaced, not swallowed
        assert "FileExistsError" in proc.stderr
        assert "coord-c1" in proc.stderr


    def test_cluster_json_is_never_seen_half_written(self, tmp_path):
        """Clients poll cluster.json while the supervisor rewrites it
        on every respawn and give-up: a reader must always parse a
        whole file, never a truncated one."""
        supervisor = ClusterSupervisor(str(tmp_path))
        path = tmp_path / "cluster.json"
        supervisor._write_cluster_json()
        done = threading.Event()
        reads, errors = [], []

        def reader():
            while not done.is_set():
                try:
                    reads.append(json.loads(path.read_text())["max_restarts"])
                except ValueError as exc:
                    errors.append(repr(exc))

        thread = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave reader and writer finely
        thread.start()
        try:
            for restarts in range(1000):
                supervisor.max_restarts = restarts
                supervisor._write_cluster_json()
        finally:
            done.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not errors, errors[:3]
        assert len(reads) > 1
        assert json.loads(path.read_text())["max_restarts"] == 999


def _json_report(proc):
    """The drill's ``--json-report`` record: its last stdout line."""
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_storm(tmp_path, *extra):
    return subprocess.run(
        _repro(
            "storm",
            "--launch",
            "--data-root",
            str(tmp_path / "cluster"),
            "--json-report",
            *extra,
        ),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )


class TestStormEndToEnd:
    def test_healthy_run_commits_everything(self, tmp_path):
        proc = _run_storm(tmp_path, "--txns", "8", "--settle", "0.5")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        run = _json_report(proc)
        assert run["failures"] == []
        assert run["label"] == "healthy"
        assert run["txns"] == 8
        assert run["committed"] + run["aborted"] == 8
        assert run["missing"] == 0
        assert run["invariants"]["atomic_commitment_violations"] == 0
        assert run["invariants"]["bank_checked"] is True
        assert run["throughput_committed_per_s"] > 0
        assert run["latency_p99_s"] >= run["latency_p50_s"] > 0

    def test_kill_at_prepared_recovers_atomically(self, tmp_path):
        """The acceptance scenario: SIGKILL mid-prepare, WAL recovery,
        zero invariant violations over the merged journals."""
        proc = _run_storm(
            tmp_path,
            "--txns",
            "14",
            "--kill-agent",
            "1",
            "--at",
            "prepared",
            "--settle",
            "1.0",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        run = _json_report(proc)
        assert run["failures"] == []
        assert run["label"] == "kill_recover"
        assert run["invariants"]["atomic_commitment_violations"] == 0
        assert run["missing"] == 0
        assert run["kill"]["site"]  # a real site was killed
        assert run["kill"]["cluster_restarts"] >= 1
        # the journals survived the SIGKILL and carried the proof
        journals = list((tmp_path / "cluster").glob("journal-*.log"))
        assert len(journals) == 4  # 3 agents + 1 coordinator


class TestChaosRtEndToEnd:
    """Tentpole acceptance, one seed's worth: nemesis faults + a real
    coordinator SIGKILL + an injected disk fault, healed, verified."""

    def test_seed_zero_survives_the_full_battery(self, tmp_path):
        proc = subprocess.run(
            _repro(
                "chaos-rt",
                "--seed",
                "0",
                "--txns",
                "36",
                "--data-root",
                str(tmp_path / "chaos"),
                "--json-report",
            ),
            env=_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        record = _json_report(proc)
        assert record["failures"] == []
        run = record["entry"]
        assert run["ok"] is True
        assert run["violations"] == 0
        # seed 0 arms the nastiest kill mode: coordinator at sn_drawn
        assert run["kill"] == {"role": "coordinator", "at": "sn_drawn"}
        assert run["fault_site"]  # some process got the failing disk
        assert run["nemesis"]["faults_applied"] >= 1
        # per-fault-class recovery attribution made it into the series
        assert run["recovery_s"]["kill"] is not None
        assert run["committed_journal"] >= 1
        assert run["goodput_committed_per_s"] > 0
