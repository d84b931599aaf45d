"""Farm tests: worker protocol, dispatch/retry, backends, determinism.

The determinism battery is the load-bearing part: a campaign executed
serially in-process, through ``--jobs N``'s forked workers and through a
subprocess farm must persist stores that are per-entry byte-identical --
modulo ``created_unix``/``elapsed``.
"""

import io
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignExecutor, ResultStore, RunSpec, execute_run
from repro.campaign.cli import main as campaign_main
from repro.campaign.executor import STATUS_FAILED, STATUS_OK, RunOutcome
from repro.farm.farm import fork_slots
from repro.farm import (
    PROTOCOL_VERSION,
    RunFarm,
    WorkerLossError,
    make_farm,
    parse_response,
    ping_request,
    run_request,
    subprocess_slots,
    worker_main,
)
from repro.scenario import ScenarioSpec

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
SRC_DIR = Path(__file__).parent.parent / "src"


def _scenario_run(seed: int) -> RunSpec:
    spec = ScenarioSpec.from_file(EXAMPLES_DIR / "scenario_dumbbell_burst.json")
    spec.duration = 0.002
    return RunSpec(experiment="scenario", scale="-", seed=seed,
                   params={"scenario": spec.to_dict()})


def _entries_modulo_timing(store_root: Path):
    """hash -> canonical entry JSON with the wall-clock fields removed."""
    out = {}
    for path in sorted((Path(store_root) / "runs").glob("*.json")):
        document = json.loads(path.read_text())
        document.pop("created_unix")
        document.pop("elapsed")
        out[path.stem] = json.dumps(document, sort_keys=True)
    return out


def _child_pids():
    """Live (or zombie) direct children of this process, from /proc."""
    me, pids = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # "pid (comm) state ppid ..." -- comm may itself contain ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.add(int(entry))
    return pids


def _wrapper_farm(tmp_path: Path, source: str, **kwargs) -> RunFarm:
    """A subprocess farm whose worker command runs ``source`` instead."""
    wrapper = tmp_path / "wrapper.py"
    wrapper.write_text(source)
    kwargs.setdefault("backoff_s", 0.01)
    return RunFarm(subprocess_slots(1, python=[sys.executable, str(wrapper)]),
                   **kwargs)


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------
class TestWorkerProtocol:
    def _invoke(self, request_text: str):
        stdout, stderr = io.StringIO(), io.StringIO()
        rc = worker_main(stdin=io.StringIO(request_text), stdout=stdout,
                         stderr=stderr)
        return rc, stdout.getvalue(), stderr.getvalue()

    def test_run_request_round_trips(self):
        rc, out, _ = self._invoke(
            json.dumps(run_request(RunSpec("table1").to_dict())))
        assert rc == 0
        response = parse_response(out)
        assert response["outcome"]["status"] == "ok"
        assert response["outcome"]["result"]["rows"]

    def test_response_keeps_row_key_order(self):
        # Tables print columns in row-key order: the wire must not sort them.
        rc, out, _ = self._invoke(
            json.dumps(run_request(RunSpec("table1").to_dict())))
        (row, *_) = parse_response(out)["outcome"]["result"]["rows"]
        assert list(row) == list(
            execute_run(RunSpec("table1")).result.rows[0])

    def test_run_failure_still_exits_zero(self):
        # A failing *run* is a normal outcome, not a worker loss.
        rc, out, _ = self._invoke(
            json.dumps(run_request(RunSpec("fig99").to_dict())))
        assert rc == 0
        outcome = parse_response(out)["outcome"]
        assert outcome["status"] == "failed"
        assert "fig99" in outcome["error"]

    def test_ping(self):
        rc, out, _ = self._invoke(json.dumps(ping_request()))
        assert rc == 0
        assert parse_response(out)["pong"] is True

    @pytest.mark.parametrize("request_text", [
        "not json at all",
        json.dumps(["a", "list"]),
        json.dumps({"spec": {}}),  # no protocol version
        json.dumps({"protocol": 99, "ping": True}),  # wrong version
        json.dumps({"protocol": PROTOCOL_VERSION}),  # neither spec nor ping
    ])
    def test_malformed_request_exits_2(self, request_text):
        rc, out, err = self._invoke(request_text)
        assert rc == 2
        assert not out
        assert "malformed request" in err

    def test_bad_spec_exits_2(self):
        rc, _, err = self._invoke(json.dumps(
            {"protocol": PROTOCOL_VERSION, "spec": {"no_experiment": True}}))
        assert rc == 2
        assert "bad run spec" in err

    def test_parse_response_rejects_garbage(self):
        with pytest.raises(WorkerLossError, match="no output"):
            parse_response("")
        with pytest.raises(WorkerLossError, match="unparseable"):
            parse_response("segfault imminent\n")
        with pytest.raises(WorkerLossError, match="not an object"):
            parse_response("[1, 2]\n")
        with pytest.raises(WorkerLossError, match="protocol version"):
            parse_response(json.dumps({"protocol": 99, "pong": True}))

    def test_parse_response_takes_last_line(self):
        # A stray diagnostic line from a deep dependency must not kill the
        # run; only the final line is the response.
        noise = "loading calibration tables...\n"
        payload = json.dumps({"protocol": PROTOCOL_VERSION, "pong": True})
        assert parse_response(noise + payload + "\n")["pong"] is True

    def test_serves_request_lines_until_eof(self):
        run = json.dumps(run_request(RunSpec("table1").to_dict()))
        ping = json.dumps(ping_request())
        rc, out, err = self._invoke(f"{run}\n\n{ping}\n   \n{run}\n")
        assert rc == 0, err
        first, second, third = (parse_response(line)
                                for line in out.splitlines())
        assert first["outcome"]["status"] == "ok"
        assert second == {"protocol": PROTOCOL_VERSION, "pong": True}
        # Back-to-back runs in one interpreter are byte-identical.
        first["outcome"].pop("elapsed")
        third["outcome"].pop("elapsed")
        assert third == first

    def test_malformed_line_ends_the_loop_after_earlier_answers(self):
        ping = json.dumps(ping_request())
        rc, out, err = self._invoke(f"{ping}\nnot json\n{ping}\n")
        assert rc == 2
        assert out.count("\n") == 1 and parse_response(out)["pong"] is True
        assert "malformed request" in err

    def test_run_that_prints_to_stdout_still_round_trips(self, monkeypatch):
        import repro.campaign.executor as executor_module

        real = executor_module.execute_run

        def noisy(spec):
            print("loading calibration tables...")
            print(json.dumps({"protocol": PROTOCOL_VERSION, "pong": True}))
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_run", noisy)
        rc, out, err = self._invoke(
            json.dumps(run_request(RunSpec("table1").to_dict())))
        assert rc == 0
        assert out.count("\n") == 1
        assert parse_response(out)["outcome"]["status"] == "ok"
        assert "loading calibration tables" in err

    def test_worker_subprocess_end_to_end(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "repro.farm", "worker"],
            input=json.dumps(run_request(RunSpec("table1").to_dict())),
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 0, proc.stderr
        assert parse_response(proc.stdout)["outcome"]["status"] == "ok"


# ----------------------------------------------------------------------
# Farm construction
# ----------------------------------------------------------------------
class TestMakeFarm:
    def test_subprocess_with_count(self):
        assert len(make_farm("subprocess:3").slots) == 3

    def test_subprocess_defaults_to_jobs(self):
        assert len(make_farm("subprocess", jobs=4).slots) == 4

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown farm spec"):
            make_farm("carrier-pigeon")

    def test_no_fork_means_no_farm(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match="POSIX only: os.fork is missing"):
            CampaignExecutor(jobs=2)
        with pytest.raises(ValueError, match="POSIX only: os.fork is missing"):
            make_farm("subprocess:2")
        assert CampaignExecutor(jobs=1).forks is None  # the serial path stays

    @pytest.mark.parametrize("spec", ["local", "ssh-hosts:h.json", "ssh:h.json"])
    def test_removed_backends_are_unknown_specs(self, spec):
        # A stale command line fails before any dispatch, naming the one form.
        with pytest.raises(ValueError,
                           match=r"unknown farm spec .*'subprocess\[:N\]'"):
            make_farm(spec)


# ----------------------------------------------------------------------
# Dispatch: streaming persistence, retry on worker loss, fail_fast
# ----------------------------------------------------------------------
class TestDispatch:
    def test_subprocess_farm_streams_into_store_mid_campaign(self, tmp_path):
        """Every outcome must be readable from the store -- by the analysis
        loader, not just the executor -- while the campaign is running."""
        from repro.analysis import load_documents

        store = ResultStore(tmp_path)
        specs = [RunSpec("table1", seed=seed) for seed in (0, 1, 2)]
        mid_campaign_counts = []

        def progress(completed, total, outcome):
            # The just-finished run is already on disk (streaming), so a
            # concurrent `report`/`analysis` invocation sees it.
            assert store.load(outcome.spec.config_hash()) is not None
            mid_campaign_counts.append(
                len(load_documents([tmp_path])))

        executor = CampaignExecutor(store=store,
                                    farm=RunFarm(subprocess_slots(2)))
        outcomes = executor.run(specs, progress=progress)
        assert all(outcome.ok for outcome in outcomes)
        # The mid-campaign reads saw a growing store, not just the final one.
        assert mid_campaign_counts[0] < mid_campaign_counts[-1]
        assert mid_campaign_counts[-1] == len(specs)

    def test_worker_loss_retried_on_another_attempt(self, tmp_path):
        """A worker SIGKILLed mid-run is a loss: the run is retried and
        succeeds, with the loss recorded in the slot health counters."""
        flag = tmp_path / "killed-once"
        wrapper = tmp_path / "kill_once.py"
        wrapper.write_text(
            "import os, signal, sys\n"
            f"flag = {str(flag)!r}\n"
            "if not os.path.exists(flag):\n"
            "    open(flag, 'w').close()\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "os.execv(sys.executable, [sys.executable] + sys.argv[1:])\n")
        farm = RunFarm(subprocess_slots(
            2, python=[sys.executable, str(wrapper)]), backoff_s=0.01)
        store = ResultStore(tmp_path / "store")
        outcomes = CampaignExecutor(store=store, farm=farm).run(
            [RunSpec("table1")])
        assert [outcome.status for outcome in outcomes] == ["ok"]
        assert sum(slot.losses for slot in farm.slots) == 1
        assert sum(slot.retries for slot in farm.slots) == 1
        entry = store.load(RunSpec("table1").config_hash())
        assert entry is not None and entry.ok

    def test_worker_loss_exhausts_attempts(self, tmp_path):
        wrapper = tmp_path / "always_dies.py"
        wrapper.write_text("import sys; sys.exit(3)\n")
        farm = RunFarm(subprocess_slots(
            1, python=[sys.executable, str(wrapper)]),
            max_attempts=2, backoff_s=0.0)
        outcomes = CampaignExecutor(farm=farm).run([RunSpec("table1")])
        assert [outcome.status for outcome in outcomes] == ["failed"]
        assert "worker lost after 2 attempts" in outcomes[0].error
        assert "exited 3" in outcomes[0].error
        assert outcomes[0].elapsed > 0.0
        assert farm.slots[0].losses == 2

    def test_fail_fast_persists_everything_returned(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [RunSpec("table1", seed=0), RunSpec("fig99"),
                 RunSpec("table1", seed=1)]
        outcomes = CampaignExecutor(store=store,
                                    farm=RunFarm(subprocess_slots(2))).run(
            specs, fail_fast=True)
        assert any(not outcome.ok for outcome in outcomes)
        # The invariant the executor guarantees: every returned outcome is
        # persisted -- in-flight runs are drained, never silently dropped.
        for outcome in outcomes:
            assert store.load(outcome.spec.config_hash()) is not None

    def test_halt_during_a_retry_handoff_yields_one_outcome_per_run(
            self, tmp_path, monkeypatch):
        """Run 1 loses its worker and waits out its backoff; run 0 then
        fails, and the fail-fast halt must cancel the waiting retry.  The
        dispatch must end, reporting run 1's loss, not wait out the backoff
        for the retry (or run it after the halt)."""
        import repro.campaign.executor as executor_module

        lost = tmp_path / "run-1-lost"

        def scripted(spec):  # reaches the forked workers
            if spec.seed == 1:
                return RunOutcome(spec=spec, status=STATUS_OK)
            deadline = time.monotonic() + 5.0
            while not lost.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return RunOutcome(spec=spec, status=STATUS_FAILED,
                              error="run failed")

        monkeypatch.setattr(executor_module, "execute_run", scripted)
        attempts = []

        class ScriptedFarm(RunFarm):
            def _outcome(self, response):
                outcome = super()._outcome(response)
                attempts.append(outcome.spec.seed)
                if outcome.spec.seed == 1 and attempts.count(1) == 1:
                    lost.touch()
                    raise WorkerLossError("worker died")
                return outcome

        # The backoff is capped at 10 s: a retry left waiting shows as time.
        farm = ScriptedFarm(fork_slots(2), backoff_s=60.0)
        specs = [RunSpec("table1", seed=0), RunSpec("table1", seed=1)]
        started = time.perf_counter()
        yielded = list(farm.dispatch(enumerate(specs), fail_fast=True))
        assert time.perf_counter() - started < 8.0, "dispatch waited out a retry"
        assert sorted(attempts) == [0, 1]  # the retry never ran
        errors = {index: outcome.error for index, outcome in yielded}
        assert sorted(index for index, _ in yielded) == [0, 1]
        assert errors[0] == "run failed"
        assert "halted before retry: worker died" in errors[1]

    def test_health_rows_shape(self):
        farm = RunFarm(subprocess_slots(1))
        CampaignExecutor(farm=farm).run([RunSpec("table1")])
        (row,) = farm.health_rows()
        assert row["worker"] == "proc/0"
        assert row["ok"] == 1
        assert row["failed"] == 0
        assert row["state"] == "idle"
        assert row["lost"] == 0
        assert row["elapsed"] >= 0  # rounded to ms; sub-ms runs read 0.0

    def test_check_subprocess(self):
        rows = RunFarm(subprocess_slots(1)).check()
        assert [(name, ok) for name, ok, _ in rows] == [("proc/0", True)]

    def test_check_reports_unreachable(self, tmp_path):
        wrapper = tmp_path / "dead.py"
        wrapper.write_text("import sys; sys.exit(7)\n")
        rows = RunFarm(subprocess_slots(
            1, python=[sys.executable, str(wrapper)])).check()
        (name, ok, detail) = rows[0]
        assert not ok
        assert "exited 7" in detail


# ----------------------------------------------------------------------
# Persistent workers: one process per slot per dispatch, never a leak or hang
# ----------------------------------------------------------------------
#: Answers pings, then dies (once, by flag file) on the third run request.
_DIES_ON_THIRD_RUN = """
import json, os, signal, sys
from repro.farm.protocol import worker_main

def lines():
    runs = 0
    for line in sys.stdin:
        runs += "spec" in json.loads(line)
        if runs == 3 and not os.path.exists({flag!r}):
            open({flag!r}, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        yield line

sys.exit(worker_main(stdin=lines()))
"""

#: Answers pings, never answers a run.
_MUTE_ON_RUNS = """
import json, sys, time
for line in sys.stdin:
    request = json.loads(line)
    if request.get("ping"):
        print(json.dumps({"protocol": request["protocol"], "pong": True}),
              flush=True)
    else:
        time.sleep(600)
"""

#: The version-1 worker shape: read stdin to EOF, then answer.
_V1_WORKER = """
import json, sys
request = json.loads(sys.stdin.read())
print(json.dumps({"protocol": 1, "pong": True}))
"""

#: More than a pipe buffer on stderr before becoming a real worker.
_CHATTY = """
import os, sys
sys.stderr.write("y" * (1 << 20) + "\\n")
sys.stderr.flush()
os.execv(sys.executable, [sys.executable] + sys.argv[1:])
"""


class TestPersistentWorkers:
    def _specs(self, count=5):
        return [RunSpec("table1", seed=seed) for seed in range(count)]

    def test_one_spawn_per_slot_and_no_child_left(self, tmp_path):
        before = _child_pids()
        farm = RunFarm(subprocess_slots(1))
        outcomes = CampaignExecutor(farm=farm).run(self._specs())
        assert [outcome.status for outcome in outcomes] == ["ok"] * 5
        (slot,) = farm.slots
        assert slot.spawned == 1 and slot.worker is None
        assert farm.health_rows()[0]["spawned"] == 1
        assert _child_pids() == before
        # check() spawns (and closes) its own worker through the same path.
        assert [ok for _, ok, _ in farm.check()] == [True]
        assert slot.spawned == 2 and slot.worker is None
        assert _child_pids() == before
        # jobs=2 forks its workers from the same loop: one fork per slot.
        executor = CampaignExecutor(jobs=2)
        outcomes = executor.run(self._specs())
        assert [outcome.status for outcome in outcomes] == ["ok"] * 5
        assert [(slot.spawned, slot.worker) for slot in executor.forks.slots
                ] == [(1, None), (1, None)]
        assert _child_pids() == before

    def test_interrupt_mid_dispatch_leaves_no_child(self):
        before = _child_pids()
        farm = RunFarm(subprocess_slots(3))

        def interrupt(completed, total, outcome):
            raise KeyboardInterrupt

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            CampaignExecutor(farm=farm).run(self._specs(9), progress=interrupt)
        assert time.perf_counter() - started < 20.0
        assert all(slot.worker is None for slot in farm.slots)
        assert _child_pids() == before
        executor = CampaignExecutor(jobs=2)
        with pytest.raises(KeyboardInterrupt):
            executor.run(self._specs(9), progress=interrupt)
        assert all(slot.worker is None for slot in executor.forks.slots)
        assert _child_pids() == before

    def test_no_worker_outlives_a_halt_or_a_close(self):
        before = _child_pids()
        for slots in (subprocess_slots(2), fork_slots(2)):
            farm = RunFarm(slots)
            halted = list(farm.dispatch(
                enumerate([RunSpec("fig99"), *self._specs(4)]), fail_fast=True))
            assert any(not outcome.ok for _, outcome in halted)
            assert _child_pids() == before
            dispatch = farm.dispatch(enumerate(self._specs(4)))
            next(dispatch)
            dispatch.close()
            assert all(slot.worker is None for slot in farm.slots)
            assert _child_pids() == before

    def test_dispatch_starts_no_thread(self):
        baseline = threading.active_count()
        counts = []

        def progress(completed, total, outcome):
            counts.append(threading.active_count())

        CampaignExecutor(farm=make_farm("subprocess:2")).run(
            self._specs(4), progress=progress)
        CampaignExecutor(jobs=2).run(self._specs(4), progress=progress)
        assert counts == [baseline] * 8

    def test_forked_worker_killed_mid_run_is_retried(self, tmp_path,
                                                     monkeypatch):
        """A jobs=2 worker SIGKILLed mid-run costs nothing: the run is
        retried on a fresh fork and the store equals the serial one."""
        import repro.campaign.executor as executor_module

        serial_store, fork_store = tmp_path / "serial", tmp_path / "fork"
        CampaignExecutor(store=ResultStore(serial_store),
                         jobs=1).run(self._specs())
        flag, real = tmp_path / "killed-once", executor_module.execute_run

        def kill_once(spec):  # reaches the forked workers
            if not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_run", kill_once)
        executor = CampaignExecutor(store=ResultStore(fork_store), jobs=2)
        outcomes = executor.run(self._specs())
        assert [outcome.status for outcome in outcomes] == ["ok"] * 5
        assert sum(slot.losses for slot in executor.forks.slots) == 1
        assert _entries_modulo_timing(fork_store) == _entries_modulo_timing(
            serial_store)

    def test_worker_killed_on_third_run_is_one_loss_one_respawn(self, tmp_path):
        farm = _wrapper_farm(tmp_path, _DIES_ON_THIRD_RUN.format(
            flag=str(tmp_path / "killed-once")))
        farm_store, serial_store = tmp_path / "farm", tmp_path / "serial"
        outcomes = CampaignExecutor(
            store=ResultStore(farm_store), farm=farm).run(self._specs())
        CampaignExecutor(store=ResultStore(serial_store),
                         jobs=1).run(self._specs())
        assert [outcome.status for outcome in outcomes] == ["ok"] * 5
        (slot,) = farm.slots
        assert (slot.losses, slot.retries, slot.spawned) == (1, 1, 2)
        assert _entries_modulo_timing(farm_store) == _entries_modulo_timing(
            serial_store)
        assert len(_entries_modulo_timing(farm_store)) == 5

    def test_results_do_not_depend_on_dispatch_order(self, tmp_path):
        specs = [_scenario_run(0), _scenario_run(1), RunSpec("table1")]
        stores = []
        for name, order in (("abc", specs), ("cab", specs[2:] + specs[:2])):
            CampaignExecutor(store=ResultStore(tmp_path / name),
                             farm=make_farm("subprocess:1")).run(order)
            stores.append(_entries_modulo_timing(tmp_path / name))
        assert stores[0] == stores[1] and len(stores[0]) == 3

    def test_stderr_flood_does_not_block_the_worker(self, tmp_path):
        farm = _wrapper_farm(tmp_path, _CHATTY, timeout_s=60.0, max_attempts=1)
        outcomes = CampaignExecutor(farm=farm).run([RunSpec("table1")])
        assert [outcome.status for outcome in outcomes] == ["ok"]

    def test_mute_worker_is_a_loss_within_timeout(self, tmp_path):
        before = _child_pids()
        farm = _wrapper_farm(tmp_path, _MUTE_ON_RUNS, timeout_s=0.3,
                             max_attempts=2)
        started = time.perf_counter()
        outcomes = CampaignExecutor(farm=farm).run([RunSpec("table1")])
        assert time.perf_counter() - started < 10.0
        assert [outcome.status for outcome in outcomes] == ["failed"]
        assert "timed out after 0.3s" in outcomes[0].error
        assert "\n" not in outcomes[0].error
        assert farm.slots[0].losses == 2 and farm.slots[0].spawned == 2
        assert _child_pids() == before

    def test_v1_worker_fails_the_handshake(self, tmp_path, monkeypatch):
        import repro.farm.farm as farm_module

        monkeypatch.setattr(farm_module, "HANDSHAKE_TIMEOUT_S", 0.5)
        before = _child_pids()
        ((name, ok, detail),) = _wrapper_farm(tmp_path, _V1_WORKER).check()
        assert not ok
        assert "no pong -- older checkout on the host?" in detail
        assert _child_pids() == before

    def test_garbage_response_line_is_a_loss(self, tmp_path):
        farm = _wrapper_farm(
            tmp_path, "import sys\nfor _ in sys.stdin: print('{{{', flush=True)\n")
        ((name, ok, detail),) = farm.check()
        assert not ok and "unparseable worker response" in detail
        assert farm.slots[0].worker is None


# ----------------------------------------------------------------------
# Torn store entries: a cache miss on --resume, never a traceback
# ----------------------------------------------------------------------
class TestTornStoreEntry:
    def test_resume_reruns_exactly_the_torn_entry(self, tmp_path, capsys):
        from repro.analysis import load_documents

        store = ResultStore(tmp_path)
        specs = [RunSpec("table1", seed=seed) for seed in (0, 1, 2)]
        CampaignExecutor(store=store).run(specs)
        torn = store.path_for(specs[1].config_hash())
        torn.write_text(torn.read_text()[:torn.stat().st_size // 2])

        outcomes = CampaignExecutor(store=store).run(specs, resume=True)
        assert [o.status for o in outcomes] == ["cached", "ok", "cached"]
        assert store.quarantined == [torn.name + ".corrupt"]
        assert (torn.parent / (torn.name + ".corrupt")).exists()
        assert ResultStore(tmp_path).status_counts() == {"ok": 3}

        # status and the analysis loader name the file instead of dying.
        torn.write_text("{\"spec\": ")
        assert campaign_main(["status", "--store", str(tmp_path)]) == 0
        assert f"corrupt entry moved aside: {torn.name}.corrupt" in (
            capsys.readouterr().out)
        torn.write_text("[]")
        with pytest.warns(UserWarning, match="corrupt store entry moved aside"):
            assert len(load_documents([tmp_path])) == 2


# ----------------------------------------------------------------------
# Determinism battery: serial == pool == subprocess farm
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDeterminismBattery:
    def _specs(self):
        return [_scenario_run(0), _scenario_run(1), RunSpec("table1")]

    def _serial_entries(self, store_root: Path):
        outcomes = CampaignExecutor(store=ResultStore(store_root),
                                    jobs=1).run(self._specs())
        assert all(o.ok for o in outcomes)
        return _entries_modulo_timing(store_root)

    def test_serial_store_matches_jobs_pool_store(self, tmp_path):
        """The acceptance criterion: the serial path and ``--jobs 2``
        persist per-entry byte-identical stores (modulo wall-clock)."""
        pool_store = tmp_path / "pool"
        pool_outcomes = CampaignExecutor(
            store=ResultStore(pool_store), jobs=2).run(self._specs())
        assert all(o.ok for o in pool_outcomes)
        serial_entries = self._serial_entries(tmp_path / "serial")
        assert serial_entries == _entries_modulo_timing(pool_store)
        assert len(serial_entries) == len(self._specs())

    def test_subprocess_farm_matches_serial_store(self, tmp_path):
        farm_store = tmp_path / "farm"
        CampaignExecutor(store=ResultStore(farm_store),
                         farm=RunFarm(subprocess_slots(2))).run(self._specs())
        assert self._serial_entries(tmp_path / "serial") == (
            _entries_modulo_timing(farm_store))


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestFarmCli:
    def _sweep(self, tmp_path: Path) -> Path:
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "name": "farm-cli",
            "grids": [{"experiments": ["table1"], "scales": ["small"],
                       "seeds": [0, 1]}],
        }))
        return spec

    def test_run_with_subprocess_farm(self, tmp_path, capsys):
        rc = campaign_main([
            "run", str(self._sweep(tmp_path)),
            "--farm", "subprocess:2", "--store", str(tmp_path / "store")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "subprocess (2 workers)" in out
        assert "worker proc/0" in out
        assert ResultStore(tmp_path / "store").status_counts() == {"ok": 2}

    def test_summary_counts_spawns(self, tmp_path, capsys):
        rc = campaign_main([
            "run", str(self._sweep(tmp_path)),
            "--farm", "subprocess:1", "--store", str(tmp_path / "store")])
        assert rc == 0
        (summary,) = [line for line in capsys.readouterr().out.splitlines()
                      if "worker proc/0" in line]
        assert "ok 2 failed 0 lost 0 retried 0" in summary
        assert summary.endswith("spawned 1")

    def test_live_board_shows_worker_rows(self, tmp_path, capsys):
        rc = campaign_main([
            "run", str(self._sweep(tmp_path)), "--live",
            "--farm", "subprocess:1", "--store", str(tmp_path / "store")])
        assert rc == 0
        assert "[proc/0] ok 2 " in capsys.readouterr().err

    def test_run_with_bad_farm_spec(self, tmp_path, capsys):
        rc = campaign_main([
            "run", str(self._sweep(tmp_path)),
            "--farm", "smoke-signals", "--store", str(tmp_path / "store")])
        assert rc == 2
        assert "unknown farm spec" in capsys.readouterr().err

    def test_farm_check_cli(self, capsys):
        from repro.farm.__main__ import main as farm_main

        assert farm_main(["check", "subprocess:1"]) == 0
        assert "all 1 slots reachable" in capsys.readouterr().out
