"""The checkpointed unit runner and the kill-switch seam.

``open_units``/``run_units`` are the one restore → batch → persist loop
behind the fig06 campaign and the resilience sweep; these tests drive
them with trivial picklable jobs, so every path (fresh, resumed,
batched, pooled) runs at unit-test cost.
"""

import pytest

from repro.checkpoint import CheckpointError, CheckpointPolicy
from repro.parallel import (Job, JobFailure, kill_switch_hook,
                            open_units, run_units)
from repro.parallel.units import KILL_SWITCH_ENV

DIGEST = "d" * 64


def _double(x):
    return {"value": 2 * x}


def _fail(x):
    raise ValueError(f"unit {x} failed")


def _jobs(count=5):
    return [Job(key=("unit", index), fn=_double, args=(index,))
            for index in range(count)]


def _decode(key, payload):
    return {"value": payload["value"]}


def _open(tmp_path, resume=False, keys=None):
    return open_units(CheckpointPolicy(path=str(tmp_path / "ckpt"),
                                       resume=resume),
                      DIGEST, keys or [job.key for job in _jobs()],
                      _decode, seed=1, days=0, total_units=5)


class TestOpenUnits:
    def test_no_policy_means_no_store(self):
        assert open_units(None, DIGEST, [], _decode) == (None, {})

    def test_fresh_store_writes_manifest(self, tmp_path):
        store, restored = _open(tmp_path)
        assert restored == {}
        assert store.load_manifest(DIGEST)["total_units"] == 5

    def test_resume_decodes_persisted_units(self, tmp_path):
        store, _ = _open(tmp_path)
        store.write_unit(("unit", 3), DIGEST, {"value": 6})
        _, restored = _open(tmp_path, resume=True)
        assert restored == {("unit", 3): {"value": 6}}

    def test_resume_rejects_units_outside_the_run(self, tmp_path):
        store, _ = _open(tmp_path)
        store.write_unit(("unit", 99), DIGEST, {"value": 0})
        with pytest.raises(CheckpointError, match="outside the run"):
            _open(tmp_path, resume=True)


class TestRunUnits:
    def test_values_in_job_order(self):
        merged = run_units(_jobs(), {})
        assert list(merged) == [("unit", i) for i in range(5)]
        assert [v["value"] for v in merged.values()] == [0, 2, 4, 6, 8]

    @pytest.mark.parametrize("every,workers", [(1, 1), (2, 1), (3, 2)])
    def test_on_unit_in_job_order_with_restored_marked(self, every,
                                                       workers):
        restored = {("unit", 0): {"value": 0}, ("unit", 3): {"value": 6}}
        seen = []
        merged = run_units(
            _jobs(), restored, workers=workers, every=every,
            on_unit=lambda key, value, replayed: seen.append(
                (key[1], value["value"], replayed)))
        assert seen == [(0, 0, True), (1, 2, False), (2, 4, False),
                        (3, 6, True), (4, 8, False)]
        assert list(merged) == [("unit", i) for i in range(5)]

    def test_units_reported_once_per_batch(self):
        # Every batch reports what it finished before the next starts.
        events = []

        class Store:
            def write_unit(self, key, digest, payload):
                events.append(("write", key[1]))

        run_units(_jobs(), {}, store=Store(), every=2, digest=DIGEST,
                  on_unit=lambda key, value, replayed: events.append(
                      ("unit", key[1])))
        assert events == [("write", 0), ("write", 1), ("unit", 0),
                          ("unit", 1), ("write", 2), ("write", 3),
                          ("unit", 2), ("unit", 3), ("write", 4),
                          ("unit", 4)]

    def test_every_finished_unit_is_persisted(self, tmp_path):
        store, _ = _open(tmp_path)
        run_units(_jobs(), {}, store=store, every=2, digest=DIGEST,
                  encode=dict)
        assert store.load_units(DIGEST) == {
            ("unit", i): {"config_digest": DIGEST, "popularity": "unit",
                          "day": i, "value": 2 * i} for i in range(5)}

    def test_resumed_run_only_runs_pending_units(self, tmp_path):
        store, _ = _open(tmp_path)
        store.write_unit(("unit", 1), DIGEST, {"value": -1})
        store, restored = _open(tmp_path, resume=True)
        merged = run_units(_jobs(), restored, store=store,
                           digest=DIGEST, encode=dict)
        # The restored value wins: the unit was not re-simulated.
        assert merged[("unit", 1)] == {"value": -1}
        assert sorted(store.load_units(DIGEST)) == [
            ("unit", i) for i in range(5)]

    def test_unit_error_arrives_as_job_failure(self):
        jobs = [Job(key=("unit", 0), fn=_fail, args=(0,))]
        with pytest.raises(JobFailure) as caught:
            run_units(jobs, {})
        assert isinstance(caught.value.__cause__, ValueError)


class TestKillSwitchHook:
    def test_unset_means_no_hook(self, monkeypatch):
        monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
        assert kill_switch_hook(("cell", 1)) is None

    def test_other_key_means_no_hook(self, monkeypatch):
        monkeypatch.setenv(KILL_SWITCH_ENV, "cell:1:2000")
        assert kill_switch_hook(("cell", 2)) is None
        assert kill_switch_hook(("popular", 1)) is None

    def test_matching_key_gets_a_hook(self, monkeypatch):
        monkeypatch.setenv(KILL_SWITCH_ENV, "unpopular:0:2000")
        assert callable(kill_switch_hook(("unpopular", 0)))

    @pytest.mark.parametrize("spec", ["cell:1", "cell:one:2000",
                                      "cell:1:many", "a:b:c:d"])
    def test_malformed_spec_raises(self, monkeypatch, spec):
        monkeypatch.setenv(KILL_SWITCH_ENV, spec)
        with pytest.raises(ValueError, match=KILL_SWITCH_ENV):
            kill_switch_hook(("cell", 1))
