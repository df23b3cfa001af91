"""Tests for ``repro bench``, the golden-digest gate, and its pins."""

import json
from pathlib import Path

import pytest

from repro.experiments.bench import (CAMPAIGN_FILE, ENGINE_FILE,
                                     SCHEMA_VERSION, _check_drift,
                                     campaign_config, engine_config,
                                     run_bench)

ROOT = Path(__file__).resolve().parent.parent

ENGINE_FIELDS = {"profile", "seed", "population", "sim_seconds", "events",
                 "golden_digest"}
CAMPAIGN_FIELDS = {"profile", "seed", "days", "events", "golden_digest",
                   "series_digest"}


class TestConfigs:
    def test_quick_campaign_is_the_golden_config(self):
        from tests.test_campaign_goldens import GOLDEN_CONFIG
        assert campaign_config("quick") == GOLDEN_CONFIG()

    def test_quick_engine_is_smaller_than_default(self):
        quick = engine_config("quick")
        default = engine_config("default")
        assert quick.population < default.population
        assert quick.warmup + quick.duration \
            < default.warmup + default.duration
        assert quick.seed == default.seed == 7

    def test_unknown_profiles_rejected(self):
        with pytest.raises(ValueError):
            engine_config("huge")
        with pytest.raises(ValueError):
            campaign_config("huge")


class TestDriftCheck:
    RECORDS = {"quick": {"golden_digest": "abc123" + "0" * 58}}

    def test_matching_digest_passes(self):
        import sys
        baseline = {"profiles": {"quick":
                                 {"golden_digest": "abc123" + "0" * 58}}}
        assert _check_drift(baseline, self.RECORDS, "engine",
                            sys.stderr) == []

    def test_drifted_digest_fails(self):
        import sys
        baseline = {"profiles": {"quick":
                                 {"golden_digest": "f" * 64}}}
        failures = _check_drift(baseline, self.RECORDS, "engine",
                                sys.stderr)
        assert len(failures) == 1
        assert "drifted" in failures[0]
        assert "golden_digest" in failures[0]

    def test_missing_baseline_fails(self):
        import sys
        assert _check_drift(None, self.RECORDS, "engine", sys.stderr)
        assert _check_drift({"profiles": {}}, self.RECORDS, "engine",
                            sys.stderr)


class TestBenchEndToEnd:
    """One real engine:quick run (~2 s), reused across asserts."""

    @pytest.fixture(scope="class")
    def bench_dir(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("bench")
        assert run_bench(out_dir, benchmarks=("engine",),
                         profiles=("quick",)) == 0
        return out_dir

    def test_writes_engine_file_with_required_fields(self, bench_dir):
        data = json.loads((bench_dir / ENGINE_FILE).read_text())
        assert data["schema"] == SCHEMA_VERSION
        assert data["benchmark"] == "engine"
        record = data["profiles"]["quick"]
        assert set(record) == ENGINE_FIELDS
        assert record["events"] > 0
        assert len(record["golden_digest"]) == 64
        assert not (bench_dir / CAMPAIGN_FILE).exists()

    def test_rerun_is_deterministic(self, bench_dir):
        # The fresh engine:quick record reproduces the committed pin.
        fresh = json.loads((bench_dir / ENGINE_FILE).read_text())
        committed = json.loads((ROOT / ENGINE_FILE).read_text())
        assert fresh["profiles"]["quick"] == committed["profiles"]["quick"]

    def test_check_against_own_baseline_passes(self, bench_dir, capsys):
        before = (bench_dir / ENGINE_FILE).read_bytes()
        assert run_bench(bench_dir, check=True, benchmarks=("engine",),
                         profiles=("quick",)) == 0
        assert "digest OK" in capsys.readouterr().err
        assert (bench_dir / ENGINE_FILE).read_bytes() == before

    def test_check_fails_on_tampered_baseline(self, bench_dir, tmp_path,
                                              capsys):
        tampered = json.loads((bench_dir / ENGINE_FILE).read_text())
        tampered["profiles"]["quick"]["golden_digest"] = "0" * 64
        path = tmp_path / ENGINE_FILE
        path.write_text(json.dumps(tampered))
        before = path.read_bytes()
        for _ in range(2):
            # --check never writes, so a drifted pin cannot heal itself.
            assert run_bench(tmp_path, check=True, benchmarks=("engine",),
                             profiles=("quick",)) == 1
            assert path.read_bytes() == before
        assert "drifted" in capsys.readouterr().err


class TestCommittedBaselines:
    """The repo-root BENCH files are real, current baselines."""

    def test_engine_baseline_committed(self):
        data = json.loads((ROOT / ENGINE_FILE).read_text())
        assert data["schema"] == SCHEMA_VERSION
        assert data["benchmark"] == "engine"
        assert set(data["profiles"]) == {"quick", "default"}
        for record in data["profiles"].values():
            assert set(record) == ENGINE_FIELDS

    def test_campaign_baseline_committed_and_tied_to_goldens(self):
        from tests.test_campaign_goldens import (GOLDEN_SERIES_DIGEST,
                                                 GOLDEN_TABLE_DIGEST)
        data = json.loads((ROOT / CAMPAIGN_FILE).read_text())
        assert data["schema"] == SCHEMA_VERSION
        for record in data["profiles"].values():
            assert set(record) == CAMPAIGN_FIELDS
        quick = data["profiles"]["quick"]
        # The quick campaign profile IS the golden config, so its committed
        # digests must equal the pinned campaign goldens.
        assert quick["golden_digest"] == GOLDEN_TABLE_DIGEST
        assert quick["series_digest"] == GOLDEN_SERIES_DIGEST
