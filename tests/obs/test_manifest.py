"""RunManifest provenance records."""

import json
import subprocess

import pytest

from repro.obs.manifest import (
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    RunManifest,
    git_describe,
)


class TestCreate:
    def test_records_command_and_config(self):
        m = RunManifest.create("virus", "a72", 3, config={"pop": 8})
        assert m.command == "virus"
        assert m.platform == "a72"
        assert m.seed == 3
        assert m.config == {"pop": 8}
        assert m.created_unix > 0

    def test_git_describe_of_this_repo(self):
        # The repo under test is a git checkout, so this must resolve.
        assert git_describe() is not None

    def test_git_describe_outside_repo(self, tmp_path):
        assert git_describe(tmp_path) is None

    def test_git_describe_is_memoized_per_directory(
        self, tmp_path, monkeypatch
    ):
        first = git_describe()
        outside = git_describe(tmp_path)
        spawned = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            spawned.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        assert git_describe() == first
        assert git_describe(".") == first
        assert git_describe(tmp_path) is outside is None
        assert RunManifest.create("sweep", "a53", 0).git == first
        assert spawned == []


class TestRoundTrip:
    def test_dict_round_trip(self):
        m = RunManifest.create("sweep", "a53", 0, config={"samples": 5})
        m.event_log = "events.jsonl"
        m.add_artifact("sweep.json")
        m.extra["note"] = "x"
        again = RunManifest.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()

    def test_write_and_load(self, tmp_path):
        m = RunManifest.create("virus", "amd", 7)
        m.add_artifact("a.json")
        path = m.write(tmp_path)
        assert path.name == MANIFEST_FILENAME
        assert m.elapsed_s >= 0.0
        # load accepts the directory or the file itself
        by_dir = RunManifest.load(tmp_path)
        by_file = RunManifest.load(path)
        assert by_dir.to_dict() == by_file.to_dict() == m.to_dict()

    def test_written_file_is_json(self, tmp_path):
        m = RunManifest.create("report", "a72", 0)
        path = m.write(tmp_path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["manifest_version"] == MANIFEST_VERSION

    def test_add_artifact_deduplicates(self):
        m = RunManifest.create("virus", "a72", 0)
        m.add_artifact("x.json")
        m.add_artifact("x.json")
        assert m.artifacts == ["x.json"]


class TestValidation:
    def test_rejects_unknown_version(self):
        m = RunManifest.create("virus", "a72", 0)
        data = m.to_dict()
        data["manifest_version"] = 99
        with pytest.raises(ValueError, match="version"):
            RunManifest.from_dict(data)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            RunManifest.from_dict({"seed": 1})
