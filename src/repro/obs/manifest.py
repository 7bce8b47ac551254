"""Machine-readable run provenance.

A :class:`RunManifest` is written next to every artifact a CLI run
produces (virus archives, sweep tables, reports).  It records enough
to reconstruct the run -- platform, seed, full configuration, code
version, elapsed time -- and points at the sibling JSONL event log and
artifact files, so :mod:`repro.analysis.report` can regenerate a
report from provenance alone, without re-running the experiment.
"""

from __future__ import annotations

import functools
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

MANIFEST_VERSION = 1
MANIFEST_FILENAME = "run_manifest.json"


def git_describe(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the working tree, if any.

    Memoized per process and resolved directory: a process runs the
    code it imported, so the first answer is the provenance of every
    later run in it.
    """
    return _git_describe(Path(cwd if cwd is not None else ".").resolve())


@functools.lru_cache(maxsize=32)
def _git_describe(cwd: Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


@dataclass
class RunManifest:
    """Provenance record for one experiment run.

    ``event_log`` and ``artifacts`` are paths relative to the manifest's
    own directory, so an archived artifact directory stays relocatable.
    """

    command: str
    platform: str
    seed: int
    config: Dict[str, Any] = field(default_factory=dict)
    git: Optional[str] = None
    created_unix: float = 0.0
    elapsed_s: float = 0.0
    event_log: Optional[str] = None
    artifacts: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    @classmethod
    def create(
        cls,
        command: str,
        platform: str,
        seed: int,
        config: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """Start a manifest for a run beginning now."""
        return cls(
            command=command,
            platform=platform,
            seed=seed,
            config=dict(config or {}),
            git=git_describe(),
            created_unix=time.time(),
        )

    def add_artifact(self, name: str) -> None:
        if name not in self.artifacts:
            self.artifacts.append(name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "manifest_version": self.version,
            "command": self.command,
            "platform": self.platform,
            "seed": self.seed,
            "config": self.config,
            "git": self.git,
            "created_unix": self.created_unix,
            "elapsed_s": self.elapsed_s,
            "event_log": self.event_log,
            "artifacts": list(self.artifacts),
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        try:
            version = data["manifest_version"]
            command = data["command"]
            platform = data["platform"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed manifest: {exc}") from exc
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {version!r}"
            )
        return cls(
            command=command,
            platform=platform,
            seed=int(data.get("seed", 0)),
            config=dict(data.get("config", {})),
            git=data.get("git"),
            created_unix=float(data.get("created_unix", 0.0)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            event_log=data.get("event_log"),
            artifacts=list(data.get("artifacts", [])),
            extra=dict(data.get("extra", {})),
        )

    def write(self, directory: Union[str, Path]) -> Path:
        """Finalize elapsed time and write into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if self.created_unix and not self.elapsed_s:
            self.elapsed_s = round(time.time() - self.created_unix, 3)
        path = directory / MANIFEST_FILENAME
        path.write_text(
            json.dumps(self.to_dict(), indent=2), encoding="utf-8"
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read a manifest from a file or an artifact directory."""
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_FILENAME
        return cls.from_dict(
            json.loads(path.read_text(encoding="utf-8"))
        )
