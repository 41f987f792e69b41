"""What every workload shares: the phase interface and its helpers."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def runtime_config(path: Path, seed: int):
    """A runtime config file whose job stream is drawn from ``seed``."""
    # Imported here, not at module level: only the workloads that read
    # runtime config files should pay for importing repro.runtime.
    from repro.runtime import loads

    cfg = loads(path.read_text(encoding="utf-8"))
    return dataclasses.replace(
        cfg, workload=dataclasses.replace(cfg.workload, seed=seed))


@dataclass(frozen=True)
class Op:
    """One operation of a run: its own check plus the digests it needs."""

    name: str
    ok: bool
    digests: tuple[str, ...] = ()


class Workload:
    """Base class: the phases shared by every workload."""

    name = ""

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.toml"

    def load(self, seed: int) -> Any:
        raise NotImplementedError

    def build(self, cfg: Any) -> Any:
        raise NotImplementedError

    def sizes(self, cfg: Any) -> dict[str, Any]:
        raise NotImplementedError

    def prepare_once(self, cfg: Any, art: Any, workdir: Path) -> Any:
        return None

    def prepare(self, cfg: Any, art: Any, shared: Any, repdir: Path) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> tuple[Any, dict[str, str]]:
        """The timed run: its output and the digests computed from it."""
        raise NotImplementedError

    def check(self, state: Any, out: Any) -> list[Op]:
        raise NotImplementedError

    def counts(self, state: Any, out: Any) -> dict[str, float]:
        """Layer counters read off the run's own artifacts."""
        return {}
