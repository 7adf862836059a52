"""Plain-text run configuration of `check-all` with lossless round-tripping.

One `key = value` pair per line, `#` comments allowed.  The keys are
`seed` (an integer) and `tol` (the solver tolerance, a positive float);
any other key raises InvalidSpec.  Floats are written with repr so a
config survives write/read cycles bit-exactly; the seed is mandatory and
never defaults to entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InvalidSpec


@dataclass
class RunConfig:
    """Inputs of the check-all battery."""

    seed: int = 0
    tol: float = 1e-8

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidSpec("tolerance must be positive")

    def to_file(self, path) -> None:
        lines = [f"{f.name} = {getattr(self, f.name)!r}" for f in fields(self)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        known = {f.name: type(f.default) for f in fields(cls)}
        kwargs = {}
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidSpec(f"{path}: cannot read config ({exc})") from exc
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidSpec(f"malformed config line: {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise InvalidSpec(f"unknown config key {key!r}")
            try:
                kwargs[key] = known[key](value.strip())
            except ValueError as exc:
                raise InvalidSpec(f"bad value for {key}: {raw!r}") from exc
        return cls(**kwargs)
