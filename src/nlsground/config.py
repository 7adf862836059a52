"""Plain-text run configuration with lossless round-tripping.

One `key = value` pair per line, `#` comments allowed.  Floats are
written with repr so a config survives write/read cycles bit-exactly;
the seed is mandatory and never defaults to entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InvalidSpec
from .grid import DomainSpec


@dataclass
class RunConfig:
    """Inputs shared by the CLI drivers."""

    dimension: int = 1
    bounds: tuple = (0.0, 1.0)          # flat: (a, b) or (ax, bx, ay, by)
    star_center: tuple = ()             # empty means centroid
    n: int = 511
    p: float = 4.0
    kind: str = "signed"
    lambda_min: float | None = None     # None: threshold + 0.5
    lambda_max: float = 100.0
    samples: int = 100
    mu: tuple = (1.0,)
    seed: int = 0
    tol: float = 1e-8
    out_dir: str = "out"

    def __post_init__(self):
        if self.kind not in ("signed", "nodal"):
            raise InvalidSpec(f"kind must be signed or nodal, got {self.kind!r}")
        if self.tol <= 0:
            raise InvalidSpec("tolerance must be positive")
        if self.n < 3:
            raise InvalidSpec("mesh size must be at least 3")
        if len(self.bounds) != 2 * self.dimension:
            raise InvalidSpec(
                f"bounds {self.bounds} do not match dimension {self.dimension}")
        if any(m <= 0 for m in self.mu):
            raise InvalidSpec("mass targets must be positive")

    def domain_spec(self) -> DomainSpec:
        axes = tuple((self.bounds[2 * i], self.bounds[2 * i + 1])
                     for i in range(self.dimension))
        return DomainSpec(self.dimension, axes, tuple(self.star_center))

    def to_file(self, path) -> None:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {_format_value(value)}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
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
                kwargs[key] = _parse_value(key, value.strip())
            except ValueError as exc:
                raise InvalidSpec(f"bad value for {key}: {raw!r}") from exc
        return cls(**kwargs)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_scalar(v) for v in value) if value else "()"
    return _format_scalar(value)


def _format_scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_TUPLE_KEYS = {"bounds", "star_center", "mu"}
_INT_KEYS = {"dimension", "n", "samples", "seed"}
_FLOAT_KEYS = {"p", "lambda_max", "tol"}
_OPTIONAL_FLOAT_KEYS = {"lambda_min"}


def _parse_value(key: str, text: str):
    if key in _TUPLE_KEYS:
        if text == "()":
            return ()
        return tuple(float(v) for v in text.split(","))
    if key in _INT_KEYS:
        return int(text)
    if key in _FLOAT_KEYS:
        return float(text)
    if key in _OPTIONAL_FLOAT_KEYS:
        return None if text.lower() == "none" else float(text)
    return text
