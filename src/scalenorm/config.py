"""Application configuration: defaults, JSON config files, `--set` overrides.

The default pyramid is {4.0, 2.0, 1.0, 0.5, 0.25} and the default scale range
[16, 560]. Every field can be overridden by a config file (`--config`), then by
`--set dotted.key=value`, then `--seed N` sets both `seed` and `detector.seed`;
the effective configuration is echoed into every JSON output for provenance.

The JSON form is derived from the dataclass fields and their annotations.
Reading it is strict at every depth: unknown keys are rejected, sections must
be objects, scalars obey the data files' rule (`dataio.KINDS`), and every
error names the dotted key.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import dataclass, field, fields, replace

from .dataio import KINDS
from .evaluation import EvalConfig
from .fusion import SoftNmsConfig
from .geometry import PyramidSpec, ScaleRange
from .pyramid import FpnAssignConfig
from .search import SearchSpace
from .simulate import DetectorProfile

DEFAULT_FACTORS = (4.0, 2.0, 1.0, 0.5, 0.25)
DEFAULT_RANGE = ScaleRange(16.0, 560.0)
# Types stored as a JSON list: (annotation of the list, constructor from it, the list).
_LISTED = {
    ScaleRange: (tuple[float | None, ...], ScaleRange.from_pair, ScaleRange.to_pair),
    PyramidSpec: (tuple[float, ...], PyramidSpec, list),
}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, str, object], ...]:
    """(attribute, JSON key, resolved annotation) of each field of `cls`."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("key", f.name), hints[f.name]) for f in fields(cls))


def _encode(value):
    if value is None or isinstance(value, (int, float, str)):
        return value
    if type(value) in _LISTED:
        return _LISTED[type(value)][2](value)
    if isinstance(value, tuple):
        return list(value)
    return {key: _encode(getattr(value, name)) for name, key, _ in _fields(type(value))}


def _decode(value, hint, path: str):
    """`value` checked against the annotation `hint`; errors name `path`."""
    where = f"config key {path!r}" if path else "config"
    if hint in KINDS:
        expected, test = KINDS[hint]
        if not test(value):
            raise ValueError(f"{where}: expected {expected}, got {value!r}")
        return hint(value)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _decode(value, args[0], path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        return tuple(_decode(v, args[0], path) for v in value)
    if hint in _LISTED:
        listed, build, _ = _LISTED[hint]
        value = _decode(value, listed, path)
    else:  # a config dataclass
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected an object, got {value!r}")
        known = {key: (name, h) for name, key, h in _fields(hint)}
        keys = {k: f"{path}.{k}" if path else k for k in value}
        unknown = sorted(keys[k] for k in value if k not in known)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        value = {known[k][0]: _decode(v, known[k][1], keys[k]) for k, v in value.items()}
        build = lambda kwargs: hint(**kwargs)  # noqa: E731
    try:
        return build(value)
    except (TypeError, ValueError) as exc:
        if not path:  # the top level names its own keys
            raise
        raise ValueError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class AppConfig:
    pyramid: PyramidSpec = field(
        default=PyramidSpec(DEFAULT_FACTORS), metadata={"key": "pyramid_factors"}
    )
    scale_range: ScaleRange = DEFAULT_RANGE
    soft_nms: SoftNmsConfig = SoftNmsConfig()
    fusion_top_k: int | None = 100
    eval: EvalConfig = EvalConfig()
    search: SearchSpace = field(default_factory=SearchSpace)
    detector: DetectorProfile = DetectorProfile()
    fpn: FpnAssignConfig = FpnAssignConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        k = self.fusion_top_k
        if k is not None and not (KINDS[int][1](k) and k >= 1):
            raise ValueError(
                f"config key 'fusion_top_k': expected null or an integer >= 1, got {k!r}"
            )
        if not (KINDS[int][1](self.seed) and self.seed >= 0):
            raise ValueError(f"config key 'seed': expected an integer >= 0, got {self.seed!r}")

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AppConfig":
        return _decode(data, cls, "")

    def with_seed(self, seed: int) -> "AppConfig":
        return replace(self, seed=seed, detector=replace(self.detector, seed=seed))


def apply_override(data: dict, assignment: str) -> dict:
    """Apply one 'dotted.path=json_value' override to a config dict."""
    if "=" not in assignment:
        raise ValueError(f"expected 'path=value', got {assignment!r}")
    path, _, raw = assignment.partition("=")
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ValueError(f"empty config path in {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValueError(f"config path {path!r} does not address a section")
    node[keys[-1]] = value
    return data


def parse_range(text: str) -> ScaleRange:
    """Parse "lower,upper" where upper may be "inf"."""
    try:
        lower, upper = text.split(",")
        pair = float(lower), (math.inf if upper.strip().lower() in ("none", "") else float(upper))
    except ValueError:  # not two parts, or a part that is not a number
        raise ValueError(f"expected 'lower,upper', got {text!r}") from None
    return ScaleRange(*pair)
