"""Problem configuration: JSON schema parsing and hypothesis validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, HypothesisError
from .kernel import ExponentialKernel
from .scalar import DampingBound

#: Largest stiffness scale a (pi / l)^2 or a / h^2 accepted.  Mode solves
#: reach alpha up to 1e12 times it (10^6 index tuples) and form residual
#: scales of size alpha^1.5, which overflow from alpha of about 1e205 on.
MAX_STIFFNESS_SCALE = 1e150

#: Largest kernel rate accepted: mode roots next to -b_N give form residual
#: scales |z|^2 (|z| + b_N) of about 2 b_N^3, which overflow from 4.5e102.
MAX_KERNEL_RATE = 1e100


@dataclass(frozen=True)
class Damping:
    """Damping description: constant value, range, or sampled 1D profile."""

    kind: str  # "constant" | "range" | "profile_1d"
    value: float | None = None
    b_min: float | None = None
    b_max: float | None = None
    samples: tuple[float, ...] | None = None

    def bounds(self) -> DampingBound:
        if self.kind == "constant":
            return DampingBound(self.value, self.value)
        return DampingBound(self.b_min, self.b_max)


@dataclass(frozen=True)
class Domain:
    """Spatial domain: a box (modal route) or a 1D FD interval."""

    kind: str  # "box" | "interval_fd"
    lengths: tuple[float, ...] | None = None
    length: float | None = None
    grid_points: int | None = None


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem description aggregating all standing assumptions."""

    coefficient_a: float
    kernel: ExponentialKernel
    damping: Damping
    domain: Domain


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"field '{field}': {message}")


def _finite(x) -> bool:
    """True for a finite JSON number; booleans and strings are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer literal too long for a float
        return False


def _parse_damping(node) -> Damping:
    _require(isinstance(node, dict), "damping", "must be an object")
    kind = node.get("kind")
    if kind == "constant":
        value = node.get("value")
        _require(_finite(value) and value >= 0,
                 "damping.value", "must be a nonnegative number")
        return Damping("constant", value=float(value))
    if kind == "range":
        b_min, b_max = node.get("b_min"), node.get("b_max")
        _require(_finite(b_min), "damping.b_min", "must be a finite number")
        _require(_finite(b_max), "damping.b_max", "must be a finite number")
        _require(0 <= b_min <= b_max, "damping",
                 f"need 0 <= b_min <= b_max, got [{b_min}, {b_max}]")
        return Damping("range", b_min=float(b_min), b_max=float(b_max))
    if kind == "profile_1d":
        samples = node.get("samples")
        _require(isinstance(samples, list) and len(samples) >= 2,
                 "damping.samples", "must be a list of at least 2 numbers")
        _require(all(_finite(s) for s in samples),
                 "damping.samples", "values must be finite numbers")
        b_min = node.get("b_min", min(samples))
        b_max = node.get("b_max", max(samples))
        _require(_finite(b_min), "damping.b_min", "must be a finite number")
        _require(_finite(b_max), "damping.b_max", "must be a finite number")
        _require(all(b_min <= s <= b_max for s in samples), "damping.samples",
                 f"samples leave the declared range [{b_min}, {b_max}]")
        _require(0 <= b_min <= b_max, "damping",
                 f"need 0 <= b_min <= b_max, got [{b_min}, {b_max}]")
        return Damping("profile_1d", b_min=float(b_min), b_max=float(b_max),
                       samples=tuple(float(s) for s in samples))
    raise ConfigError(f"field 'damping.kind': unknown kind {kind!r}")


def _parse_domain(node) -> Domain:
    _require(isinstance(node, dict), "domain", "must be an object")
    kind = node.get("kind")
    if kind == "box":
        lengths = node.get("lengths")
        _require(isinstance(lengths, list) and 1 <= len(lengths) <= 3,
                 "domain.lengths", "must be a list of 1 to 3 side lengths")
        _require(all(_finite(x) and x > 0 for x in lengths),
                 "domain.lengths", "side lengths must be positive and finite")
        return Domain("box", lengths=tuple(float(x) for x in lengths))
    if kind == "interval_fd":
        length = node.get("length", 1.0)
        grid_points = node.get("grid_points")
        _require(_finite(length) and length > 0,
                 "domain.length", "must be positive and finite")
        _require(isinstance(grid_points, int) and _finite(grid_points)
                 and grid_points >= 3,
                 "domain.grid_points", "must be an integer from 3 to 1e308")
        return Domain("interval_fd", length=float(length),
                      grid_points=grid_points)
    raise ConfigError(f"field 'domain.kind': unknown kind {kind!r}")


def load_spec(doc: dict) -> ProblemSpec:
    """Validate a parsed JSON document into a ProblemSpec."""
    _require(isinstance(doc, dict), "<root>", "must be a JSON object")
    a = doc.get("coefficient_a")
    _require(_finite(a) and a > 0,
             "coefficient_a", "must be a positive finite number")
    knode = doc.get("kernel")
    _require(isinstance(knode, dict) and isinstance(knode.get("a"), list)
             and isinstance(knode.get("b"), list),
             "kernel", "must be an object with lists 'a' and 'b'")
    for key in ("a", "b"):
        _require(all(_finite(x) for x in knode[key]), f"kernel.{key}",
                 "values must be finite numbers")
    _require(all(b <= MAX_KERNEL_RATE for b in knode["b"]), "kernel.b",
             f"rates must be at most MAX_KERNEL_RATE = {MAX_KERNEL_RATE:g}")
    try:
        kern = ExponentialKernel(tuple(float(x) for x in knode["a"]),
                                 tuple(float(x) for x in knode["b"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'kernel': {exc}") from exc
    damping = _parse_damping(doc.get("damping"))
    domain = _parse_domain(doc.get("domain"))
    # a zero stiffness scale has underflowed
    if domain.kind == "box":
        field, what = "domain.lengths", "a (pi / l)^2"
        ratios = [math.pi / l for l in domain.lengths]
    else:
        field, what = "domain.length", "a ((grid_points + 1) / length)^2"
        ratios = [(domain.grid_points + 1) / domain.length]
    for ratio in ratios:
        scale = a * ratio * ratio
        _require(0.0 < scale <= MAX_STIFFNESS_SCALE, field,
                 f"stiffness scale {what} = {scale:g} is outside "
                 f"(0, {MAX_STIFFNESS_SCALE:g}]")
    margin = kern.dissipativity_margin(damping.bounds().b_max)
    if margin <= 0.0:
        raise HypothesisError(
            "field 'damping': assumption 1 > b_max * sum(a_j) fails "
            f"(margin = {margin:g})"
        )
    return ProblemSpec(float(a), kern, damping, domain)


def parse_config(path) -> ProblemSpec:
    """Read and validate a JSON configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return load_spec(doc)
