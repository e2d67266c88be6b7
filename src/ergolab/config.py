"""Flat key = value scenario configuration.

The format is line oriented: ``key = value`` with dotted key paths,
``#`` comments, and blank lines.  Chosen over nested formats so the
parser stays dependency-free and the schema stays greppable.
"""

from dataclasses import dataclass, fields
import math

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_SPACE_KINDS = ("circle", "discrete", "product")
_FLOW_KINDS = ("rotation", "step", "identity")
_FUNCTION_KINDS = ("sawtooth", "hat", "smooth", "explicit", "atoms")
_NORMS = ("euclidean", "max", "sum")
_DIRECTIONS = ("increasing", "decreasing")


class ConfigError(ValueError):
    """Validation failure naming the first offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    space_kind: str
    flow_kind: str
    function_kind: str
    vector_norm: str
    filtration_direction: str
    filtration_max_level: int
    t_grid: tuple
    s_grid: tuple
    p: float
    epsilon: float
    threshold: float
    checks: tuple
    seed: int
    space_atoms: int = None
    space_weights: tuple = None
    space_cyclic_size: int = None
    space_factor_weights: tuple = None
    flow_theta: float = None
    flow_h: float = None
    flow_map: str = None
    function_d: int = 1
    function_amplitudes: tuple = None
    function_phases: tuple = None
    function_harmonic: int = None
    function_breaks: tuple = None
    function_pieces: tuple = None
    function_values: tuple = None

    def echo(self):
        """Canonical text form; parsing it back yields an equal config."""
        lines = [f"name = {self.name}", f"space.kind = {self.space_kind}"]
        if self.space_atoms is not None:
            lines.append(f"space.atoms = {self.space_atoms}")
        if self.space_weights is not None:
            lines.append("space.weights = " + _fmt_floats(self.space_weights))
        if self.space_cyclic_size is not None:
            lines.append(f"space.cyclic_size = {self.space_cyclic_size}")
        if self.space_factor_weights is not None:
            lines.append("space.factor_weights = "
                         + _fmt_floats(self.space_factor_weights))
        lines.append(f"flow.kind = {self.flow_kind}")
        if self.flow_theta is not None:
            lines.append(f"flow.theta = {self.flow_theta!r}")
        if self.flow_h is not None:
            lines.append(f"flow.h = {self.flow_h!r}")
        if self.flow_map is not None:
            lines.append(f"flow.map = {self.flow_map}")
        lines.append(f"function.kind = {self.function_kind}")
        lines.append(f"function.d = {self.function_d}")
        if self.function_amplitudes is not None:
            lines.append("function.amplitudes = "
                         + _fmt_floats(self.function_amplitudes))
        if self.function_phases is not None:
            lines.append("function.phases = " + _fmt_floats(self.function_phases))
        if self.function_harmonic is not None:
            lines.append(f"function.harmonic = {self.function_harmonic}")
        if self.function_breaks is not None:
            lines.append("function.breaks = " + _fmt_floats(self.function_breaks))
        if self.function_pieces is not None:
            for i, piece in enumerate(self.function_pieces):
                cols = " | ".join(_fmt_floats(comp) for comp in piece)
                lines.append(f"function.piece.{i} = {cols}")
        if self.function_values is not None:
            rows = " ; ".join(_fmt_floats(row) for row in self.function_values)
            lines.append(f"function.values = {rows}")
        lines.append(f"vector_norm = {self.vector_norm}")
        lines.append(f"filtration.direction = {self.filtration_direction}")
        lines.append(f"filtration.max_level = {self.filtration_max_level}")
        lines.append("t_grid = " + _fmt_floats(self.t_grid))
        lines.append("s_grid = " + _fmt_floats(self.s_grid))
        lines.append(f"p = {self.p!r}")
        lines.append(f"epsilon = {self.epsilon!r}")
        lines.append(f"threshold = {self.threshold!r}")
        lines.append("checks = " + ", ".join(self.checks))
        lines.append(f"seed = {self.seed}")
        return "\n".join(lines) + "\n"


def _fmt_floats(vals):
    return ", ".join(repr(float(v)) for v in vals)


def _read_pairs(text):
    pairs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"<line {lineno}>", f"not a key = value line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"<line {lineno}>", "empty key")
        if key in seen:
            raise ConfigError(key, "duplicate key")
        seen.add(key)
        pairs.append((key, value.strip()))
    return dict(pairs)


def _number(key, tok):
    """float(tok) if tok is a finite number, else a ConfigError naming key;
    every real number in a scenario file is read here."""
    try:
        v = float(tok)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {tok.strip()!r}") from None
    if not math.isfinite(v):
        raise ConfigError(key, f"expected a finite number, got {tok.strip()!r}")
    return v


def _as_float(kv, key):
    return _number(key, kv[key])


def _as_int(kv, key):
    raw = kv[key]
    try:
        v = int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None
    return v


def _as_floats(kv, key):
    return tuple(_number(key, tok) for tok in kv[key].split(",") if tok.strip())


def _as_choice(kv, key, choices):
    v = kv[key]
    if v not in choices:
        raise ConfigError(key, f"expected one of {choices}, got {v!r}")
    return v


def _need(kv, key):
    if key not in kv:
        raise ConfigError(key, "required key is missing")
    return key


def _grid(kv, prefix, positive):
    explicit = prefix in kv
    geo = any(f"{prefix}.{part}" in kv for part in ("start", "ratio", "count"))
    if explicit and geo:
        raise ConfigError(prefix, "give either an explicit list or a geometric "
                                   "rule, not both")
    if explicit:
        vals = _as_floats(kv, prefix)
    elif geo:
        for part in ("start", "ratio", "count"):
            _need(kv, f"{prefix}.{part}")
        start = _as_float(kv, f"{prefix}.start")
        ratio = _as_float(kv, f"{prefix}.ratio")
        count = _as_int(kv, f"{prefix}.count")
        if count < 1:
            raise ConfigError(f"{prefix}.count", "count must be at least 1")
        if ratio <= 1.0:
            raise ConfigError(f"{prefix}.ratio", "ratio must exceed 1")
        try:
            vals = tuple(start * ratio ** k for k in range(count))
        except OverflowError:
            vals = (math.inf,)
        if not math.isfinite(vals[-1]):
            raise ConfigError(prefix, "the geometric rule gives a value that "
                                      "is not a finite number")
    else:
        raise ConfigError(prefix, "required key is missing")
    if len(vals) == 0:
        raise ConfigError(prefix, "grid must be nonempty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(prefix, "grid must be strictly increasing")
    if positive and vals[0] <= 0.0:
        raise ConfigError(prefix, "grid values must be positive")
    if not positive and vals[0] < 0.0:
        raise ConfigError(prefix, "grid values must be nonnegative")
    return vals


_KNOWN_SCALAR_KEYS = {
    "name", "space.kind", "space.atoms", "space.weights", "space.cyclic_size",
    "space.factor_weights", "flow.kind", "flow.theta", "flow.h", "flow.map",
    "function.kind", "function.d", "function.amplitudes", "function.phases",
    "function.harmonic", "function.breaks", "function.values", "vector_norm",
    "filtration.direction", "filtration.max_level", "t_grid", "t_grid.start",
    "t_grid.ratio", "t_grid.count", "s_grid", "s_grid.start", "s_grid.ratio",
    "s_grid.count", "p", "epsilon", "threshold", "checks", "seed",
}


def parse_text(text):
    kv = _read_pairs(text)
    for key in kv:
        if key in _KNOWN_SCALAR_KEYS:
            continue
        if key.startswith("function.piece."):
            tail = key[len("function.piece."):]
            if tail.isdigit():
                continue
        raise ConfigError(key, "unknown key")

    name = kv[_need(kv, "name")]
    space_kind = _as_choice(kv, _need(kv, "space.kind"), _SPACE_KINDS)
    space_atoms = space_weights = space_cyclic = space_fw = None
    if space_kind == "circle":
        for bad in ("space.atoms", "space.weights", "space.cyclic_size",
                    "space.factor_weights"):
            if bad in kv:
                raise ConfigError(bad, "not meaningful on the circle")
    elif space_kind == "discrete":
        if "space.weights" in kv:
            space_weights = _as_floats(kv, "space.weights")
            if "space.atoms" in kv and _as_int(kv, "space.atoms") != len(space_weights):
                raise ConfigError("space.atoms", "contradicts space.weights length")
        else:
            space_atoms = _as_int(kv, _need(kv, "space.atoms"))
            if space_atoms < 2:
                raise ConfigError("space.atoms", "need at least 2 atoms")
    else:
        space_cyclic = _as_int(kv, _need(kv, "space.cyclic_size"))
        if space_cyclic < 1:
            raise ConfigError("space.cyclic_size", "must be positive")
        space_fw = _as_floats(kv, _need(kv, "space.factor_weights"))
        if len(space_fw) < 1:
            raise ConfigError("space.factor_weights", "must be nonempty")

    flow_kind = _as_choice(kv, _need(kv, "flow.kind"), _FLOW_KINDS)
    flow_theta = flow_h = flow_map = None
    if flow_kind == "rotation":
        if space_kind != "circle":
            raise ConfigError("flow.kind", "rotation flows need space.kind = circle")
        _need(kv, "flow.theta")
        if kv["flow.theta"] == "golden":
            flow_theta = _GOLDEN
        else:
            flow_theta = _as_float(kv, "flow.theta")
        if not 0.0 < flow_theta < 1.0:
            raise ConfigError("flow.theta", "angle must lie strictly between 0 and 1")
    elif flow_kind == "step":
        if space_kind == "circle":
            raise ConfigError("flow.kind", "step flows need an atomic space")
        flow_h = _as_float(kv, _need(kv, "flow.h"))
        if flow_h <= 0.0:
            raise ConfigError("flow.h", "step width must be positive")
        flow_map = kv.get("flow.map", "shift")
        if flow_map != "shift" and not flow_map.startswith("perm:"):
            raise ConfigError("flow.map", "expected 'shift' or 'perm:i0,i1,...'")

    function_kind = _as_choice(kv, _need(kv, "function.kind"), _FUNCTION_KINDS)
    function_d = _as_int(kv, "function.d") if "function.d" in kv else 1
    if function_d < 1:
        raise ConfigError("function.d", "dimension must be positive")
    amplitudes = phases = harmonic = breaks = pieces = values = None
    if function_kind in ("sawtooth", "hat", "smooth"):
        if space_kind != "circle":
            raise ConfigError("function.kind",
                              f"{function_kind} functions live on the circle")
        if "function.amplitudes" in kv:
            amplitudes = _as_floats(kv, "function.amplitudes")
            if len(amplitudes) != function_d:
                raise ConfigError("function.amplitudes",
                                  f"expected {function_d} entries")
        if "function.phases" in kv:
            phases = _as_floats(kv, "function.phases")
            if len(phases) != function_d:
                raise ConfigError("function.phases", f"expected {function_d} entries")
        if function_kind == "smooth":
            harmonic = _as_int(kv, "function.harmonic") \
                if "function.harmonic" in kv else 1
            if harmonic < 1:
                raise ConfigError("function.harmonic", "must be a positive integer")
    elif function_kind == "explicit":
        if space_kind != "circle":
            raise ConfigError("function.kind", "explicit pieces live on the circle")
        breaks = _as_floats(kv, _need(kv, "function.breaks"))
        piece_keys = sorted((int(k.rsplit(".", 1)[1]), k) for k in kv
                            if k.startswith("function.piece."))
        if [i for i, _ in piece_keys] != list(range(len(breaks) - 1)):
            raise ConfigError("function.breaks",
                              f"expected pieces 0..{len(breaks) - 2} to be given")
        plist = []
        for i, key in piece_keys:
            comps = []
            for comp in kv[key].split("|"):
                comps.append(tuple(_number(key, tok) for tok in comp.split(",")))
            if len(comps) != function_d:
                raise ConfigError(key, f"expected {function_d} components")
            plist.append(tuple(comps))
        pieces = tuple(plist)
    else:
        raw = kv[_need(kv, "function.values")]
        rows = []
        for row in raw.split(";"):
            rows.append(tuple(_number("function.values", tok)
                              for tok in row.split(",")))
            if len(rows[-1]) != function_d:
                raise ConfigError("function.values",
                                  f"each row must have {function_d} entries")
        values = tuple(rows)
        if space_kind == "circle":
            raise ConfigError("function.kind", "atom values need an atomic space")

    vector_norm = _as_choice(kv, _need(kv, "vector_norm"), _NORMS)
    direction = _as_choice(kv, _need(kv, "filtration.direction"), _DIRECTIONS)
    max_level = _as_int(kv, _need(kv, "filtration.max_level"))
    if max_level < 0:
        raise ConfigError("filtration.max_level", "must be nonnegative")

    t_grid = _grid(kv, "t_grid", positive=True)
    s_grid = _grid(kv, "s_grid", positive=False)

    p = _as_float(kv, _need(kv, "p"))
    if not p > 1.0:
        raise ConfigError("p", "inequality checks require p > 1")
    epsilon = _as_float(kv, _need(kv, "epsilon"))
    if epsilon <= 0.0:
        raise ConfigError("epsilon", "must be positive")
    threshold = _as_float(kv, "threshold") if "threshold" in kv else 0.05
    if threshold <= 0.0:
        raise ConfigError("threshold", "must be positive")

    raw_checks = kv[_need(kv, "checks")]
    checks = tuple(tok.strip() for tok in raw_checks.split(",") if tok.strip())
    from .runner import CHECK_NAMES
    for c in checks:
        if c not in CHECK_NAMES:
            raise ConfigError("checks", f"unknown check {c!r}; run the list "
                                        "command for valid names")
    seed = _as_int(kv, _need(kv, "seed"))

    cfg = ScenarioConfig(
        name=name, space_kind=space_kind, flow_kind=flow_kind,
        function_kind=function_kind, vector_norm=vector_norm,
        filtration_direction=direction, filtration_max_level=max_level,
        t_grid=t_grid, s_grid=s_grid, p=p, epsilon=epsilon, threshold=threshold,
        checks=checks, seed=seed, space_atoms=space_atoms,
        space_weights=space_weights, space_cyclic_size=space_cyclic,
        space_factor_weights=space_fw, flow_theta=flow_theta, flow_h=flow_h,
        flow_map=flow_map, function_d=function_d, function_amplitudes=amplitudes,
        function_phases=phases, function_harmonic=harmonic,
        function_breaks=breaks, function_pieces=pieces, function_values=values)
    _validate_built(cfg)
    return cfg


def _validate_built(cfg):
    """Cross-field rules that need the concrete space."""
    from .runner import build_space
    space = build_space(cfg)
    from .spaces import max_partition_level
    cap = max_partition_level(space)
    if cfg.filtration_max_level > cap:
        raise ConfigError("filtration.max_level",
                          f"this space supports at most level {cap}")
    if cfg.function_kind == "atoms" and len(cfg.function_values) != space.natoms:
        raise ConfigError("function.values",
                          f"expected {space.natoms} rows, got "
                          f"{len(cfg.function_values)}")
    if cfg.flow_map is not None and cfg.flow_map.startswith("perm:"):
        try:
            perm = [int(tok) for tok in cfg.flow_map[5:].split(",")]
        except ValueError:
            raise ConfigError("flow.map", "perm entries must be integers") from None
        if sorted(perm) != list(range(space.natoms)):
            raise ConfigError("flow.map",
                              f"perm must reorder 0..{space.natoms - 1}")


def parse_config(path):
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    return parse_text(text)
