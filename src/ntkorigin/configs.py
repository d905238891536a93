"""Packaged default scenario configurations, one per CLI subcommand, and the
rule each config key's value must meet.

Every default is a plain dict (the JSON schema) so that dumping it, editing a
field and feeding it back through --config is the normal workflow. Every
config built by `overlay_config` has had each value checked once against its
key's rule, so the runners read values of the right type and range and convert
none of them.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .calculus import PASCAL_MAX_ORDER
from .errors import ConfigError
from .geometry import LinearTarget, QuadraticTarget, SinusoidalTarget, TargetFunction
from .gram import TikhonovConfig

_THEOREM1 = {
    "name": "theorem1-default",
    "seed": 11,
    "d": 2,
    "n": 8,
    "points": None,
    "box": [-1.0, 1.0],
    "v_phi": [0.8, 0.6],
    "t_list": [100.0, 1000.0, 10000.0],
    "delta": {"mode": "relative", "value": 1e-8},
    "k_features": 10000,
    "target": {"kind": "sinusoidal", "u": [1.3, -0.7], "phase": 0.4},
    "mode": "analytic",
    "n_directions": 8,
    "include_shift_direction": True,
    "include_orthogonal": True,
    "radius": 0.1,
    "profile_points": 41,
    "degmax": 4,
    "equivalence_points": 100,
    "threads": 1,
    "out": None,
}

_FARFIELD = {
    "name": "farfield-default",
    "seed": 11,
    "d": 2,
    "n": 8,
    "points": None,
    "box": [-1.0, 1.0],
    "v_phi": [0.8, 0.6],
    "delta": {"mode": "relative", "value": 1e-8},
    "target": {"kind": "sinusoidal", "u": [1.3, -0.7], "phase": 0.4},
    "n_directions": 8,
    "window": [100.0, 1000.0],
    "profile_points": 41,
    "degmax": 4,
    "threads": 1,
    "out": None,
}

_GRAM_LIMIT = {
    "name": "gram-limit-default",
    "seed": 11,
    "d": 2,
    "n": 8,
    "points": None,
    "box": [-1.0, 1.0],
    "v_phi": [0.8, 0.6],
    "t_list": [100.0, 1000.0, 10000.0],
    "target": {"kind": "sinusoidal", "u": [1.3, -0.7], "phase": 0.4},
    "k_features": 100000,
    "features_seed": 5,
    "kappa_mc_features": 1000000,
    "threads": 1,
    "out": None,
}

_INVERSE_CHECK = {
    "name": "inverse-check-default",
    "seed": 7,
    "n_list": [1, 2, 8, 32],
    "kappa_list": [0.5, 1.0, 4.0],
    "t_list": [10.0, 100.0, 1000.0],
    "delta_list": [
        {"mode": "absolute", "value": 1e-2},
        {"mode": "relative", "value": 1e-6},
    ],
    "stencil_max_order": 16,
    "sigma_instances": 100,
    "bias_sensitivity": {
        "points": [[0.3, -0.4], [0.1, 0.2]],
        "v_phi": [0.6, -0.8],
        "t_list": [100.0, 1000.0],
        "delta": {"mode": "relative", "value": 1e-6},
        "target": {"kind": "sinusoidal", "u": [0.9, 0.4], "phase": 0.1},
        "probes": 20,
    },
    "threads": 1,
    "out": None,
}

_KAPPA = {
    "name": "kappa-default",
    "seed": 1234,
    "pair_dims": [1, 2, 5],
    "pairs_per_dim": 20,
    "k_features": 200000,
    "diag_points_per_dim": 2,
    "diag_k_features": 10000000,
    "kappa_directions": 5,
    "kappa_k_features": 1000000,
    "threads": 1,
    "out": None,
}

_MLP_COMPARE = {
    "name": "mlp-compare-default",
    "seed": 123,
    "d": 2,
    "points": [[0.3, -0.2]],
    "v_phi": [0.8, 0.6],
    "t": 10.0,
    "target": {"kind": "sinusoidal", "u": [1.3, -0.7], "phase": 0.4},
    "delta": {"mode": "relative", "value": 1e-8},
    "widths": [64, 4096],
    "max_steps": 200000,
    "loss_target_ratio": 1e-6,
    "eval_points_seed": 7,
    "eval_points": 5,
    "eval_box": 0.5,
    "threads": 1,
    "out": None,
}

DEFAULTS = {
    "theorem1": _THEOREM1,
    "farfield": _FARFIELD,
    "gram-limit": _GRAM_LIMIT,
    "inverse-check": _INVERSE_CHECK,
    "kappa": _KAPPA,
    "mlp-compare": _MLP_COMPARE,
}


def default_config(subcommand: str) -> dict:
    if subcommand not in DEFAULTS:
        raise KeyError(f"no default config for {subcommand!r}")
    return copy.deepcopy(DEFAULTS[subcommand])


def overlay_config(subcommand: str, *overlays: dict) -> dict:
    """The default config of `subcommand` with each overlay laid over it in
    turn, every value then checked against its key's rule.

    A key the default lacks is rejected, at the top level and in every nested
    dict that is merged, so a misspelled key cannot leave the default silently
    in force. Nested dicts are merged key by key, so a partial nested overlay
    keeps the default's other fields, except that a dict whose `kind` differs
    from the default's (a target of another kind) replaces it whole, so no
    field of the old kind lingers. A value that breaks its rule is a
    ConfigError naming the key. The values stay plain JSON; a number whose
    rule reads a float becomes one, and so still compares equal.
    """
    cfg = default_config(subcommand)
    for user in overlays:
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _merge(cfg, user, subcommand, "")
    _check(cfg, subcommand)
    return cfg


def _merge(base: dict, user: dict, subcommand: str, prefix: str) -> None:
    unknown = sorted(prefix + key for key in set(user) - set(base))
    if unknown:
        raise ConfigError(f"unknown {subcommand} config keys {unknown}; see --print-config")
    for key, value in user.items():
        old = base[key]
        mergeable = isinstance(value, dict) and isinstance(old, dict)
        if mergeable and value.get("kind", old.get("kind")) == old.get("kind"):
            _merge(old, value, subcommand, f"{prefix}{key}.")
        else:
            base[key] = value


# The fields each target kind reads, besides `kind`.
_TARGET_FIELDS = {"linear": {"a", "b"}, "quadratic": {"q", "a", "b"}, "sinusoidal": {"u", "phase"}}


def target_from_config(spec: dict) -> TargetFunction:
    """The target a spec describes; an unknown kind, a missing or malformed
    field, or a field its kind does not read is a ConfigError."""
    if not isinstance(spec, dict):
        raise ConfigError(f"target spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _TARGET_FIELDS:
        raise ConfigError(f"unknown target kind {spec!r}")
    extra = sorted(set(spec) - _TARGET_FIELDS[kind] - {"kind"})
    if extra:
        allowed = sorted(_TARGET_FIELDS[kind])
        raise ConfigError(f"{kind} target has fields {extra} it does not read; allowed: {allowed}")
    try:
        if kind == "linear":
            return LinearTarget(a=np.asarray(spec["a"], dtype=float), b=float(spec.get("b", 0.0)))
        if kind == "quadratic":
            return QuadraticTarget(
                q=np.asarray(spec["q"], dtype=float),
                a=np.asarray(spec["a"], dtype=float),
                b=float(spec.get("b", 0.0)),
            )
        return SinusoidalTarget(u=np.asarray(spec["u"], dtype=float), phase=float(spec.get("phase", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} target spec {spec!r}") from exc


def delta_from_config(spec: dict) -> TikhonovConfig:
    """A delta spec as a TikhonovConfig; a missing field, a non-numeric or
    non-positive value or an unknown mode is a ConfigError."""
    try:
        return TikhonovConfig(delta=float(spec["value"]), mode=spec["mode"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed delta spec {spec!r}: {exc}") from exc


def _is_int(v, lo: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_real(v, lo: float = -math.inf, strict: bool = False) -> bool:
    """Whether `v` is a finite JSON number >= `lo`, or > `lo` if `strict`."""
    try:
        return not isinstance(v, bool) and math.isfinite(v) and (v > lo if strict else v >= lo)
    except (TypeError, OverflowError):
        return False


def _is_list(v, ok, length: int | None = None) -> bool:
    return isinstance(v, list) and (length is None or len(v) == length) and all(map(ok, v))


def _is_points(v, d: int) -> bool:
    return _is_list(v, lambda p: d > 0 and _is_list(p, _is_real, d)) and len(v) > 0


def _target_dims(spec) -> set[int]:
    """The lengths of the vectors of the target a spec builds."""
    return {x.shape[0] for x in vars(target_from_config(spec)).values() if isinstance(x, np.ndarray)}


def _floats(v):
    """A number, or lists of numbers, read as floats; null stays null."""
    if v is None:
        return None
    return [_floats(x) for x in v] if isinstance(v, list) else float(v)


# Each key's rule: what its value must be (`{d}` is the input dimension), a
# test of the value, and optionally how the runners read it.
_NATURAL = ("an integer >= 0", lambda v, d: _is_int(v, 0))
_COUNT = ("an integer >= 1", lambda v, d: _is_int(v, 1))
_POSITIVE = ("a finite number > 0", lambda v, d: _is_real(v, 0.0, strict=True), _floats)
_NONNEGATIVE = ("a finite number >= 0", lambda v, d: _is_real(v, 0.0), _floats)
_INTERVAL = ("[lo, hi] of finite numbers with lo < hi", lambda v, d: _is_list(v, _is_real, 2) and v[0] < v[1], _floats)
_BOOL = ("true or false", lambda v, d: isinstance(v, bool))

RULES = {
    "name": ("a string", lambda v, d: isinstance(v, str)),
    "out": ("null or a string", lambda v, d: v is None or isinstance(v, str)),
    "seed": _NATURAL,
    "features_seed": ("null or an integer >= 0", lambda v, d: v is None or _is_int(v, 0)),
    "eval_points_seed": _NATURAL,
    **dict.fromkeys(
        ["d", "n", "threads", "k_features", "kappa_mc_features", "diag_k_features", "kappa_k_features",
         "profile_points", "sigma_instances", "probes", "pairs_per_dim",
         "diag_points_per_dim", "kappa_directions", "eval_points"],
        _COUNT),
    **dict.fromkeys(["n_list", "pair_dims", "widths"],
                    ("a list of integers >= 1", lambda v, d: _is_list(v, lambda x: _is_int(x, 1)))),
    "degmax": ("an integer >= 2", lambda v, d: _is_int(v, 2)),
    "stencil_max_order": (f"an integer from 1 to {PASCAL_MAX_ORDER}",
                          lambda v, d: _is_int(v, 1) and v <= PASCAL_MAX_ORDER),
    **dict.fromkeys(["n_directions", "equivalence_points", "max_steps"], _NATURAL),
    # The cells square t (inverse-check's relative deltas, gram-limit's error),
    # so a t whose square overflows would fail them one by one.
    "t_list": ("a list of numbers > 0 whose squares are finite",
               lambda v, d: _is_list(v, lambda x: _is_real(x, 0.0, strict=True) and _is_real(float(x) * float(x))),
               _floats),
    "radius": _POSITIVE,
    "eval_box": _POSITIVE,
    "t": _NONNEGATIVE,
    "kappa_list": ("a list of finite numbers >= 0", lambda v, d: _is_list(v, lambda x: _is_real(x, 0.0)), _floats),
    "loss_target_ratio": _NONNEGATIVE,
    "box": _INTERVAL,
    "window": _INTERVAL,
    "v_phi": ("a nonzero list of {d} finite numbers", lambda v, d: _is_list(v, _is_real, d) and any(v), _floats),
    "points": ("null or a non-empty list of points of {d} finite numbers",
               lambda v, d: v is None or _is_points(v, d), _floats),
    "bias_sensitivity.points": ("a non-empty list of points of one length", lambda v, d: _is_points(v, d), _floats),
    "mode": ("'analytic' or 'mc'", lambda v, d: v in ("analytic", "mc")),
    "include_shift_direction": _BOOL,
    # A direction orthogonal to the shift exists only for d >= 2.
    "include_orthogonal": ("true or false, and false when d = 1",
                           lambda v, d: isinstance(v, bool) and not (v and d == 1)),
    # A spec that does not build raises a ConfigError naming its flaw.
    "target": ("a target spec on {d} inputs", lambda v, d: _target_dims(v) == {d}),
    "delta": ("a delta spec", lambda v, d: delta_from_config(v) is not None),
    "delta_list": ("a list of delta specs", lambda v, d: _is_list(v, delta_from_config)),
    "bias_sensitivity": ("an object", lambda v, d: isinstance(v, dict)),
}


def _check(cfg: dict, subcommand: str, path: str = "") -> None:
    """Check each value against its key's rule and store it as the runners
    read it. The defaults list `d` before the `points` and `v_phi` checked
    against it; a dict without `d` takes it from its first point."""
    if "d" in cfg:
        d = cfg["d"]
    else:
        pts = cfg.get("points")
        d = len(pts[0]) if isinstance(pts, list) and pts and isinstance(pts[0], list) else 0
    for key, value in cfg.items():
        want, ok, *read = RULES.get(path + key) or RULES[key]
        try:
            good = ok(value, d)
        except ConfigError as exc:
            raise ConfigError(f"{subcommand} {path}{key}: {exc}") from exc
        if not good:
            raise ConfigError(f"{subcommand} {path}{key} must be {want.format(d=d)}, got {value!r}")
        if key == "bias_sensitivity":
            _check(value, subcommand, f"{key}.")
        cfg[key] = read[0](value) if read else value
