"""Packaged default scenario configurations, one per CLI subcommand.

Every default is a plain dict (the JSON schema) so that dumping it, editing a
field and feeding it back through --config is the normal workflow.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

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
    "diag_chunk": 1000000,
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


def overlay_config(subcommand: str, user: dict) -> dict:
    """The default config of `subcommand` with `user` laid over it.

    A key the default lacks is rejected, at the top level and in every nested
    dict that is merged, so a misspelled key cannot leave the default silently
    in force. Nested dicts are merged key by key, so a partial nested overlay
    keeps the default's other fields, except that a dict whose `kind` differs
    from the default's (a target of another kind) replaces it whole, so no
    field of the old kind lingers.
    """
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = default_config(subcommand)
    _merge(cfg, user, subcommand, "")
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
