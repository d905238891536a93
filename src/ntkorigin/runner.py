"""Experiment orchestration: deterministic sweeps and CSV reports.

Each subcommand maps a scenario configuration to a list of cells, each the
columns its failure stub keeps and a thunk returning the cell's records, dicts
from column name to value. One executor runs the cells of every subcommand on
`threads` workers in sweep order, appends the summary records derived from the
ok ones, fills `scenario` from the config's name and lays each record out in
its header's order, a column it does not name left empty. A cell that raises
gives one stub record instead, its key and `error:<ExceptionName>`, and the
sweep continues. A run's failures are its rows whose status starts with
`error:`, stubs and failed checks alike. Floats are serialized with 17
significant digits, so a rerun of the same configuration produces a
byte-identical file at any thread count. Timing never enters the CSV for the
same reason; the CLI logs it to stderr instead.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from . import calculus, gram, kernel, limits, mlp, regression
from .configs import delta_from_config, overlay_config, target_from_config
from .errors import BoundaryTooClose, ConfigError
from .geometry import Direction, TargetFunction, shift_set


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_csv(header, rows))


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def realization_from_config(cfg: dict, rng: np.random.Generator) -> np.ndarray:
    """The (n, d) training inputs: the config's `points`, or n uniform draws from its box."""
    if cfg["points"] is not None:
        return np.array(cfg["points"], dtype=np.float64)
    lo, hi = cfg["box"]
    return rng.uniform(lo, hi, size=(cfg["n"], cfg["d"]))


def evaluation_directions(cfg: dict, rng: np.random.Generator) -> list[tuple[str, Direction, bool]]:
    """Deterministic direction set: random units, the shift direction, one orthogonal."""
    d = cfg["d"]
    out: list[tuple[str, Direction, bool]] = []
    for i in range(cfg["n_directions"]):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        out.append((f"rand{i}", Direction(v), False))
    v_phi = np.asarray(cfg["v_phi"])
    if cfg.get("include_shift_direction", False):
        out.append(("vphi", Direction(v_phi / np.linalg.norm(v_phi)), False))
    if cfg.get("include_orthogonal", False):
        if d == 2:
            orth = np.array([-v_phi[1], v_phi[0]])
        else:
            probe = rng.standard_normal(d)
            orth = probe - (probe @ v_phi) / (v_phi @ v_phi) * v_phi
        out.append(("orth", Direction(orth / np.linalg.norm(orth)), True))
    return out


def _map_cells(fn: Callable, cells: list, threads: int) -> list:
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


@dataclass
class RunResult:
    header: list[str]
    rows: list[list]
    failures: int = 0

    def csv(self) -> str:
        return render_csv(self.header, self.rows)


@dataclass(frozen=True)
class Cell:
    """One isolated unit of a sweep: the columns its failure stub keeps, and a thunk returning its records."""

    key: dict
    rows: Callable[[], list[dict]]


def _guard(cell: Cell) -> list[dict]:
    """Run one cell; on error emit a single stub record with the exception name."""
    try:
        return cell.rows()
    except Exception as exc:  # cell isolation is the contract here
        return [{**cell.key, "status": f"error:{type(exc).__name__}"}]


def _execute(header: list[str], cells: list[Cell], cfg: dict,
             extra: Callable[[list[dict]], list[dict]] = lambda records: []) -> RunResult:
    """Run the cells on `threads` workers in sweep order, append the summary
    records `extra` derives from the ok ones, and lay every record out in the
    header's order under the config's `scenario` name. A record naming a
    column outside the header is a programming error and raises KeyError."""
    per_cell = _map_cells(_guard, cells, cfg["threads"])
    records = [rec for got in per_cell for rec in got]
    records.extend(extra([rec for rec in records if rec["status"] == "ok"]))
    unknown = set().union(*records) - set(header)
    if unknown:
        raise KeyError(f"columns {sorted(unknown)} are not in the header {header}")
    rows = [[cfg["name"] if col == "scenario" else rec.get(col) for col in header] for rec in records]
    return RunResult(header, rows, sum(rec["status"].startswith("error:") for rec in records))


def _scenario(cfg: dict) -> tuple[np.random.Generator, np.ndarray, TargetFunction, Direction]:
    """Generator (after drawing the realization), realization, target and shift direction."""
    rng = np.random.default_rng(cfg["seed"])
    phi = realization_from_config(cfg, rng)
    return rng, phi, target_from_config(cfg["target"]), Direction(cfg["v_phi"])


THEOREM1_HEADER = [
    "scenario", "t", "delta", "direction", "orthogonal", "status",
    "c0", "c1", "c2", "c3", "c4", "ratio32", "ratio42", "classification",
    "kappa", "gram_limit_error", "agnosticism_rate", "equivalence_dev",
]


def run_theorem1(cfg: dict) -> RunResult:
    rng, phi, g, v_phi = _scenario(cfg)
    directions = evaluation_directions(cfg, rng)
    delta_cfg = delta_from_config(cfg["delta"])
    mc = cfg["mode"] == "mc"
    fs = kernel.sample_features(cfg["d"], cfg["k_features"], cfg["seed"] + 1) if mc else None
    mode = kernel.MonteCarlo(fs) if mc else kernel.ANALYTIC
    kappa_val = kernel.kappa(v_phi, mode).value
    kap_ana = kernel.kappa(v_phi, kernel.ANALYTIC).value
    origin = np.zeros(cfg["d"])
    radius, m, degmax = cfg["radius"], cfg["profile_points"], cfg["degmax"]

    def cell_rows(t: float) -> list[dict]:
        ts = shift_set(phi, v_phi, t, g)
        km = gram.assemble_gram(ts, mode)
        alpha = gram.tikhonov_solve(km, delta_cfg, ts.labels)
        predictor = regression.PointWisePredictor(training=ts, alpha=alpha)
        limit_err = float(np.abs(km.entries / t**2 - kap_ana).max())
        rate = kernel.agnosticism_rate(ts, fs) if mc else None
        common = {"t": t, "delta": alpha.delta, "status": "ok", "kappa": kappa_val,
                  "gram_limit_error": limit_err, "agnosticism_rate": rate}
        out = []
        for name, vdir, is_orth in directions:
            prof = calculus.fit_profile(
                lambda xs: regression.predict(predictor, xs), origin, vdir, radius, m, degmax
            )
            cls = calculus.classify(prof)
            out.append({**common, "direction": name, "orthogonal": is_orth,
                        **{f"c{j}": c for j, c in enumerate(prof.coefficients[:5])},
                        "ratio32": cls.ratio32, "ratio42": cls.ratio42, "classification": cls.label})
        if mc:
            beta = regression.beta_from_alpha(ts, alpha)
            eq_rng = np.random.default_rng(cfg["seed"] + 2)
            xs = eq_rng.uniform(-2.0, 2.0, (cfg["equivalence_points"], cfg["d"]))
            fp = regression.predict(predictor, xs)
            ff = regression.predict(beta, xs)
            dev = float(np.max(np.abs(fp - ff) / (1.0 + np.abs(fp)), initial=0.0))
            out.append({**common, "direction": "equivalence", "orthogonal": False, "equivalence_dev": dev})
        return out

    cells = [Cell({"t": t, "direction": "all"}, partial(cell_rows, t)) for t in cfg["t_list"]]
    return _execute(THEOREM1_HEADER, cells, cfg)


FARFIELD_HEADER = [
    "scenario", "center", "radius", "direction", "status",
    "c0", "c1", "c2", "c3", "c4", "ratio21", "classification",
]


def run_farfield(cfg: dict) -> RunResult:
    rng, phi, g, v_phi = _scenario(cfg)
    directions = evaluation_directions(cfg, rng)
    delta_cfg = delta_from_config(cfg["delta"])
    ts = shift_set(phi, v_phi, 0.0, g)
    km = gram.assemble_gram(ts, kernel.ANALYTIC)
    alpha = gram.tikhonov_solve(km, delta_cfg, ts.labels)
    predictor = regression.PointWisePredictor(training=ts, alpha=alpha)
    lo, hi = cfg["window"]
    center, radius = (lo + hi) / 2.0, (hi - lo) / 2.0
    m, degmax = cfg["profile_points"], cfg["degmax"]

    def cell_rows(name: str, vdir: Direction) -> list[dict]:
        base = center * vdir.coords
        prof = calculus.fit_profile(
            lambda xs: regression.predict(predictor, xs), base, vdir, radius, m, degmax
        )
        cls = calculus.classify(prof)
        mags = np.abs(prof.normalized)
        ratio21 = float(mags[2]) / max(float(mags[1]), 1e-10)
        return [{"center": center, "radius": radius, "direction": name, "status": "ok",
                 **{f"c{j}": c for j, c in enumerate(prof.coefficients[:5])},
                 "ratio21": ratio21, "classification": cls.label}]

    cells = [Cell({"center": center, "radius": radius, "direction": name}, partial(cell_rows, name, vdir))
             for name, vdir, _ in directions]
    return _execute(FARFIELD_HEADER, cells, cfg)


GRAM_LIMIT_HEADER = [
    "scenario", "t", "status", "kappa_analytic", "kappa_mc", "kappa_se",
    "gram_limit_error", "normalized_error", "agnosticism_rate", "decay_exponent",
]


def run_gram_limit(cfg: dict) -> RunResult:
    _, phi, g, v_phi = _scenario(cfg)
    fseed = cfg["seed"] + 1 if cfg["features_seed"] is None else cfg["features_seed"]
    kap_ana = kernel.kappa(v_phi, kernel.ANALYTIC).value
    kap_mc = kernel.diagonal(-v_phi.augmented(), cfg["kappa_mc_features"], cfg["seed"] + 2)
    # Drawn after the kappa estimate, so the sample and its contributions are never held together.
    fs = kernel.sample_features(cfg["d"], cfg["k_features"], fseed)
    kappas = {"kappa_analytic": kap_ana, "kappa_mc": kap_mc.value, "kappa_se": kap_mc.std_error}

    def cell_rows(t: float) -> list[dict]:
        ts = shift_set(phi, v_phi, t, g)
        km = gram.assemble_gram(ts, kernel.ANALYTIC)
        err = float(np.abs(km.entries / t**2 - kap_ana).max())
        rate = kernel.agnosticism_rate(ts, fs)
        return [{"t": t, "status": "ok", **kappas, "gram_limit_error": err, "normalized_error": err / kap_ana,
                 "agnosticism_rate": rate}]

    def fit_row(ok: list[dict]) -> list[dict]:
        if len(ok) < 2:
            return []
        ts_arr, er_arr = np.array([[rec["t"], rec["gram_limit_error"]] for rec in ok]).T
        slope = float(np.polyfit(np.log(ts_arr), np.log(er_arr), 1)[0])
        return [{"t": "fit", "status": "ok", **kappas, "decay_exponent": slope}]

    cells = [Cell({"t": t}, partial(cell_rows, t)) for t in cfg["t_list"]]
    return _execute(GRAM_LIMIT_HEADER, cells, cfg, fit_row)


INVERSE_CHECK_HEADER = [
    "scenario", "check", "n", "kappa", "t", "delta_mode", "delta", "status", "residual", "detail",
]


# An identity or alpha residual at or above this bound fails its row. C01 and
# C02 read the same bound.
CLOSED_FORM_RESIDUAL_BOUND = 1e-8


def run_inverse_check(cfg: dict) -> RunResult:
    rng = np.random.default_rng(cfg["seed"])

    def resolve(dcfg, kap, t) -> float:
        # A relative delta is (delta kappa) t**2, a kappa t**2 of its own. It
        # is resolved inside each cell under the closed forms' overflow rule,
        # so one that overflows fails only its cell, with InvalidInput.
        if dcfg.mode == "absolute":
            return dcfg.delta
        scale = dcfg.delta * kap
        return scale * limits._t_squared(scale, t)

    def rank_one_cell(key, n, kap, t, dcfg, labels) -> list[dict]:
        delta = resolve(dcfg, kap, t)
        if kap == 0.0:
            # Degenerate rank-one block: the closed forms reduce to plain
            # scaled identities, nothing left to validate.
            return [{**key, "delta": delta, "status": "skipped:degenerate"}]
        if key["check"] == "identity":
            ld = np.longdouble
            inv = limits.sherman_morrison_inverse(n, kap, t, delta)
            direct = ld(kap) * ld(t) ** 2 * np.ones((n, n), dtype=ld) + ld(delta) * np.eye(n, dtype=ld)
            resid = float(np.abs(inv @ direct - np.eye(n, dtype=ld)).max())
            failure = "error:IdentityResidual"
        else:
            closed = limits.asymptotic_alpha(labels, n, kap, t, delta)
            solved = gram.tikhonov_solve(limits.asymptotic_gram(n, kap, t),
                                         gram.TikhonovConfig(delta=delta, mode="absolute"), labels, extended=True)
            scale = float(np.abs(closed.values).max())
            resid = float(np.abs(closed.values - solved.values).max()) / scale if scale else 0.0
            failure = "error:AlphaResidual"
        status = "ok" if resid < CLOSED_FORM_RESIDUAL_BOUND else failure
        return [{**key, "delta": delta, "status": status, "residual": resid}]

    lem = cfg["bias_sensitivity"]
    lem_delta = delta_from_config(lem["delta"])
    delta_list = [delta_from_config(spec) for spec in cfg["delta_list"]]
    cells: list[Cell] = []
    for n, kap, t, dcfg in product(cfg["n_list"], cfg["kappa_list"], cfg["t_list"], delta_list):
        labels = rng.standard_normal(n)
        for check_name in ("identity", "alpha"):
            key = {"check": check_name, "n": n, "kappa": kap, "t": t, "delta_mode": dcfg.mode}
            cells.append(Cell(key, partial(rank_one_cell, key, n, kap, t, dcfg, labels)))

    def pascal_cell(key) -> list[dict]:
        zmax = cfg["stencil_max_order"]
        bad = [z for z in range(1, zmax + 1) if not calculus.pascal_shift_identity(z)]
        return [{**key, "status": "ok" if not bad else "error:ShiftIdentity", "residual": float(len(bad)),
                 "detail": f"z<={zmax}"}]

    def sigma_cell(key) -> list[dict]:
        srng = np.random.default_rng(cfg["seed"] + 10)
        worst = 0.0
        for _ in range(cfg["sigma_instances"]):
            z = int(srng.integers(1, 7))
            d = int(srng.integers(1, 5))
            x0 = np.append(srng.uniform(-3, 3, d), 1.0)
            v = Direction(srng.standard_normal(d))
            h = float(srng.uniform(0.05, 2.0))
            bits = srng.integers(0, 2, z + 1)
            scale = max(1.0, float(np.abs(x0).max()) * (1 + z * abs(h) * v.norm))
            worst = max(worst, calculus.sigma_identity_check(x0, v, h, bits, z) / scale)
        return [{**key, "status": "ok", "residual": worst, "detail": f"instances={cfg['sigma_instances']}"}]

    def monomial_cell(key) -> list[dict]:
        worst = 0.0
        for z in range(1, 5):
            for p in range(0, z + 1):
                fnc = lambda xs, p=p: xs[:, 0] ** p
                est = calculus.directional_derivative(fnc, np.array([0.5]), Direction([1.0]), z, h=0.5)
                truth = math.factorial(z) if p == z else 0.0
                worst = max(worst, abs(est - truth))
        return [{**key, "status": "ok", "residual": worst, "detail": "z<=4"}]

    for check_name, fn in (("pascal_shift", pascal_cell), ("sigma_identity", sigma_cell),
                           ("stencil_monomial", monomial_cell)):
        key = {"check": check_name}
        cells.append(Cell(key, partial(fn, key)))

    lem_points = np.array(lem["points"], dtype=np.float64)
    lem_v = Direction(lem["v_phi"])
    lem_g = target_from_config(lem["target"])
    kap = kernel.kappa(lem_v, kernel.ANALYTIC).value
    # Written by the sensitivity cells, one key each, and read only after all
    # of them have run, so worker threads never contend for an entry.
    sens_cells: dict[float, float] = {}

    def sensitivity_cell(key: dict, t: float) -> list[dict]:
        delta = resolve(lem_delta, kap, t)
        ctx = limits.closed_form_context(shift_set(lem_points, lem_v, t, lem_g), kappa=kap, delta=delta)
        wrng = np.random.default_rng(cfg["seed"] + 20)
        worst = worst_b1 = 0.0
        probes = 0
        measured_active: list[float] = []
        while probes < lem["probes"]:
            w = wrng.standard_normal(lem_points.shape[1] + 1)
            try:
                fd, b1_fd = limits.bias_slopes(ctx, w)
            except BoundaryTooClose:
                continue
            probes += 1
            expected = ctx.law if ctx.active(w) else 0.0
            if expected != 0.0:
                worst = max(worst, abs(fd - expected) / abs(expected))
                measured_active.append(fd)
            else:
                worst = max(worst, abs(fd))
            worst_b1 = max(worst_b1, b1_fd)
        if measured_active and ctx.g_sum:
            sens_cells[t] = float(np.mean(measured_active)) / ctx.g_sum
        row = {**key, "delta": delta, "status": "ok"}
        return [{**row, "residual": worst}, {**row, "check": "beta1_sensitivity", "residual": worst_b1}]

    for t in lem["t_list"]:
        key = {"check": "beta2_sensitivity", "n": len(lem_points), "kappa": kap, "t": t, "delta_mode": lem_delta.mode}
        cells.append(Cell(key, partial(sensitivity_cell, key, t)))

    def scaling_row(ok: list[dict]) -> list[dict]:
        if len(sens_cells) < 2:
            return []
        t0, t1 = sorted(sens_cells)[:2]
        ratio = sens_cells[t0] / sens_cells[t1]
        expected = (t1 / t0) ** 2
        return [{"check": "beta2_scaling", "n": len(lem_points), "kappa": kap, "delta_mode": lem_delta.mode,
                 "status": "ok", "residual": abs(ratio / expected - 1.0), "detail": f"t={t0:g}->{t1:g}"}]

    return _execute(INVERSE_CHECK_HEADER, cells, cfg, scaling_row)


KAPPA_HEADER = [
    "scenario", "check", "d", "item", "status", "analytic", "estimate", "std_error", "abs_diff", "within_4se",
]


def run_kappa(cfg: dict) -> RunResult:
    seed = cfg["seed"]

    def oracle_row(check: str, d, item: str, ana: float, est: kernel.KernelEstimate) -> dict:
        diff = abs(est.value - ana)
        return {"check": check, "d": d, "item": item, "status": "ok", "analytic": ana, "estimate": est.value,
                "std_error": est.std_error, "abs_diff": diff, "within_4se": diff <= 4 * est.std_error}

    def pair_cells(d) -> list[dict]:
        fs = kernel.sample_features(d, cfg["k_features"], seed + d)
        prng = np.random.default_rng(seed + 100 + d)
        out = []
        for i in range(cfg["pairs_per_dim"]):
            x = np.append(prng.uniform(-2, 2, d), 1.0)
            y = np.append(prng.uniform(-2, 2, d), 1.0)
            est = kernel.ntk(x, y, kernel.MonteCarlo(fs))
            out.append(oracle_row("pair", d, f"pair{i}", kernel.ntk(x, y, kernel.ANALYTIC).value, est))
        return out

    def diag_cells(d) -> list[dict]:
        prng = np.random.default_rng(seed + 200 + d)
        out = []
        for i in range(cfg["diag_points_per_dim"]):
            x = np.append(prng.uniform(-2, 2, d), 1.0)
            dseed = seed + 300 + d * 17 + i
            est = kernel.diagonal(x, cfg["diag_k_features"], dseed).value
            ana = float(x @ x)
            out.append({"check": "diag", "d": d, "item": f"x{i}", "status": "ok", "analytic": ana, "estimate": est,
                        "abs_diff": abs(est - ana) / ana, "within_4se": abs(est - ana) <= 1e-3 * ana})
        return out

    def kappa_cells() -> list[dict]:
        out = []
        for i in range(cfg["kappa_directions"]):
            d = 2 + (i % 2)
            vrng = np.random.default_rng(seed + 400 + i)
            v = Direction(vrng.standard_normal(d) * 2.0)
            est = kernel.diagonal(-v.augmented(), cfg["kappa_k_features"], seed + 500 + i)
            out.append(oracle_row("kappa", d, f"v{i}", kernel.kappa(v, kernel.ANALYTIC).value, est))
        return out

    homogeneity = {"check": "homogeneity", "d": 2, "item": "v=(3,4)"}

    def homogeneity_cell() -> list[dict]:
        v = Direction([3.0, 4.0])
        unit = Direction([0.6, 0.8])
        big = kernel.kappa(v, kernel.ANALYTIC).value
        small = kernel.kappa(unit, kernel.ANALYTIC).value
        exact = big == 25.0 * small
        return [{**homogeneity, "status": "ok", "analytic": 25.0 * small, "estimate": big,
                 "abs_diff": abs(big - 25.0 * small), "within_4se": exact}]

    cells = [Cell({"check": "pair", "d": d, "item": "all"}, partial(pair_cells, d)) for d in cfg["pair_dims"]]
    cells += [Cell({"check": "diag", "d": d, "item": "all"}, partial(diag_cells, d)) for d in cfg["pair_dims"]]
    cells.append(Cell({"check": "kappa", "item": "all"}, kappa_cells))
    cells.append(Cell(homogeneity, homogeneity_cell))
    return _execute(KAPPA_HEADER, cells, cfg)


MLP_HEADER = [
    "scenario", "width", "item", "status", "steps", "loss_initial", "loss_final",
    "loss_ratio", "displacement", "f_net", "f_kernel", "abs_dev", "tol",
]


def run_mlp_compare(cfg: dict) -> RunResult:
    d = cfg["d"]
    _, phi, g, v_phi = _scenario(cfg)
    ts = shift_set(phi, v_phi, cfg["t"], g)
    km = gram.assemble_gram(ts, kernel.ANALYTIC)
    alpha = gram.tikhonov_solve(km, delta_from_config(cfg["delta"]), ts.labels)
    predictor = regression.PointWisePredictor(training=ts, alpha=alpha)
    erng = np.random.default_rng(cfg["eval_points_seed"])
    box = cfg["eval_box"]
    eval_pts = erng.uniform(-box, box, (cfg["eval_points"], d))
    f_kernel = regression.predict(predictor, eval_pts)

    def width_cells(width) -> list[dict]:
        mc = mlp.MLPConfig(width=width, steps=cfg["max_steps"], seed=cfg["seed"])
        model0 = mlp.init_model(mc, d)
        f0 = mlp.evaluate_batch(model0, ts.shifted)
        loss0 = 0.5 * float(np.sum((f0 - ts.labels) ** 2))
        target = cfg["loss_target_ratio"] * loss0
        model, trace = mlp.train(model0, ts, mc, target_loss=target)
        disp = mlp.parameter_displacement(model0, model)
        out = [{"width": width, "item": "train", "status": "ok", "steps": len(trace) - 1,
                "loss_initial": trace[0], "loss_final": trace[-1],
                "loss_ratio": trace[-1] / trace[0] if trace[0] else 0.0, "displacement": disp}]
        for j, fk in enumerate(f_kernel.tolist()):
            # One row per call: a batched product sums the width in another
            # order, so its outputs can differ in their last bits.
            fn = float(mlp.evaluate_batch(model, eval_pts[j : j + 1])[0])
            tol = max(0.1 * abs(fk), 0.05)
            out.append({"width": width, "item": f"eval{j}", "status": "ok",
                        "f_net": fn, "f_kernel": fk, "abs_dev": abs(fn - fk), "tol": tol})
        return out

    def order_row(ok: list[dict]) -> list[dict]:
        displacements = {rec["width"]: rec["displacement"] for rec in ok if rec["item"] == "train"}
        if len(displacements) < 2:
            return []
        ws = sorted(displacements)
        ordered = displacements[ws[-1]] < displacements[ws[0]]
        return [{"item": "displacement_order", "status": "ok" if ordered else "error:DisplacementOrder"}]

    cells = [Cell({"width": width, "item": "train"}, partial(width_cells, width)) for width in cfg["widths"]]
    return _execute(MLP_HEADER, cells, cfg, order_row)


RUNNERS: dict[str, Callable[[dict], RunResult]] = {
    "theorem1": run_theorem1,
    "farfield": run_farfield,
    "gram-limit": run_gram_limit,
    "inverse-check": run_inverse_check,
    "kappa": run_kappa,
    "mlp-compare": run_mlp_compare,
}


def load_config(subcommand: str, path=None, seed_override=None, threads_override=None) -> dict:
    user = {}
    if path is not None:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    overrides = {"seed": seed_override, "threads": threads_override}
    return overlay_config(subcommand, user, {key: value for key, value in overrides.items() if value is not None})
