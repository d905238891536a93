"""Experiment orchestration: deterministic sweeps and CSV reports.

Each subcommand maps a scenario configuration to a list of report rows.
Failures are contained per cell: a failing cell contributes a row whose status
column names the exception, and the sweep continues. Rows are emitted in a
fixed order and floats are serialized with 17 significant digits, so a rerun
of the same configuration produces a byte-identical file. Timing never enters
the CSV for the same reason; the CLI logs it to stderr instead.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import calculus, gram, kernel, mlp, regression
from .configs import default_config
from .errors import ConfigError, NtkOriginError
from .geometry import (
    Direction,
    LinearTarget,
    Point,
    QuadraticTarget,
    Realization,
    SinusoidalTarget,
    TargetFunction,
    augment,
    shift_set,
)


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
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def target_from_config(spec: dict) -> TargetFunction:
    kind = spec.get("kind")
    if kind == "linear":
        return LinearTarget(a=np.asarray(spec["a"], dtype=float), b=float(spec.get("b", 0.0)))
    if kind == "quadratic":
        return QuadraticTarget(
            q=np.asarray(spec["q"], dtype=float),
            a=np.asarray(spec["a"], dtype=float),
            b=float(spec.get("b", 0.0)),
        )
    if kind == "sinusoidal":
        return SinusoidalTarget(u=np.asarray(spec["u"], dtype=float), phase=float(spec.get("phase", 0.0)))
    raise ConfigError(f"unknown target kind {spec!r}")


def delta_from_config(spec: dict) -> gram.TikhonovConfig:
    try:
        return gram.TikhonovConfig(delta=float(spec["value"]), mode=spec["mode"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed delta spec {spec!r}") from exc


def realization_from_config(cfg: dict, rng: np.random.Generator) -> Realization:
    if cfg.get("points") is not None:
        pts = [Point(np.asarray(p, dtype=float)) for p in cfg["points"]]
        return Realization(tuple(pts))
    lo, hi = cfg["box"]
    draws = rng.uniform(lo, hi, size=(int(cfg["n"]), int(cfg["d"])))
    return Realization(tuple(Point(row) for row in draws))


def evaluation_directions(cfg: dict, rng: np.random.Generator) -> list[tuple[str, Direction, bool]]:
    """Deterministic direction set: random units, the shift direction, one orthogonal."""
    d = int(cfg["d"])
    out: list[tuple[str, Direction, bool]] = []
    for i in range(int(cfg.get("n_directions", 0))):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        out.append((f"rand{i}", Direction(v), False))
    v_phi = np.asarray(cfg["v_phi"], dtype=float)
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


def _guard(row_prefix: list, columns: int, fn: Callable[[], list[list]]) -> tuple[list[list], int]:
    """Run one cell; on error emit a single stub row with the exception name."""
    try:
        return fn(), 0
    except Exception as exc:  # cell isolation is the contract here
        stub = row_prefix + [f"error:{type(exc).__name__}"] + [None] * columns
        return [stub], 1


THEOREM1_HEADER = [
    "scenario", "t", "delta", "direction", "orthogonal", "status",
    "c0", "c1", "c2", "c3", "c4", "ratio32", "ratio42", "classification",
    "kappa", "gram_limit_error", "agnosticism_rate", "equivalence_dev",
]


def run_theorem1(cfg: dict) -> RunResult:
    rng = np.random.default_rng(int(cfg["seed"]))
    phi = realization_from_config(cfg, rng)
    directions = evaluation_directions(cfg, rng)
    g = target_from_config(cfg["target"])
    v_phi = Direction(np.asarray(cfg["v_phi"], dtype=float))
    delta_cfg = delta_from_config(cfg["delta"])
    mc = cfg.get("mode", "analytic") == "mc"
    fs = kernel.sample_features(int(cfg["d"]), int(cfg["k_features"]), int(cfg["seed"]) + 1) if mc else None
    mode = kernel.MonteCarlo(fs) if mc else kernel.ANALYTIC
    kappa_val = kernel.kappa(v_phi, mode).value
    origin = Point(np.zeros(int(cfg["d"])))
    radius = float(cfg["radius"])
    m = int(cfg["profile_points"])
    degmax = int(cfg["degmax"])
    eq_rng_seed = int(cfg["seed"]) + 2

    def run_cell(t: float) -> tuple[list[list], int]:
        def cell_rows() -> list[list]:
            ts = shift_set(phi, v_phi, t, g)
            km = gram.assemble_gram(ts, mode)
            delta = delta_cfg.resolve(km)
            alpha = gram.tikhonov_solve(km, delta_cfg, ts.labels)
            predictor = regression.PointWisePredictor(training=ts, alpha=alpha, mode=mode)
            kap_ana = v_phi.norm**2
            limit_err = float(np.abs(km.entries / t**2 - kap_ana).max())
            rate = kernel.agnosticism_rate(ts, fs) if mc else None
            out = []
            for name, vdir, is_orth in directions:
                prof = calculus.fit_profile(
                    lambda xs: regression.predict(predictor, xs), origin, vdir, radius, m, degmax
                )
                cls = calculus.classify(prof)
                out.append([
                    cfg["name"], t, delta, name, is_orth, "ok",
                    *prof.coefficients[:5], cls.ratio32, cls.ratio42, cls.label,
                    kappa_val, limit_err, rate, None,
                ])
            if mc:
                beta = regression.beta_from_alpha(ts, alpha, fs)
                fsp = regression.FeatureSpacePredictor(beta=beta)
                eq_rng = np.random.default_rng(eq_rng_seed)
                xs = eq_rng.uniform(-2.0, 2.0, (int(cfg.get("equivalence_points", 0)), int(cfg["d"])))
                fp = regression.predict(predictor, xs)
                ff = regression.predict(fsp, xs)
                dev = float(np.max(np.abs(fp - ff) / (1.0 + np.abs(fp)), initial=0.0))
                out.append([
                    cfg["name"], t, delta, "equivalence", False, "ok",
                    None, None, None, None, None, None, None, None,
                    kappa_val, limit_err, rate, dev,
                ])
            return out

        return _guard([cfg["name"], t, None, "all", None], len(THEOREM1_HEADER) - 6, cell_rows)

    results = _map_cells(run_cell, [float(t) for t in cfg["t_list"]], int(cfg.get("threads", 1)))
    rows: list[list] = []
    failures = 0
    for got, bad in results:
        rows.extend(got)
        failures += bad
    return RunResult(header=THEOREM1_HEADER, rows=rows, failures=failures)


FARFIELD_HEADER = [
    "scenario", "center", "radius", "direction", "status",
    "c0", "c1", "c2", "c3", "c4", "ratio21", "classification",
]


def run_farfield(cfg: dict) -> RunResult:
    rng = np.random.default_rng(int(cfg["seed"]))
    phi = realization_from_config(cfg, rng)
    directions = evaluation_directions(cfg, rng)
    g = target_from_config(cfg["target"])
    v_phi = Direction(np.asarray(cfg["v_phi"], dtype=float))
    delta_cfg = delta_from_config(cfg["delta"])
    ts = shift_set(phi, v_phi, 0.0, g)
    km = gram.assemble_gram(ts, kernel.ANALYTIC)
    alpha = gram.tikhonov_solve(km, delta_cfg, ts.labels)
    predictor = regression.PointWisePredictor(training=ts, alpha=alpha, mode=kernel.ANALYTIC)
    lo, hi = [float(x) for x in cfg["window"]]
    center, radius = (lo + hi) / 2.0, (hi - lo) / 2.0
    m = int(cfg["profile_points"])
    degmax = int(cfg["degmax"])

    def run_cell(item: tuple[str, Direction, bool]) -> tuple[list[list], int]:
        name, vdir, _ = item

        def cell_rows() -> list[list]:
            base = Point(center * vdir.coords)
            prof = calculus.fit_profile(
                lambda xs: regression.predict(predictor, xs), base, vdir, radius, m, degmax
            )
            cls = calculus.classify(prof)
            mags = np.abs(prof.normalized)
            ratio21 = float(mags[2]) / max(float(mags[1]), 1e-10)
            return [[cfg["name"], center, radius, name, "ok", *prof.coefficients[:5], ratio21, cls.label]]

        return _guard([cfg["name"], center, radius, name], len(FARFIELD_HEADER) - 5, cell_rows)

    results = _map_cells(run_cell, directions, int(cfg.get("threads", 1)))
    rows: list[list] = []
    failures = 0
    for got, bad in results:
        rows.extend(got)
        failures += bad
    return RunResult(header=FARFIELD_HEADER, rows=rows, failures=failures)


GRAM_LIMIT_HEADER = [
    "scenario", "t", "status", "kappa_analytic", "kappa_mc", "kappa_se",
    "gram_limit_error", "normalized_error", "agnosticism_rate", "decay_exponent",
]


def run_gram_limit(cfg: dict) -> RunResult:
    rng = np.random.default_rng(int(cfg["seed"]))
    phi = realization_from_config(cfg, rng)
    g = target_from_config(cfg["target"])
    v_phi = Direction(np.asarray(cfg["v_phi"], dtype=float))
    fseed = cfg.get("features_seed")
    fseed = int(cfg["seed"]) + 1 if fseed is None else int(fseed)
    fs = kernel.sample_features(int(cfg["d"]), int(cfg["k_features"]), fseed)
    fs_kappa = kernel.sample_features(int(cfg["d"]), int(cfg["kappa_mc_features"]), int(cfg["seed"]) + 2)
    kap_ana = v_phi.norm**2
    kap_mc = kernel.kappa(v_phi, kernel.MonteCarlo(fs_kappa))

    rows: list[list] = []
    failures = 0
    errors: list[tuple[float, float]] = []
    for t in [float(t) for t in cfg["t_list"]]:
        def cell_rows() -> list[list]:
            ts = shift_set(phi, v_phi, t, g)
            km = gram.assemble_gram(ts, kernel.ANALYTIC)
            err = float(np.abs(km.entries / t**2 - kap_ana).max())
            rate = kernel.agnosticism_rate(ts, fs)
            errors.append((t, err))
            return [[cfg["name"], t, "ok", kap_ana, kap_mc.value, kap_mc.std_error, err, err / kap_ana, rate, None]]

        got, bad = _guard([cfg["name"], t], len(GRAM_LIMIT_HEADER) - 3, cell_rows)
        rows.extend(got)
        failures += bad
    if len(errors) >= 2:
        ts_arr = np.array([t for t, _ in errors])
        er_arr = np.array([e for _, e in errors])
        slope = float(np.polyfit(np.log(ts_arr), np.log(er_arr), 1)[0])
        rows.append([cfg["name"], "fit", "ok", kap_ana, kap_mc.value, kap_mc.std_error, None, None, None, slope])
    return RunResult(header=GRAM_LIMIT_HEADER, rows=rows, failures=failures)


INVERSE_CHECK_HEADER = [
    "scenario", "check", "n", "kappa", "t", "delta_mode", "delta", "status", "residual", "detail",
]


def run_inverse_check(cfg: dict) -> RunResult:
    rows: list[list] = []
    failures = 0
    rng = np.random.default_rng(int(cfg["seed"]))

    for n in cfg["n_list"]:
        for kap in cfg["kappa_list"]:
            for t in cfg["t_list"]:
                for dspec in cfg["delta_list"]:
                    mean_diag = float(kap) * float(t) ** 2
                    delta = float(dspec["value"]) * (mean_diag if dspec["mode"] == "relative" else 1.0)
                    labels = rng.standard_normal(int(n))
                    if kap == 0.0:
                        # Degenerate rank-one block: the closed forms reduce to
                        # plain scaled identities, nothing left to validate.
                        rows.append([cfg["name"], "identity", n, kap, t, dspec["mode"], delta,
                                     "skipped:degenerate", None, None])
                        rows.append([cfg["name"], "alpha", n, kap, t, dspec["mode"], delta,
                                     "skipped:degenerate", None, None])
                        continue

                    def identity_cell(n=n, kap=kap, t=t, dspec=dspec, delta=delta) -> list[list]:
                        inv = gram.sherman_morrison_inverse(int(n), float(kap), float(t), delta, dtype=np.longdouble)
                        direct = np.longdouble(kap) * np.longdouble(t) ** 2 * np.ones(
                            (int(n), int(n)), dtype=np.longdouble
                        ) + np.longdouble(delta) * np.eye(int(n), dtype=np.longdouble)
                        resid = float(np.abs(inv @ direct - np.eye(int(n), dtype=np.longdouble)).max())
                        return [[cfg["name"], "identity", n, kap, t, dspec["mode"], delta, "ok", resid, None]]

                    def alpha_cell(n=n, kap=kap, t=t, dspec=dspec, delta=delta, labels=labels) -> list[list]:
                        closed = gram.asymptotic_alpha(labels, int(n), float(kap), float(t), delta)
                        solved = gram.tikhonov_solve(
                            gram.asymptotic_gram(int(n), float(kap), float(t)),
                            gram.TikhonovConfig(delta=delta, mode="absolute"),
                            labels,
                            extended=True,
                        )
                        scale = float(np.abs(closed.values).max())
                        dev = float(np.abs(closed.values - solved.values).max()) / scale if scale else 0.0
                        return [[cfg["name"], "alpha", n, kap, t, dspec["mode"], delta, "ok", dev, None]]

                    for check_name, fn in (("identity", identity_cell), ("alpha", alpha_cell)):
                        got, bad = _guard([cfg["name"], check_name, n, kap, t, dspec["mode"], delta], 2, fn)
                        rows.extend(got)
                        failures += bad

    def pascal_cell() -> list[list]:
        zmax = int(cfg["stencil_max_order"])
        bad = [z for z in range(1, zmax + 1) if not calculus.pascal_shift_identity(z)]
        return [[cfg["name"], "pascal_shift", None, None, None, None, None,
                 "ok" if not bad else "error:ShiftIdentity", float(len(bad)), f"z<={zmax}"]]

    got, bad = _guard([cfg["name"], "pascal_shift", None, None, None, None, None], 2, pascal_cell)
    rows.extend(got)
    failures += bad

    def sigma_cell() -> list[list]:
        srng = np.random.default_rng(int(cfg["seed"]) + 10)
        worst = 0.0
        for _ in range(int(cfg["sigma_instances"])):
            z = int(srng.integers(1, 7))
            d = int(srng.integers(1, 5))
            x0 = augment(srng.uniform(-3, 3, d))
            v = Direction(srng.standard_normal(d))
            h = float(srng.uniform(0.05, 2.0))
            bits = srng.integers(0, 2, z + 1)
            scale = max(1.0, float(np.abs(x0.coords).max()) * (1 + z * abs(h) * v.norm))
            worst = max(worst, calculus.sigma_identity_check(x0, v, h, bits, z) / scale)
        return [[cfg["name"], "sigma_identity", None, None, None, None, None, "ok", worst,
                 f"instances={cfg['sigma_instances']}"]]

    got, bad = _guard([cfg["name"], "sigma_identity", None, None, None, None, None], 2, sigma_cell)
    rows.extend(got)
    failures += bad

    def monomial_cell() -> list[list]:
        worst = 0.0
        for z in range(1, 5):
            for p in range(0, z + 1):
                fnc = lambda pt, p=p: float(pt.coords[0] ** p)
                est = calculus.directional_derivative(fnc, Point([0.5]), Direction([1.0]), z, h=0.5)
                truth = math.factorial(z) if p == z else 0.0
                worst = max(worst, abs(est.value - truth))
        return [[cfg["name"], "stencil_monomial", None, None, None, None, None, "ok", worst, "z<=4"]]

    got, bad = _guard([cfg["name"], "stencil_monomial", None, None, None, None, None], 2, monomial_cell)
    rows.extend(got)
    failures += bad

    lem = cfg["bias_sensitivity"]
    lem_phi = Realization(tuple(Point(np.asarray(p, dtype=float)) for p in lem["points"]))
    lem_v = Direction(np.asarray(lem["v_phi"], dtype=float))
    lem_g = target_from_config(lem["target"])
    kap = lem_v.norm**2
    sens_cells: dict[float, float] = {}
    for t in [float(x) for x in lem["t_list"]]:
        def sensitivity_cell(t=t) -> list[list]:
            ts = shift_set(lem_phi, lem_v, t, lem_g)
            delta = delta_from_config(lem["delta"]).delta * kap * t**2 if lem["delta"]["mode"] == "relative" else delta_from_config(lem["delta"]).delta
            ctx = regression.closed_form_context(ts, kappa=kap, delta=delta)
            law = regression.bias_sensitivity_limit(ctx)
            wrng = np.random.default_rng(int(cfg["seed"]) + 20)
            worst = 0.0
            worst_b1 = 0.0
            probes = 0
            measured_active: list[float] = []
            while probes < int(lem["probes"]):
                w = wrng.standard_normal(lem_phi.dim + 1)
                try:
                    fd = regression.beta_bias_sensitivity(ctx, w, lem_v)
                except NtkOriginError:
                    continue
                probes += 1
                expected = law if ctx.active(w) else 0.0
                if expected != 0.0:
                    worst = max(worst, abs(fd - expected) / abs(expected))
                    measured_active.append(fd)
                else:
                    worst = max(worst, abs(fd))
                h = 1e-4 * (1.0 + abs(w[-1]))
                up, dn = w.copy(), w.copy()
                up[-1] += h
                dn[-1] -= h
                b1_fd = float(np.abs(ctx.beta1_at(up) - ctx.beta1_at(dn)).max()) / (2 * h)
                worst_b1 = max(worst_b1, b1_fd)
            if measured_active and ctx.g_sum:
                sens_cells[t] = float(np.mean(measured_active)) / ctx.g_sum
            return [
                [cfg["name"], "beta2_sensitivity", lem["n"], kap, t, lem["delta"]["mode"], delta, "ok", worst, None],
                [cfg["name"], "beta1_sensitivity", lem["n"], kap, t, lem["delta"]["mode"], delta, "ok", worst_b1, None],
            ]

        got, bad = _guard([cfg["name"], "beta2_sensitivity", lem["n"], kap, t, lem["delta"]["mode"], None], 2, sensitivity_cell)
        rows.extend(got)
        failures += bad

    if len(sens_cells) >= 2:
        t_sorted = sorted(sens_cells)
        t0, t1 = t_sorted[0], t_sorted[1]
        ratio = sens_cells[t0] / sens_cells[t1]
        expected = (t1 / t0) ** 2
        rows.append([
            cfg["name"], "beta2_scaling", lem["n"], kap, None, lem["delta"]["mode"], None, "ok",
            abs(ratio / expected - 1.0), f"t={t0:g}->{t1:g}",
        ])
    return RunResult(header=INVERSE_CHECK_HEADER, rows=rows, failures=failures)


KAPPA_HEADER = [
    "scenario", "check", "d", "item", "status", "analytic", "estimate", "std_error", "abs_diff", "within_4se",
]


def run_kappa(cfg: dict) -> RunResult:
    rows: list[list] = []
    failures = 0
    seed = int(cfg["seed"])

    for d in cfg["pair_dims"]:
        def pair_cells(d=d) -> list[list]:
            fs = kernel.sample_features(int(d), int(cfg["k_features"]), seed + int(d))
            prng = np.random.default_rng(seed + 100 + int(d))
            out = []
            for i in range(int(cfg["pairs_per_dim"])):
                x = augment(prng.uniform(-2, 2, int(d)))
                y = augment(prng.uniform(-2, 2, int(d)))
                est = kernel.ntk(x, y, kernel.MonteCarlo(fs))
                ana = kernel.ntk(x, y, kernel.ANALYTIC).value
                diff = abs(est.value - ana)
                out.append([cfg["name"], "pair", d, f"pair{i}", "ok", ana, est.value, est.std_error,
                            diff, diff <= 4 * est.std_error])
            return out

        got, bad = _guard([cfg["name"], "pair", d, "all"], len(KAPPA_HEADER) - 5, pair_cells)
        rows.extend(got)
        failures += bad

    for d in cfg["pair_dims"]:
        def diag_cells(d=d) -> list[list]:
            prng = np.random.default_rng(seed + 200 + int(d))
            out = []
            for i in range(int(cfg["diag_points_per_dim"])):
                x = augment(prng.uniform(-2, 2, int(d)))
                xa = x.coords
                total = 0.0
                count = 0
                gen = np.random.default_rng(seed + 300 + int(d) * 17 + i)
                remaining = int(cfg["diag_k_features"])
                chunk = int(cfg["diag_chunk"])
                while remaining > 0:
                    take = min(chunk, remaining)
                    w = gen.standard_normal((take, int(d) + 1))
                    s = w @ xa
                    total += float((((xa @ xa) + s * s) * (s >= 0.0)).sum())
                    count += take
                    remaining -= take
                est = total / count
                ana = float(xa @ xa)
                out.append([cfg["name"], "diag", d, f"x{i}", "ok", ana, est, None,
                            abs(est - ana) / ana, abs(est - ana) <= 1e-3 * ana])
            return out

        got, bad = _guard([cfg["name"], "diag", d, "all"], len(KAPPA_HEADER) - 5, diag_cells)
        rows.extend(got)
        failures += bad

    def kappa_cells() -> list[list]:
        out = []
        for i in range(int(cfg["kappa_directions"])):
            d = 2 + (i % 2)
            vrng = np.random.default_rng(seed + 400 + i)
            v = Direction(vrng.standard_normal(d) * 2.0)
            fs = kernel.sample_features(d, int(cfg["kappa_k_features"]), seed + 500 + i)
            est = kernel.kappa(v, kernel.MonteCarlo(fs))
            ana = kernel.kappa(v, kernel.ANALYTIC).value
            diff = abs(est.value - ana)
            out.append([cfg["name"], "kappa", d, f"v{i}", "ok", ana, est.value, est.std_error,
                        diff, diff <= 4 * est.std_error])
        return out

    got, bad = _guard([cfg["name"], "kappa", None, "all"], len(KAPPA_HEADER) - 5, kappa_cells)
    rows.extend(got)
    failures += bad

    def homogeneity_cell() -> list[list]:
        v = Direction([3.0, 4.0])
        unit = Direction([0.6, 0.8])
        big = kernel.kappa(v, kernel.ANALYTIC).value
        small = kernel.kappa(unit, kernel.ANALYTIC).value
        exact = big == 25.0 * small
        return [[cfg["name"], "homogeneity", 2, "v=(3,4)", "ok", 25.0 * small, big, None,
                 abs(big - 25.0 * small), exact]]

    got, bad = _guard([cfg["name"], "homogeneity", 2, "v=(3,4)"], len(KAPPA_HEADER) - 5, homogeneity_cell)
    rows.extend(got)
    failures += bad
    return RunResult(header=KAPPA_HEADER, rows=rows, failures=failures)


MLP_HEADER = [
    "scenario", "width", "item", "status", "steps", "loss_initial", "loss_final",
    "loss_ratio", "displacement", "f_net", "f_kernel", "abs_dev", "tol",
]


def run_mlp_compare(cfg: dict) -> RunResult:
    rows: list[list] = []
    failures = 0
    d = int(cfg["d"])
    phi = Realization(tuple(Point(np.asarray(p, dtype=float)) for p in cfg["points"]))
    v_phi = Direction(np.asarray(cfg["v_phi"], dtype=float))
    g = target_from_config(cfg["target"])
    ts = shift_set(phi, v_phi, float(cfg["t"]), g)
    km = gram.assemble_gram(ts, kernel.ANALYTIC)
    alpha = gram.tikhonov_solve(km, delta_from_config(cfg["delta"]), ts.labels)
    predictor = regression.PointWisePredictor(training=ts, alpha=alpha, mode=kernel.ANALYTIC)
    erng = np.random.default_rng(int(cfg["eval_points_seed"]))
    box = float(cfg["eval_box"])
    eval_pts = [Point(erng.uniform(-box, box, d)) for _ in range(int(cfg["eval_points"]))]

    displacements: dict[int, float] = {}
    for width in cfg["widths"]:
        def width_cells(width=width) -> list[list]:
            mc = mlp.MLPConfig(width=int(width), steps=int(cfg["max_steps"]), seed=int(cfg["seed"]))
            model0 = mlp.init_model(mc, d)
            f0 = mlp.evaluate_batch(model0, ts.shifted)
            loss0 = 0.5 * float(np.sum((f0 - ts.labels) ** 2))
            target = float(cfg["loss_target_ratio"]) * loss0
            model, trace = mlp.train(model0, ts, mc, target_loss=target)
            disp = mlp.parameter_displacement(model0, model)
            displacements[int(width)] = disp
            out = [[cfg["name"], width, "train", "ok", len(trace) - 1, trace[0], trace[-1],
                    trace[-1] / trace[0] if trace[0] else 0.0, disp, None, None, None, None]]
            for j, pt in enumerate(eval_pts):
                fn = mlp.evaluate(model, pt)
                fk = regression.predict(predictor, pt)
                tol = max(0.1 * abs(fk), 0.05)
                out.append([cfg["name"], width, f"eval{j}", "ok", None, None, None, None, None,
                            fn, fk, abs(fn - fk), tol])
            return out

        got, bad = _guard([cfg["name"], width, "train"], len(MLP_HEADER) - 4, width_cells)
        rows.extend(got)
        failures += bad

    if len(displacements) >= 2:
        ws = sorted(displacements)
        ok = displacements[ws[-1]] < displacements[ws[0]]
        rows.append([cfg["name"], None, "displacement_order", "ok" if ok else "error:DisplacementOrder",
                     None, None, None, None, None, None, None, None, None])
        if not ok:
            failures += 1
    return RunResult(header=MLP_HEADER, rows=rows, failures=failures)


RUNNERS: dict[str, Callable[[dict], RunResult]] = {
    "theorem1": run_theorem1,
    "farfield": run_farfield,
    "gram-limit": run_gram_limit,
    "inverse-check": run_inverse_check,
    "kappa": run_kappa,
    "mlp-compare": run_mlp_compare,
}


def load_config(subcommand: str, path=None, seed_override=None, threads_override=None) -> dict:
    cfg = default_config(subcommand)
    if path is not None:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg.update(user)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    if threads_override is not None:
        cfg["threads"] = int(threads_override)
    return cfg
