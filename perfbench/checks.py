"""Correctness checks applied to a workload's CSVs.

Two kinds of check:

* Acceptance checks: the thresholds of tests/test_acceptance.py (criteria C01
  to C11) and of the MLP cross-check, applied to the CSVs the workload wrote.
  Runtime limits of the acceptance tests are not applied; time is measured by
  the benchmark instead. C06 is applied to the default gram-limit sweep (n=8),
  which the acceptance suite runs at n=16. The C12 tracking tolerance is the
  suite's documented xfail and is not checked.
* Reference comparison: every CSV against the one the seed commit wrote for
  the same inputs (perfbench/ref). Text cells must be equal; numeric cells
  must agree within |a - b| <= REF_ATOL + REF_RTOL * max(|a|, |b|), so a
  change that only reassociates floating-point sums still matches.
"""

from __future__ import annotations

import csv
import math

REF_RTOL = 1e-6
REF_ATOL = 1e-9


def read_csv(path) -> tuple[list[str], list[dict]]:
    """Header and rows as dicts of text cells.

    The CLI writes cells unquoted, so a cell holding a comma (kappa's item
    `v=(3,4)`) spills into extra cells; those are joined back at `item`.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            extra = len(row) - len(header)
            if extra > 0 and "item" in header:
                k = header.index("item")
                row = row[:k] + [",".join(row[k : k + extra + 1])] + row[k + extra + 1 :]
            rows.append(dict(zip(header, row)))
    return header, rows


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _f(row, key) -> float:
    return float(row[key])


def _true(row, key) -> bool:
    return row[key] == "true"


def error_rows(rows: list[dict]) -> int:
    return sum(row["status"].startswith("error:") for row in rows)


def compare_to_reference(path, ref_path) -> list[str]:
    """Differences between a CSV and its reference, as readable strings."""
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(ref_path, newline="") as fh:
        want = list(csv.reader(fh))
    if len(got) != len(want):
        return [f"{len(got)} lines, reference has {len(want)}"]
    diffs = []
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            diffs.append(f"line {i + 1}: {len(g_row)} cells, reference has {len(w_row)}")
            continue
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if g == w:
                continue
            gn, wn = _num(g), _num(w)
            if gn is not None and wn is not None and (
                abs(gn - wn) <= REF_ATOL + REF_RTOL * max(abs(gn), abs(wn))
                or (math.isnan(gn) and math.isnan(wn))
            ):
                continue
            diffs.append(f"line {i + 1} column {got[0][j]}: {g!r} vs reference {w!r}")
    return diffs


# --- acceptance checks: each returns True when the criterion holds ---------


def c01(inv: list[dict]) -> bool:
    rows = [r for r in inv if r["check"] == "identity"]
    return len(rows) == 72 and all(r["status"] == "ok" for r in rows) and max(_f(r, "residual") for r in rows) < 1e-8


def c02(inv: list[dict]) -> bool:
    rows = [r for r in inv if r["check"] == "alpha"]
    return len(rows) == 72 and all(r["status"] == "ok" for r in rows) and max(_f(r, "residual") for r in rows) < 1e-8


def c03(kap: list[dict]) -> bool:
    pairs = [r for r in kap if r["check"] == "pair"]
    diags = [r for r in kap if r["check"] == "diag"]
    if len(pairs) != 60 or not diags:
        return False
    frac = sum(_true(r, "within_4se") for r in pairs) / len(pairs)
    return frac >= 0.95 and all(_true(r, "within_4se") and r["status"] == "ok" for r in diags)


def c04(kap: list[dict]) -> bool:
    krows = [r for r in kap if r["check"] == "kappa"]
    hom = [r for r in kap if r["check"] == "homogeneity"]
    return (
        len(krows) == 5
        and all(_true(r, "within_4se") and r["status"] == "ok" for r in krows)
        and len(hom) == 1
        and _true(hom[0], "within_4se")
        and _f(hom[0], "abs_diff") == 0.0
    )


def c05(gl: list[dict]) -> bool:
    rows = sorted((r for r in gl if r["t"] != "fit"), key=lambda r: _f(r, "t"))
    rates = [_f(r, "agnosticism_rate") for r in rows]
    ratios = [rates[i] / rates[i + 1] for i in range(len(rates) - 1)]
    return bool(ratios) and all(5.0 <= x <= 20.0 for x in ratios)


def c06(gl: list[dict]) -> bool:
    fit = [r for r in gl if r["t"] == "fit"]
    mc = [r for r in gl if r["t"] != "fit"]
    return (
        len(fit) == 1
        and -1.3 <= _f(fit[0], "decay_exponent") <= -0.7
        and all(abs(_f(r, "kappa_mc") - _f(r, "kappa_analytic")) <= 4 * _f(r, "kappa_se") for r in mc)
    )


def c07(t1: list[dict]) -> bool:
    rows = [r for r in t1 if r["direction"] == "equivalence"]
    return bool(rows) and all(r["status"] == "ok" and _f(r, "equivalence_dev") <= 1e-9 for r in rows)


def c08(inv: list[dict]) -> bool:
    by = {r["check"]: r for r in inv if r["check"] in ("pascal_shift", "sigma_identity", "stencil_monomial")}
    if len(by) != 3:
        return False
    return (
        by["pascal_shift"]["status"] == "ok"
        and _f(by["pascal_shift"], "residual") == 0.0
        and _f(by["sigma_identity"], "residual") <= 1e-12
        and _f(by["stencil_monomial"], "residual") <= 1e-6
    )


def c09(inv: list[dict]) -> bool:
    b2 = [r for r in inv if r["check"] == "beta2_sensitivity"]
    b1 = [r for r in inv if r["check"] == "beta1_sensitivity"]
    scaling = [r for r in inv if r["check"] == "beta2_scaling"]
    if not b2 or not b1 or len(scaling) != 1:
        return False
    return (
        max(_f(r, "residual") for r in b2) <= 1e-6
        and max(_f(r, "residual") for r in b1) <= 1e-10
        and _f(scaling[0], "residual") <= 0.05
    )


def c10(t1: list[dict]) -> bool:
    generic = sorted({r["direction"] for r in t1 if r["direction"].startswith("rand")})
    t_values = sorted({_f(r, "t") for r in t1})
    if len(generic) != 8 or len(t_values) < 2:
        return False
    ratio_pass = mono_pass = 0
    for name in generic:
        per_t = {_f(r, "t"): r for r in t1 if r["direction"] == name}
        final = per_t[t_values[-1]]
        ratio_pass += _f(final, "ratio32") < 0.05 and _f(final, "ratio42") < 0.05
        c3 = [abs(_f(per_t[t], "c3")) for t in t_values]
        c4 = [abs(_f(per_t[t], "c4")) for t in t_values]
        mono_pass += all(a > b for a, b in zip(c3, c3[1:])) and all(a > b for a, b in zip(c4, c4[1:]))
    orth = [r for r in t1 if r["direction"] == "orth"]
    orth_ok = len(orth) == len(t_values) and all(_true(r, "orthogonal") for r in orth)
    return ratio_pass >= 7 and mono_pass >= 7 and orth_ok


def c11(ff: list[dict]) -> bool:
    rows = [r for r in ff if r["direction"].startswith("rand")]
    return len(rows) == 8 and sum(_f(r, "ratio21") < 0.05 for r in rows) >= 7


def mlp_loss_decreases(ml: list[dict]) -> bool:
    train = [r for r in ml if r["item"] == "train"]
    return len(train) == 2 and all(_f(r, "loss_final") < _f(r, "loss_initial") for r in train)


def mlp_displacement_order(ml: list[dict]) -> bool:
    disp = {int(r["width"]): _f(r, "displacement") for r in ml if r["item"] == "train"}
    order = [r for r in ml if r["item"] == "displacement_order"]
    return (
        len(disp) == 2
        and len(order) == 1
        and order[0]["status"] == "ok"
        and disp[max(disp)] < disp[min(disp)]
    )


# Per workload: (check id, sweep whose CSV it reads, predicate).
CHECKS = {
    "origin-analytic": [("C10", "theorem1", c10), ("C11", "farfield", c11)],
    "origin-mc": [
        ("C01", "inverse-check", c01),
        ("C02", "inverse-check", c02),
        ("C05", "gram-limit", c05),
        ("C06", "gram-limit", c06),
        ("C07", "theorem1", c07),
        ("C08", "inverse-check", c08),
        ("C09", "inverse-check", c09),
    ],
    "kappa-mc": [("C03", "kappa", c03), ("C04", "kappa", c04)],
    "mlp-train": [
        ("loss-decreases", "mlp-compare", mlp_loss_decreases),
        ("displacement-order", "mlp-compare", mlp_displacement_order),
    ],
}


def failed_checks(workload: str, rows_by_sweep: dict[str, list[dict]]) -> list[str]:
    failed = []
    for cid, sweep, predicate in CHECKS[workload]:
        try:
            ok = predicate(rows_by_sweep[sweep])
        except (KeyError, ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            failed.append(cid)
    return failed
