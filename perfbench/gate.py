"""Correctness gate: reference values with stated tolerances, and the checks
shared by several workloads.

``refs.json`` holds, per workload, values recorded at the commit that
introduced this benchmark, each with an absolute (``abs``) or relative
(``rel``) tolerance. The tolerances admit last-digit changes from a rewritten
kernel (a batched transfer-matrix sweep differs by ~4e-16 in R; a golden-
section or bisection search can then end one bracket away) and reject real
drift, which moves these values by orders of magnitude more.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# perturbation used by the self-check, in units of the tolerance
PERTURB_TOLERANCES = 10.0


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def compare(measured: dict, refs: dict) -> list[str]:
    """Problems found comparing measured values with their references."""
    problems = []
    for key, ref in refs.items():
        if key not in measured:
            problems.append(f"{key}: not measured")
            continue
        got, want = measured[key], ref["value"]
        if isinstance(want, list):
            pairs = list(zip(got, want)) if len(got) == len(want) else None
            if pairs is None:
                problems.append(f"{key}: {len(got)} values, reference has {len(want)}")
                continue
        else:
            pairs = [(got, want)]
        for g, w in pairs:
            allowed = ref["abs"] if "abs" in ref else ref["rel"] * abs(w)
            if not (math.isfinite(g) and abs(g - w) <= allowed):
                problems.append(f"{key}: {g!r} differs from reference {w!r} by more than {allowed:.3g}")
                break
    return problems


def perturbed(refs: dict, key: str) -> dict:
    """Copy of ``refs`` with one value moved by ten times its tolerance."""
    ref = dict(refs[key])

    def shift(w):
        return w + PERTURB_TOLERANCES * (ref["abs"] if "abs" in ref else ref["rel"] * abs(w))

    ref["value"] = [shift(w) for w in ref["value"]] if isinstance(ref["value"], list) else shift(ref["value"])
    return {**refs, key: ref}


def prominent_peaks(y, min_prominence: float) -> list[int]:
    """Indices of local maxima whose topographic prominence exceeds the bound."""
    y = np.asarray(y, dtype=float)
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]) & (y[1:-1] - y.min() > min_prominence)
    out = []
    for i in np.nonzero(inner)[0] + 1:
        higher_left = np.nonzero(y[:i] > y[i])[0]
        higher_right = np.nonzero(y[i + 1 :] > y[i])[0]
        lo = higher_left[-1] + 1 if len(higher_left) else 0
        hi = i + 1 + higher_right[0] if len(higher_right) else len(y)
        base = max(y[lo : i + 1].min(), y[i:hi].min())
        if y[i] - base > min_prominence:
            out.append(int(i))
    return out


# predicted peaks closer than this merge under the default pump (0.3 nm) and
# monochromator (0.1 nm) kernels, so the four-peak rule does not apply
RESOLVED_SEPARATION_NM = 2.0


def four_peak_problems(lam, intensity, predicted_nm, lambda_p: float) -> list[str]:
    """Criterion 10's rule on a fluorescence spectrum.

    The tallest peak is 1. Where the four predicted wavelengths are resolved,
    the spectrum has exactly four prominent peaks, each on its prediction,
    and the outer and inner pairs are energy-matched to the pump. Near a
    degeneracy, where predictions merge, each peak must lie on a prediction.
    """
    problems = []
    top = float(max(intensity))
    if abs(top - 1.0) > 1e-12:
        problems.append(f"spectrum peak is {top!r}, not 1")
    pred = sorted(predicted_nm)
    idx = prominent_peaks(intensity, 0.05)
    wls = [float(lam[i]) for i in idx]
    resolved = min(b - a for a, b in zip(pred, pred[1:])) > RESOLVED_SEPARATION_NM
    if resolved and len(wls) != 4:
        return problems + [f"{len(wls)} spectrum peaks where 4 are resolved"]
    for w in wls:
        if min(abs(w - p) for p in pred) > (0.02 if resolved else 0.5):
            problems.append(f"spectrum peak at {w} nm matches no predicted wavelength")
    if resolved:
        for i, j in ((0, 3), (1, 2)):
            mismatch = abs(1.0 / wls[i] + 1.0 / wls[j] - 1.0 / lambda_p)
            if mismatch >= 2e-8:
                problems.append(f"peaks {wls[i]} and {wls[j]} nm not energy-matched ({mismatch:.2e})")
    return problems


def pair_point_problems(points, lambda_p: float) -> list[str]:
    """Criterion 03 on solved points: energy to 1e-12, momentum to 1e-9 k_p."""
    k_p = 2.0 * math.pi / lambda_p
    problems = []
    for p in points:
        energy = abs((1.0 / p.lambda_s_nm + 1.0 / p.lambda_i_nm) * lambda_p - 1.0)
        momentum = abs(p.momentum_residual) / k_p
        if not (energy < 1e-12 and momentum < 1e-9):
            problems.append(
                f"theta={p.theta_deg} interaction {p.interaction.id}: energy residual "
                f"{energy:.2e}, momentum residual {momentum:.2e} k_p"
            )
    return problems
