"""Dict-backed canonical forms: the reference for the array kernels.

This is the residual representation :mod:`repro.core.canonical` used
before it moved to sorted id/coefficient arrays: every form keeps its
independent residuals in a ``{label: coeff}`` dict, and ``add``, ``max``
and ``covariance`` walk those dicts in Python.  The arithmetic per
coefficient is the same as the array kernels'; only the summation order
of variances and covariances differs.  Tests only.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.canonical import normal_cdf, normal_pdf


@dataclass(frozen=True)
class DictForm:
    mu: float
    a: np.ndarray
    resid: Dict[str, float] = field(default_factory=dict)

    @property
    def variance(self) -> float:
        var = float(np.dot(self.a, self.a))
        for value in self.resid.values():
            var += value * value
        return var


def covariance(x: DictForm, y: DictForm) -> float:
    cov = float(np.dot(x.a, y.a))
    small, large = (x.resid, y.resid) if len(x.resid) <= len(y.resid) \
        else (y.resid, x.resid)
    for label, value in small.items():
        other = large.get(label)
        if other is not None:
            cov += value * other
    return cov


def add(x: DictForm, y: DictForm) -> DictForm:
    resid = dict(x.resid)
    for label, value in y.resid.items():
        resid[label] = resid.get(label, 0.0) + value
    return DictForm(x.mu + y.mu, x.a + y.a, resid)


def clark_max(x: DictForm, y: DictForm, label: str) -> Tuple[DictForm, float]:
    var_x = x.variance
    var_y = y.variance
    cov = covariance(x, y)
    theta = math.sqrt(max(var_x + var_y - 2.0 * cov, 0.0))
    if theta < 1e-300:
        if x.mu >= y.mu:
            return DictForm(x.mu, x.a, dict(x.resid)), 1.0
        return DictForm(y.mu, y.a, dict(y.resid)), 0.0
    alpha = (x.mu - y.mu) / theta
    tightness = normal_cdf(alpha)
    pdf = normal_pdf(alpha)
    mean = x.mu * tightness + y.mu * (1.0 - tightness) + theta * pdf
    second = (
        (x.mu * x.mu + var_x) * tightness
        + (y.mu * y.mu + var_y) * (1.0 - tightness)
        + (x.mu + y.mu) * theta * pdf
    )
    var = max(second - mean * mean, 0.0)
    a = tightness * x.a + (1.0 - tightness) * y.a
    resid = {lbl: tightness * val for lbl, val in x.resid.items()}
    for lbl, val in y.resid.items():
        resid[lbl] = resid.get(lbl, 0.0) + (1.0 - tightness) * val
    var_linear = float(np.dot(a, a)) + sum(v * v for v in resid.values())
    deficit = var - var_linear
    if deficit > 0.0:
        resid[label] = math.sqrt(deficit)
    elif var_linear > 0.0 and deficit < 0.0:
        scale = math.sqrt(var / var_linear) if var > 0.0 else 0.0
        a = a * scale
        resid = {lbl: val * scale for lbl, val in resid.items()}
    return DictForm(mean, a, resid), tightness


def clark_max_many(
    forms: Sequence[DictForm], label: str
) -> Tuple[DictForm, List[float]]:
    result = forms[0]
    weights = [1.0]
    for index, form in enumerate(forms[1:], start=1):
        result, tightness = clark_max(result, form, f"{label}#{index}")
        weights = [w * tightness for w in weights]
        weights.append(1.0 - tightness)
    total = sum(weights)
    if total > 0.0:
        weights = [w / total for w in weights]
    return result, weights
