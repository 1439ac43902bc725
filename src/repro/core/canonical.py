"""Canonical first-order delay forms for statistical timing (SSTA).

A delay quantity is represented in the *canonical first-order form* of
gate-level statistical STA (cf. Visweswariah et al. and the exact-solution
treatment in arXiv:2401.03588):

    d = mu + sum_i a_i * dZ_i + sum_j r_j * dE_j

where the ``dZ_i`` are **globally shared** standard-normal process
variables (e.g. chip-wide resistance / capacitance / cell-speed shifts)
and the ``dE_j`` are **independent** standard-normal residual sources.
Unlike the textbook form, the residual here is not a single collapsed
coefficient: every independent source keeps its own identity (the RC
element or gate it models, or the max operation that created it), so two
arrival forms that share upstream path segments stay exactly correlated
through those sources.  This removes the classic common-path pessimism of
scalar-residual SSTA.  The price is that a form carries one term per
source in its fan-in cone: about 1,500 terms per arrival at 500 gates,
growing with design size, so the representation of those terms decides
the engine's cost.

Representation
--------------
A form stores its residuals as two parallel NumPy arrays: ``ids``, the
strictly increasing integer ids of its sources, and ``coeffs``, their
float64 coefficients.  The ids index a :class:`SourceIndex`, which names
them only when someone reads :attr:`CanonicalForm.resid` (a read-only
``{label: coeff}`` view).  :func:`repro.sta.ssta.analyze_ssta` builds one
index per call from the design's structure; forms built from a label
dict share a process-wide default index, so equal labels are one source.

Per operation, with ``n`` and ``m`` residual terms in the operands:

* ``add`` — exact (Gaussians are closed under addition).  The two sorted
  id runs are concatenated, ordered by a stable ``argsort`` (a linear
  run merge), and duplicate ids are summed by ``np.add.reduceat``:
  O(n + m) in NumPy.
* ``covariance`` — ``searchsorted`` of the smaller id run into the
  larger: O(min(n, m) log max(n, m)).
* ``max`` — Clark's moment-matched formulas: the result's mean and
  variance are Clark's exact first two moments of ``max(X, Y)`` for the
  jointly Gaussian pair, the linear coefficients are interpolated with
  the tightness probability ``T = P(X > Y)`` (one merge, as for ``add``),
  and the variance the linear part cannot express is assigned to a fresh
  independent source so downstream covariances stay consistent.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple

import numpy as np

from repro._exceptions import AnalysisError

__all__ = [
    "CanonicalForm",
    "SourceIndex",
    "canonical_add",
    "canonical_constant",
    "canonical_max",
    "canonical_max_many",
    "covariance",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x: float) -> float:
    """Standard normal density ``phi(x)``."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def normal_cdf(x: float) -> float:
    """Standard normal CDF ``Phi(x)`` (via ``erfc`` for tail accuracy)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Peter Acklam's rational approximation refined by one Halley step —
    better than 1e-12 absolute over the open unit interval, with no
    dependency beyond :mod:`math`.
    """
    if not 0.0 < p < 1.0:
        raise AnalysisError(f"quantile probability must be in (0, 1): {p}")
    # Acklam coefficients.
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
             + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
             + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                             + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
              + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q
                         + 1.0)
    # One Halley refinement against the exact CDF.
    err = normal_cdf(x) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise AnalysisError(f"canonical form {name} is not finite: {value}")
    return value


class SourceIndex:
    """Integer ids of independent residual sources, named on demand.

    Ids are handed out in contiguous blocks by :meth:`reserve`; a block
    keeps a function that names its members, so reserving the thousands
    of sources of a design formats no string.  :meth:`intern` maps a
    caller's label to one id for good (the same label is the same
    source).  :meth:`fresh` mints an anonymous id and stores nothing.
    """

    def __init__(self) -> None:
        self._size = 0
        self._block_starts: List[int] = []
        self._blocks: List[Tuple[int, Callable[[int], str]]] = []
        self._ids: Dict[str, int] = {}
        self._labels: Dict[int, str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    def reserve(self, count: int, namer: Callable[[int], str]) -> int:
        """Reserve ``count`` consecutive ids; return the first.

        ``namer(k)`` names the block's ``k``-th source.
        """
        with self._lock:
            base = self._size
            if count > 0:
                self._block_starts.append(base)
                self._blocks.append((base + count, namer))
                self._size += count
            return base

    def intern(self, label: str) -> int:
        """The id of the source named ``label`` (minted on first use)."""
        with self._lock:
            source = self._ids.get(label)
            if source is None:
                source = self._ids[label] = self._size
                self._labels[source] = label
                self._size += 1
            return source

    def fresh(self) -> int:
        """A new anonymous source id, named ``max#<id>``."""
        with self._lock:
            source = self._size
            self._size += 1
            return source

    def name(self, source: int) -> str:
        """The label of source ``source``."""
        label = self._labels.get(source)
        if label is not None:
            return label
        block = bisect_right(self._block_starts, source) - 1
        if block >= 0:
            stop, namer = self._blocks[block]
            if source < stop:
                return namer(source - self._block_starts[block])
        return f"max#{source}"


#: The index that forms built from a ``{label: coeff}`` dict share.
_DEFAULT_SOURCES = SourceIndex()


class ResidualView(Mapping):
    """Read-only ``{label: coeff}`` view of a form's residual terms.

    ``len()`` is O(1); labels are produced only when iterated.
    """

    __slots__ = ("_form", "_items")

    def __init__(self, form: "CanonicalForm") -> None:
        self._form = form
        self._items: Optional[Dict[str, float]] = None

    def __len__(self) -> int:
        return int(self._form.ids.shape[0])

    def _terms(self) -> Dict[str, float]:
        if self._items is None:
            name = self._form.sources.name
            self._items = {
                name(source): coeff for source, coeff in zip(
                    self._form.ids.tolist(), self._form.coeffs.tolist())
            }
        return self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms())

    def __getitem__(self, label: str) -> float:
        return self._terms()[label]

    def __repr__(self) -> str:
        return f"ResidualView({dict(self.items())!r})"


class CanonicalForm:
    """One Gaussian delay/arrival quantity in canonical first-order form.

    ``CanonicalForm(mu, a, {label: coeff})`` builds a form whose
    residual labels live in the shared default :class:`SourceIndex`;
    :meth:`from_arrays` builds one over any index.  Forms are immutable.

    Attributes
    ----------
    mu:
        Mean value.
    a:
        Coefficients over the shared process variables, one per variable
        of the governing process space.
    sources:
        The :class:`SourceIndex` the residual ids refer to.
    ids, coeffs:
        Residual source ids (strictly increasing ``int64``) and their
        coefficients (``float64``), as read-only parallel arrays.  Two
        forms over the same index are correlated through equal ids;
        distinct ids are independent.
    """

    __slots__ = ("mu", "a", "ids", "coeffs", "sources", "_variance")

    def __init__(
        self,
        mu: float,
        a,
        resid: Optional[Mapping[str, float]] = None,
    ) -> None:
        pairs = sorted(
            (_DEFAULT_SOURCES.intern(label), float(value))
            for label, value in (resid or {}).items()
        )
        ids = np.array([p[0] for p in pairs], dtype=np.int64)
        coeffs = np.array([p[1] for p in pairs], dtype=np.float64)
        if not np.isfinite(coeffs).all():
            raise AnalysisError("canonical form residuals must be finite")
        self._init(mu, _check_coefficients(a), ids, coeffs, _DEFAULT_SOURCES)

    @classmethod
    def from_arrays(
        cls,
        mu: float,
        a,
        ids,
        coeffs,
        sources: SourceIndex,
    ) -> "CanonicalForm":
        """Build a form straight from residual id/coefficient arrays.

        ``ids`` must be strictly increasing ids of ``sources``.
        """
        ids = np.array(ids, dtype=np.int64)
        coeffs = np.array(coeffs, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != coeffs.shape:
            raise AnalysisError(
                "residual ids and coefficients must be parallel 1-D arrays"
            )
        if ids.size and (ids[0] < 0 or ids[-1] >= len(sources)
                         or not (ids[1:] > ids[:-1]).all()):
            raise AnalysisError(
                "residual ids must be strictly increasing ids of the index"
            )
        if not np.isfinite(coeffs).all():
            raise AnalysisError("canonical form residuals must be finite")
        form = cls.__new__(cls)
        form._init(mu, _check_coefficients(a), ids, coeffs, sources)
        return form

    def _init(self, mu, a, ids, coeffs, sources) -> None:
        ids.flags.writeable = False
        coeffs.flags.writeable = False
        self.mu = _check_finite("mu", mu)
        self.a = a
        self.ids = ids
        self.coeffs = coeffs
        self.sources = sources
        self._variance = None

    def __repr__(self) -> str:
        return (f"CanonicalForm(mu={self.mu!r}, a={self.a!r}, "
                f"resid=<{len(self.ids)} terms>)")

    @property
    def resid(self) -> ResidualView:
        """Residual coefficients keyed by source label (read-only)."""
        return ResidualView(self)

    # -- moments ---------------------------------------------------------

    @property
    def variance(self) -> float:
        """Total variance ``|a|^2 + sum r^2``."""
        if self._variance is None:
            self._variance = (float(np.dot(self.a, self.a))
                              + float(np.dot(self.coeffs, self.coeffs)))
        return self._variance

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def num_variables(self) -> int:
        return int(self.a.shape[0])

    # -- distribution ----------------------------------------------------

    def cdf(self, t: float) -> float:
        """``P(d <= t)`` under the Gaussian model."""
        sigma = self.sigma
        if sigma <= 0.0:
            return 1.0 if t >= self.mu else 0.0
        return normal_cdf((t - self.mu) / sigma)

    def prob_gt(self, t: float) -> float:
        """``P(d > t)``."""
        return 1.0 - self.cdf(t)

    def quantile(self, p: float) -> float:
        """The ``p``-quantile of the delay distribution."""
        sigma = self.sigma
        if sigma <= 0.0:
            return self.mu
        return self.mu + sigma * normal_quantile(p)

    def sigma_corner(self, k: float) -> float:
        """The ``mu + k*sigma`` corner value."""
        return self.mu + k * self.sigma

    # -- algebra ---------------------------------------------------------

    def shifted(self, delta: float) -> "CanonicalForm":
        """The same distribution translated by a deterministic ``delta``."""
        form = _form(self.mu + delta, self.a, self.ids, self.coeffs,
                     self.sources)
        form._variance = self._variance
        return form

    def __add__(self, other: "CanonicalForm") -> "CanonicalForm":
        return canonical_add(self, other)


def _check_coefficients(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise AnalysisError("canonical form coefficients must be 1-D")
    if not np.isfinite(arr).all():
        raise AnalysisError("canonical form coefficients must be finite")
    return arr


def _form(mu, a, ids, coeffs, sources) -> CanonicalForm:
    """An operation's result; the operands were validated already."""
    if not np.isfinite(a).all():
        raise AnalysisError("canonical form coefficients must be finite")
    form = CanonicalForm.__new__(CanonicalForm)
    form._init(mu, a, ids, coeffs, sources)
    return form


def canonical_constant(
    mu: float,
    num_variables: int,
    sources: Optional[SourceIndex] = None,
) -> CanonicalForm:
    """A deterministic value as a (zero-variance) canonical form."""
    return CanonicalForm.from_arrays(
        mu, np.zeros(num_variables), (), (),
        _DEFAULT_SOURCES if sources is None else sources,
    )


def _common_sources(x: CanonicalForm, y: CanonicalForm) -> SourceIndex:
    """The index an operation on ``x`` and ``y`` works in."""
    if x.a.shape[0] != y.a.shape[0]:
        raise AnalysisError(
            "canonical forms live in different process spaces "
            f"({x.num_variables} vs {y.num_variables} shared variables)"
        )
    if x.sources is y.sources or not y.ids.shape[0]:
        return x.sources
    if not x.ids.shape[0]:
        return y.sources
    raise AnalysisError(
        "canonical forms draw on different source indexes (combine forms "
        "of one analysis, or built over one SourceIndex)"
    )


def _merge(
    ids_x: np.ndarray, coeffs_x: np.ndarray,
    ids_y: np.ndarray, coeffs_y: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum two sparse residual vectors (sorted unique ids each).

    The stable sort keeps ``x``'s term before ``y``'s on a shared id, so
    each shared coefficient is the single float sum ``x + y``.
    """
    if not ids_y.shape[0]:
        return ids_x, coeffs_x
    if not ids_x.shape[0]:
        return ids_y, coeffs_y
    ids = np.concatenate((ids_x, ids_y))
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    coeffs = np.concatenate((coeffs_x, coeffs_y))[order]
    head = np.empty(ids.shape[0], dtype=bool)
    head[0] = True
    np.not_equal(ids[1:], ids[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    if starts.shape[0] == ids.shape[0]:
        return ids, coeffs
    return ids[starts], np.add.reduceat(coeffs, starts)


def _shared_dot(x: CanonicalForm, y: CanonicalForm) -> float:
    """``sum r_x[j] * r_y[j]`` over the sources both forms carry."""
    if x.ids.shape[0] > y.ids.shape[0]:
        x, y = y, x
    if not x.ids.shape[0]:
        return 0.0
    pos = np.searchsorted(y.ids, x.ids)
    np.minimum(pos, y.ids.shape[0] - 1, out=pos)
    hit = y.ids[pos] == x.ids
    return float(np.dot(x.coeffs[hit], y.coeffs[pos[hit]]))


def covariance(x: CanonicalForm, y: CanonicalForm) -> float:
    """Exact covariance of two forms: shared variables + shared sources."""
    _common_sources(x, y)
    return float(np.dot(x.a, y.a)) + _shared_dot(x, y)


def canonical_add(x: CanonicalForm, y: CanonicalForm) -> CanonicalForm:
    """``x + y`` — exact for jointly Gaussian canonical forms."""
    sources = _common_sources(x, y)
    ids, coeffs = _merge(x.ids, x.coeffs, y.ids, y.coeffs)
    return _form(x.mu + y.mu, x.a + y.a, ids, coeffs, sources)


def _set_term(
    ids: np.ndarray, coeffs: np.ndarray, source: int, value: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``ids``/``coeffs`` with source ``source`` set to ``value``."""
    pos = int(np.searchsorted(ids, source))
    if pos == ids.shape[0]:
        return (np.append(ids, np.int64(source)), np.append(coeffs, value))
    if ids[pos] == source:
        coeffs = coeffs.copy()
        coeffs[pos] = value
        return ids, coeffs
    return np.insert(ids, pos, source), np.insert(coeffs, pos, value)


def canonical_max(
    x: CanonicalForm,
    y: CanonicalForm,
    label: Optional[str] = None,
) -> Tuple[CanonicalForm, float]:
    """Clark's moment-matched statistical max of two canonical forms.

    Returns ``(max_form, tightness)`` where ``tightness = P(x >= y)``.
    The result's mean and variance are Clark's exact first two moments
    of ``max(X, Y)``; its linear coefficients are the tightness-weighted
    interpolation ``T*x + (1-T)*y`` and any variance the linear part
    cannot carry is assigned to the independent source ``label`` of the
    operands' index (a fresh anonymous source when omitted).
    """
    sources = _common_sources(x, y)
    var_x = x.variance
    var_y = y.variance
    cov = float(np.dot(x.a, y.a)) + _shared_dot(x, y)
    theta_sq = max(var_x + var_y - 2.0 * cov, 0.0)
    theta = math.sqrt(theta_sq)
    if theta < 1e-300:
        # X - Y is (numerically) deterministic: the max is simply the
        # form with the larger mean.
        if x.mu >= y.mu:
            return x, 1.0
        return y, 0.0
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
    ids, coeffs = _merge(x.ids, tightness * x.coeffs,
                         y.ids, (1.0 - tightness) * y.coeffs)
    var_linear = float(np.dot(a, a)) + float(np.dot(coeffs, coeffs))
    deficit = var - var_linear
    if deficit > 0.0:
        source = sources.fresh() if label is None else sources.intern(label)
        ids, coeffs = _set_term(ids, coeffs, source, math.sqrt(deficit))
    elif var_linear > 0.0 and deficit < 0.0:
        # Rare: the interpolated linear part overshoots Clark's variance
        # (strongly correlated operands).  Rescale it so the total
        # variance still matches Clark's exactly.
        scale = math.sqrt(var / var_linear) if var > 0.0 else 0.0
        a = a * scale
        coeffs = coeffs * scale
    return _form(mean, a, ids, coeffs, sources), tightness


def canonical_max_many(
    forms: Sequence[CanonicalForm],
    label: Optional[str] = None,
) -> Tuple[CanonicalForm, List[float]]:
    """Statistical max of several forms with per-operand criticalities.

    Folds :func:`canonical_max` left to right (the ``i``-th fold's fresh
    source is labeled ``f"{label}#{i}"``); the returned weights
    approximate ``P(operand i is the largest)`` via the chain of
    tightness probabilities (they are nonnegative and sum to 1).
    """
    if not forms:
        raise AnalysisError("canonical_max_many needs at least one form")
    result = forms[0]
    weights = [1.0]
    for index, form in enumerate(forms[1:], start=1):
        sub = None if label is None else f"{label}#{index}"
        result, tightness = canonical_max(result, form, label=sub)
        weights = [w * tightness for w in weights]
        weights.append(1.0 - tightness)
    total = sum(weights)
    if total > 0.0:
        weights = [w / total for w in weights]
    return result, weights
