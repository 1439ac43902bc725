"""Array-backed canonical forms against the dict-backed reference.

The residuals of :class:`repro.core.canonical.CanonicalForm` live in
sorted id/coefficient arrays merged by NumPy kernels.  These tests pin
those kernels to the dict implementation they replaced
(``tests/core/_canonical_dict_reference.py``) on random forms with
overlapping labels, and cover what the array representation adds: the
source index, the read-only ``resid`` view and bounded module state.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro._exceptions import AnalysisError
from repro.core import canonical
from repro.core.canonical import (
    CanonicalForm,
    SourceIndex,
    canonical_add,
    canonical_constant,
    canonical_max,
    canonical_max_many,
    covariance,
)
from tests.core import _canonical_dict_reference as ref

COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])

#: A small label pool, so random forms share many residual sources.
LABELS = [f"e{i}" for i in range(10)]

coefficient = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def form_pairs(draw, count=1):
    """``count`` (array form, dict form) pairs over the shared labels."""
    pairs = []
    for _ in range(count):
        mu = draw(st.floats(-2.0, 2.0))
        a = np.array(draw(st.lists(coefficient, min_size=3, max_size=3)))
        resid = draw(st.dictionaries(st.sampled_from(LABELS), coefficient,
                                     max_size=len(LABELS)))
        pairs.append((CanonicalForm(mu, a, resid),
                      ref.DictForm(mu, a, dict(resid))))
    return pairs


def assert_same_terms(got, expected, tol, skip=()):
    """Per-label coefficients agree within ``tol`` (absolute); a label
    missing on one side counts as a zero coefficient."""
    for label in (set(got) | set(expected)) - set(skip):
        assert got.get(label, 0.0) == pytest.approx(
            expected.get(label, 0.0), abs=tol
        ), label


class TestAgainstDictReference:
    @given(pairs=form_pairs(count=2))
    @settings(max_examples=200, **COMMON)
    def test_variance_and_covariance(self, pairs):
        (x, rx), (y, ry) = pairs
        assert x.variance == pytest.approx(rx.variance, rel=1e-12,
                                           abs=1e-300)
        scale = math.sqrt(rx.variance * ry.variance)
        assert abs(covariance(x, y) - ref.covariance(rx, ry)) <= \
            1e-12 * scale
        assert covariance(x, y) == covariance(y, x)

    @given(pairs=form_pairs(count=2))
    @settings(max_examples=200, **COMMON)
    def test_add_is_bit_identical(self, pairs):
        # One float addition per shared label, in the same order: the
        # array merge reproduces every coefficient exactly.
        (x, rx), (y, ry) = pairs
        s, rs = canonical_add(x, y), ref.add(rx, ry)
        assert s.mu == rs.mu
        assert np.array_equal(s.a, rs.a)
        assert dict(s.resid.items()) == rs.resid
        assert len(s.resid) == len(rs.resid)
        assert s.variance == pytest.approx(rs.variance, rel=1e-12,
                                           abs=1e-300)

    @given(pairs=form_pairs(count=2))
    @settings(max_examples=300, **COMMON)
    def test_max_matches(self, pairs):
        (x, rx), (y, ry) = pairs
        # Keep Clark's max well conditioned: the variance of X - Y and
        # of each operand must not cancel to rounding noise, or both
        # implementations legitimately disagree in the last digits.
        assume(rx.variance > 0.05 and ry.variance > 0.05)
        theta_sq = rx.variance + ry.variance - 2 * ref.covariance(rx, ry)
        assume(theta_sq > 1e-2 * (rx.variance + ry.variance))
        m, t = canonical_max(x, y, label="m")
        rm, rt = ref.clark_max(rx, ry, "m")
        assert t == pytest.approx(rt, rel=1e-12, abs=1e-15)
        assert m.mu == pytest.approx(rm.mu, rel=1e-12, abs=1e-14)
        assert m.variance == pytest.approx(rm.variance, rel=1e-12)
        fresh = rm.resid.get("m", 0.0) ** 2
        assert m.resid.get("m", 0.0) ** 2 == pytest.approx(
            fresh, abs=1e-12 * rm.variance
        )
        # The fresh source's coefficient is sqrt(deficit), which
        # amplifies rounding; every other term agrees to 1e-12.
        assert_same_terms(
            dict(m.resid.items()), rm.resid,
            tol=1e-12 * math.sqrt(rx.variance + ry.variance), skip=["m"],
        )

    @given(pairs=form_pairs(count=4))
    @settings(max_examples=150, **COMMON)
    def test_max_many_weights_and_moments(self, pairs):
        forms = [p[0] for p in pairs]
        refs = [p[1] for p in pairs]
        assume(all(r.variance > 0.05 for r in refs))
        for i, ri in enumerate(refs):
            for rj in refs[i + 1:]:
                theta_sq = (ri.variance + rj.variance
                            - 2 * ref.covariance(ri, rj))
                assume(theta_sq > 1e-2 * (ri.variance + rj.variance))
        m, weights = canonical_max_many(forms, label="mm")
        rm, rweights = ref.clark_max_many(refs, "mm")
        assert len(weights) == len(rweights)
        for w, rw in zip(weights, rweights):
            assert w == pytest.approx(rw, rel=1e-9, abs=1e-12)
        assert m.mu == pytest.approx(rm.mu, rel=1e-12, abs=1e-12)
        assert m.variance == pytest.approx(rm.variance, rel=1e-9)
        # Fresh sources (sqrt of a variance deficit) feed later folds,
        # so terms agree to the square root of the rounding level.
        assert_same_terms(dict(m.resid.items()), rm.resid, tol=1e-6)

    def test_overshoot_rescale_branch(self):
        # Strongly correlated operands: the interpolated linear part
        # overshoots Clark's variance and both rescale it.
        x = CanonicalForm(1.0, np.array([1.0, 0.0, 0.0]),
                          {"s": 1.0, "x": 0.05})
        y = CanonicalForm(1.02, np.array([0.9, 0.1, 0.0]),
                          {"s": 1.1, "y": 0.05})
        rx = ref.DictForm(x.mu, x.a, {"s": 1.0, "x": 0.05})
        ry = ref.DictForm(y.mu, y.a, {"s": 1.1, "y": 0.05})
        m, t = canonical_max(x, y, label="r")
        rm, rt = ref.clark_max(rx, ry, "r")
        assert t == pytest.approx(rt, rel=1e-12)
        assert m.variance == pytest.approx(rm.variance, rel=1e-12)
        assert set(m.resid) == set(rm.resid)
        assert_same_terms(dict(m.resid.items()), rm.resid, tol=1e-12)


class TestResidualView:
    def test_mapping_protocol(self):
        form = CanonicalForm(0.0, np.zeros(2), {"b": 2.0, "a": 1.0})
        view = form.resid
        assert len(view) == 2
        assert view == {"a": 1.0, "b": 2.0}
        assert view["a"] == 1.0
        assert "b" in view and "c" not in view
        assert view.get("c") is None
        assert sorted(view) == ["a", "b"]
        with pytest.raises(TypeError):
            view["a"] = 3.0

    def test_arrays_are_read_only(self):
        form = CanonicalForm(0.0, np.zeros(1), {"a": 1.0})
        with pytest.raises(ValueError):
            form.coeffs[0] = 2.0
        with pytest.raises(ValueError):
            form.ids[0] = 7

    def test_block_names_are_lazy(self):
        sources = SourceIndex()
        calls = []

        def namer(k):
            calls.append(k)
            return f"blk{k}"

        base = sources.reserve(1000, namer)
        form = CanonicalForm.from_arrays(
            1.0, np.zeros(1), [base + 3, base + 999], [0.5, 0.25], sources
        )
        assert len(form.resid) == 2 and calls == []
        assert dict(form.resid.items()) == {"blk3": 0.5, "blk999": 0.25}
        assert sorted(calls) == [3, 999]

    def test_interned_labels_are_one_source(self):
        sources = SourceIndex()
        assert sources.intern("x") == sources.intern("x")
        assert sources.intern("y") != sources.intern("x")
        assert sources.name(sources.intern("y")) == "y"
        anon = sources.fresh()
        assert sources.name(anon) == f"max#{anon}"


class TestValidation:
    def test_from_arrays_checks_ids(self):
        sources = SourceIndex()
        sources.reserve(5, str)
        with pytest.raises(AnalysisError):
            CanonicalForm.from_arrays(0.0, [0.0], [2, 1], [1.0, 1.0],
                                      sources)
        with pytest.raises(AnalysisError):
            CanonicalForm.from_arrays(0.0, [0.0], [1, 1], [1.0, 1.0],
                                      sources)
        with pytest.raises(AnalysisError):
            CanonicalForm.from_arrays(0.0, [0.0], [5], [1.0], sources)
        with pytest.raises(AnalysisError):
            CanonicalForm.from_arrays(0.0, [0.0], [1, 2], [1.0], sources)

    def test_nonfinite_residual_rejected(self):
        with pytest.raises(AnalysisError):
            CanonicalForm(0.0, np.zeros(1), {"a": float("nan")})

    def test_different_indexes_do_not_mix(self):
        mine = SourceIndex()
        x = CanonicalForm.from_arrays(0.0, [0.0], [mine.intern("a")], [1.0],
                                      mine)
        y = CanonicalForm(0.0, np.zeros(1), {"a": 1.0})
        with pytest.raises(AnalysisError):
            canonical_add(x, y)
        with pytest.raises(AnalysisError):
            covariance(x, y)
        # A form without residuals joins any index.
        z = canonical_add(canonical_constant(1.0, 1), x)
        assert z.sources is mine and z.resid == {"a": 1.0}


class TestBoundedState:
    def test_anonymous_max_leaves_module_state_flat(self):
        x = CanonicalForm(0.0, np.array([0.3]), {"ax": 1.0})
        y = CanonicalForm(0.1, np.array([0.2]), {"ay": 1.0})
        labels_before = len(canonical._DEFAULT_SOURCES._labels)
        tracemalloc.start()
        try:
            for _ in range(200):     # warm up allocator and NumPy caches
                canonical_max(x, y)
            gc.collect()
            before = tracemalloc.take_snapshot()
            for _ in range(200):
                canonical_max(x, y)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
            if stat.traceback[0].filename == canonical.__file__
        )
        # Storing a label per call would take ~30 kB; NumPy's buffer
        # caches account for the ~1 kB seen without any.
        assert grown < 8192, grown
        assert len(canonical._DEFAULT_SOURCES._labels) == labels_before
