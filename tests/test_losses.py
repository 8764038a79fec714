"""Loss-zoo tests: frozen oracle values, the finite-difference identity, and
the shape properties of the gradient-weight curves."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalpo.losses import (
    GAMMA_MAX,
    LossConfig,
    LossVariant,
    gradient_weight,
    modulating_factor,
    pair_loss,
)

from _oracles import (
    VARIANT_NAMES,
    fd_weight,
    ladder_modulating_factor,
    ladder_pair_loss,
    log_sigmoid,
    mirror_pair_loss,
    mirror_weight_ratio,
    preference_probability,
)

GRID_QUARTER = [-10.0 + 0.25 * k for k in range(81)]
GRID_TENTH = [-10.0 + 0.1 * k for k in range(201)]

# frozen via the high-precision oracle in _oracles (>= 50-bit arithmetic)
W_FOCAL_AT_ZERO = 0.4662297633875558
W_FOCUS_INCORRECT_AT_ZERO = 0.42328679513998635
L_FOCAL_AT_ZERO = 0.6695360429946806
L_FOCAL_EXACT_AT_ZERO = 0.7175909630932573
L_FOCUS_INCORRECT_AT_ZERO = 0.34657359027997264


def config(variant: LossVariant, gamma: float = 0.05) -> LossConfig:
    return LossConfig(variant, gamma=gamma)


class TestConfig:
    def test_defaults(self):
        assert LossConfig(LossVariant.FOCAL).gamma == 0.05

    def test_rejects_zero_gamma_for_focal(self):
        with pytest.raises(ValueError):
            LossConfig(LossVariant.FOCAL, gamma=0.0)

    def test_dpo_allows_zero_gamma(self):
        LossConfig(LossVariant.DPO, gamma=0.0)

    def test_rejects_gamma_above_cap(self):
        with pytest.raises(ValueError):
            LossConfig(LossVariant.FOCAL, gamma=GAMMA_MAX + 0.1)

    @pytest.mark.parametrize(
        "variant, gamma, message",
        [
            ("focal", 0.05, "variant must be a LossVariant, got 'focal'"),
            (LossVariant.FOCAL, -0.5, f"gamma must lie in [0, {GAMMA_MAX}], got -0.5"),
            (LossVariant.DPO, 5.5, f"gamma must lie in [0, {GAMMA_MAX}], got 5.5"),
            (LossVariant.FOCUS_INCORRECT, 0.0, "gamma must be > 0 for focus-incorrect"),
        ],
    )
    def test_check_messages(self, variant, gamma, message):
        with pytest.raises(ValueError) as info:
            LossConfig(variant, gamma=gamma)
        assert str(info.value) == message


class TestPreferenceProbability:
    def test_zero_margin(self):
        assert preference_probability(0.0) == 0.5

    def test_saturation_is_clamped(self):
        p = preference_probability(30.0)
        assert p >= 1.0 - 1e-12
        assert p < 1.0

    def test_reference_value(self):
        assert preference_probability(2.0) == pytest.approx(0.8807970779778824, abs=1e-12)

    def test_strictly_increasing(self):
        values = [preference_probability(d) for d in GRID_TENTH]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestModulatingFactor:
    def test_dpo_is_always_one(self):
        for p in (0.001, 0.5, 0.999):
            for g in (0.0, 0.05, 2.0):
                assert modulating_factor(config(LossVariant.DPO, gamma=g), p) == 1.0

    def test_focal_approaches_one_at_high_p(self):
        # correctly ranked pairs keep their loss almost unchanged
        assert modulating_factor(config(LossVariant.FOCAL), 0.999999) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_reference_value(self):
        assert modulating_factor(config(LossVariant.FOCAL), 0.5) == pytest.approx(
            0.9659363289248456, abs=1e-12
        )

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            modulating_factor(config(LossVariant.FOCAL, gamma=-0.05), 0.5)

    @pytest.mark.parametrize("p", [math.nan, 0.0, 1.0, 5.0])
    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_rejects_p_outside_the_open_unit_interval(self, name, p):
        # dpo's factor is 1 at every valid p, and checks p like the others
        with pytest.raises(ValueError, match=r"p must lie in the open interval \(0, 1\)"):
            modulating_factor(config(LossVariant(name)), np.array([0.5, p]))
        with pytest.raises(ValueError, match=r"p must lie in the open interval \(0, 1\)"):
            modulating_factor(config(LossVariant(name)), p)

    def test_exact_and_incorrect_forms(self):
        p = 0.73
        assert modulating_factor(config(LossVariant.FOCAL_EXACT, gamma=0.3), p) == pytest.approx(
            (1 - p) ** -0.3, rel=1e-14
        )
        assert modulating_factor(
            config(LossVariant.FOCUS_INCORRECT, gamma=0.3), p
        ) == pytest.approx((1 - p) ** 0.3, rel=1e-14)


class TestPairLoss:
    def test_dpo_at_zero(self):
        assert pair_loss(config(LossVariant.DPO), 0.0).loss == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_focal_at_zero(self):
        assert pair_loss(config(LossVariant.FOCAL), 0.0).loss == pytest.approx(
            L_FOCAL_AT_ZERO, abs=1e-12
        )

    def test_focal_exact_at_zero(self):
        assert pair_loss(config(LossVariant.FOCAL_EXACT), 0.0).loss == pytest.approx(
            L_FOCAL_EXACT_AT_ZERO, abs=1e-12
        )

    def test_focus_incorrect_at_zero(self):
        assert pair_loss(config(LossVariant.FOCUS_INCORRECT, gamma=1.0), 0.0).loss == pytest.approx(
            L_FOCUS_INCORRECT_AT_ZERO, abs=1e-12
        )

    def test_output_fields_are_consistent(self):
        cfg = config(LossVariant.FOCAL, gamma=0.07)
        for margin in (-3.0, 0.0, 1.7):
            out = pair_loss(cfg, margin)
            factor = modulating_factor(cfg, preference_probability(margin))
            assert out.loss == factor * -log_sigmoid(margin)
            assert out.weight == gradient_weight(cfg, margin)

    def test_dpo_loss_strictly_decreasing(self):
        cfg = config(LossVariant.DPO)
        values = [pair_loss(cfg, d).loss for d in GRID_TENTH]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_high_precision_mirror(self):
        # out to |delta| = 25, the curves' margins, where 1 - p ~ 1e-11 would
        # cancel if it were formed by subtraction
        for name in VARIANT_NAMES:
            variant = LossVariant(name)
            for gamma in (0.05, 1.0, 5.0):
                cfg = config(variant, gamma=gamma)
                deltas = (-25.0, -20.0, -15.0, -10.0, -2.5, 0.0, 2.5, 10.0, 15.0, 20.0, 25.0)
                mirrors = [float(mirror_pair_loss(name, gamma, delta)) for delta in deltas]
                for delta, mirror in zip(deltas, mirrors):
                    assert pair_loss(cfg, delta).loss == pytest.approx(mirror, rel=1e-12)
                # the whole margin array in one call
                losses = pair_loss(cfg, np.array(deltas)).loss
                assert losses == pytest.approx(np.array(mirrors), rel=1e-12)


class TestGradientWeight:
    def test_dpo_at_zero_is_exactly_half(self):
        assert gradient_weight(config(LossVariant.DPO), 0.0) == 0.5

    def test_focal_at_zero(self):
        assert gradient_weight(config(LossVariant.FOCAL), 0.0) == pytest.approx(
            W_FOCAL_AT_ZERO, abs=1e-12
        )

    def test_focus_incorrect_at_zero(self):
        assert gradient_weight(config(LossVariant.FOCUS_INCORRECT, gamma=1.0), 0.0) == pytest.approx(
            W_FOCUS_INCORRECT_AT_ZERO, abs=1e-12
        )

    def test_dpo_at_minus_ten(self):
        assert gradient_weight(config(LossVariant.DPO), -10.0) == pytest.approx(
            0.9999546021312976, abs=1e-12
        )

    def test_finite_difference_identity(self):
        """w(Delta) == -dL/dDelta within 1e-6 relative, h = 1e-5, for every
        variant and gamma over the quarter-step grid.

        The FD side runs on the extended-precision mirror: in float64 the
        (1-p) factor cancels catastrophically beyond |Delta| ~ 8, which
        would corrupt the oracle rather than the implementation.
        """
        h = 1e-5
        for name in VARIANT_NAMES:
            variant = LossVariant(name)
            for gamma in (0.05, 0.07, 1.0):
                cfg = config(variant, gamma=gamma)
                fds = np.array([fd_weight(name, gamma, delta, h=h) for delta in GRID_QUARTER])
                for delta, fd in zip(GRID_QUARTER, fds):
                    analytic = gradient_weight(cfg, delta)
                    assert abs(analytic - fd) <= 1e-6 * abs(fd), (
                        f"{name} gamma={gamma} delta={delta}: {analytic} vs {fd}"
                    )
                # the whole margin array in one call, through both entry points
                for weights in (
                    gradient_weight(cfg, np.array(GRID_QUARTER)),
                    pair_loss(cfg, np.array(GRID_QUARTER)).weight,
                ):
                    assert (np.abs(weights - fds) <= 1e-6 * np.abs(fds)).all(), (
                        f"{name} gamma={gamma}"
                    )

    def test_focal_dominance_below_dpo(self):
        # p**g < 1 and 1 + g*log(p) < 1 make the focal weight strictly smaller
        dpo = config(LossVariant.DPO)
        for gamma in (0.05, 0.07):
            cfg = config(LossVariant.FOCAL, gamma=gamma)
            for delta in GRID_QUARTER:
                assert gradient_weight(cfg, delta) < gradient_weight(dpo, delta)

    def test_tail_decay(self):
        cfg = config(LossVariant.FOCAL, gamma=0.05)
        dpo = config(LossVariant.DPO)
        assert gradient_weight(cfg, -10.0) < gradient_weight(cfg, -2.0)
        assert gradient_weight(cfg, 10.0) < gradient_weight(cfg, 0.0)
        # dpo saturates toward 1 in the misranked tail instead of decaying
        assert gradient_weight(dpo, -10.0) > 0.9999

    def test_unimodal_with_interior_argmax(self):
        cfg = config(LossVariant.FOCAL, gamma=0.05)
        values = [gradient_weight(cfg, d) for d in GRID_TENTH]
        diffs = [b - a for a, b in zip(values, values[1:])]
        sign_changes = sum(
            1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
        )
        assert sign_changes == 1
        argmax_delta = GRID_TENTH[max(range(len(values)), key=values.__getitem__)]
        assert -5.0 < argmax_delta < 0.0

    def test_sign_boundary(self):
        # weight < 0 exactly where 1 + gamma * log sigmoid(delta) < 0
        cfg_small = config(LossVariant.FOCAL, gamma=0.05)
        assert all(gradient_weight(cfg_small, d) > 0.0 for d in GRID_QUARTER)

        cfg_one = config(LossVariant.FOCAL, gamma=1.0)
        # bisection oracle for the root of 1 + log sigmoid(delta) on [-1, 0]
        lo, hi = -1.0, 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if 1.0 + log_sigmoid(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(-0.5413, abs=1e-3)
        for delta in GRID_TENTH:
            expected_negative = 1.0 + log_sigmoid(delta) < 0.0
            assert (gradient_weight(cfg_one, delta) < 0.0) == expected_negative

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_loss_shape_argmax(self, gamma):
        # -p**g * log(p) peaks at p = exp(-1/g); grid-search oracle
        ps = [0.001 * k for k in range(1, 1000)]
        values = [-(p**gamma) * math.log(p) for p in ps]
        argmax_p = ps[max(range(len(values)), key=values.__getitem__)]
        assert abs(argmax_p - math.exp(-1.0 / gamma)) <= 0.001 + 1e-12


class TestFocalToDpoRatio:
    """The per-pair ratio w_focal / w_dpo = p^g (1 + g log p) that the
    reports average per subgroup. Its derivative in the margin has the sign
    of 2 + g log p, and p^g is frozen below the clamp (log p < log 1e-12), so
    it is non-decreasing for g <= 2 / 27.63 and falls between the clamp and
    log p = -2/g for larger g."""

    COARSE = [-700.0 + 0.5 * k for k in range(2801)]

    @staticmethod
    def ratio(gamma, deltas):
        deltas = np.asarray(deltas, dtype=np.float64)
        focal = gradient_weight(config(LossVariant.FOCAL, gamma), deltas)
        return focal / gradient_weight(config(LossVariant.DPO), deltas)

    @pytest.mark.parametrize("gamma", [0.05, 0.07])
    def test_non_decreasing_over_the_margin_range(self, gamma):
        mirror = [mirror_weight_ratio(gamma, d) for d in self.COARSE]
        assert all(b >= a for a, b in zip(mirror, mirror[1:]))
        np.testing.assert_allclose(
            self.ratio(gamma, self.COARSE), [float(m) for m in mirror], rtol=1e-9, atol=1e-12
        )
        ratio = self.ratio(gamma, np.linspace(-700.0, 700.0, 140_001))
        assert (np.diff(ratio) >= -np.abs(np.spacing(ratio[:-1]))).all()

    def test_falls_between_clamp_and_turning_point_at_large_gamma(self):
        gamma = 0.5
        clamp = mp.log(mp.mpf(1e-12) / (1 - mp.mpf(1e-12)))  # sigmoid(clamp) = 1e-12
        turn = -2 / gamma - mp.log(1 - mp.exp(-2 / gamma))  # 2 + g log p = 0
        assert (round(float(clamp), 2), round(float(turn), 2)) == (-27.63, -3.98)
        deltas = [-40.0 + 0.05 * k for k in range(1001)]
        mirror = [mirror_weight_ratio(gamma, d) for d in deltas]
        for a, b, ra, rb in zip(deltas, deltas[1:], mirror, mirror[1:]):
            if clamp <= a and b <= turn:
                assert rb < ra, (a, b)
            elif b <= clamp or turn <= a:
                assert rb >= ra, (a, b)


class TestArrays:
    """Every loss-zoo function is elementwise over a margin array."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        margins=st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
        name=st.sampled_from(VARIANT_NAMES),
        gamma=st.floats(min_value=0.01, max_value=GAMMA_MAX),
    )
    def test_element_alone_matches_element_in_array(self, margins, name, gamma):
        # An epoch's last batch is smaller than the others: a pair's loss and
        # weight must not depend on how many other pairs share its call.
        cfg = config(LossVariant(name), gamma=gamma)
        batch = pair_loss(cfg, np.array(margins))
        for i, margin in enumerate(margins):
            alone = pair_loss(cfg, margin)
            assert np.float64(alone.loss).tobytes() == batch.loss[i].tobytes()
            assert np.float64(alone.weight).tobytes() == batch.weight[i].tobytes()
            assert np.float64(alone.weight).tobytes() == np.float64(
                gradient_weight(cfg, margin)
            ).tobytes()

    def test_scalar_in_scalar_out(self):
        cfg = config(LossVariant.FOCAL)
        out = pair_loss(cfg, 0.5)
        for value in (out.loss, out.weight, gradient_weight(cfg, 0.5)):
            assert np.ndim(value) == 0

    def test_factor_shapes(self):
        ps = np.linspace(0.1, 0.9, 9)
        for variant in LossVariant:
            assert modulating_factor(config(variant, gamma=0.5), ps).shape == ps.shape
        assert (modulating_factor(config(LossVariant.DPO, gamma=0.5), ps) == 1.0).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 5, 10])
    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_one_non_finite_margin_rejected(self, bad, position, name):
        margins = np.linspace(-5.0, 5.0, 11)
        margins[position] = bad
        cfg = config(LossVariant(name))
        with pytest.raises(ValueError, match="must be finite"):
            pair_loss(cfg, margins)
        with pytest.raises(ValueError, match="must be finite"):
            gradient_weight(cfg, margins)
        with pytest.raises(ValueError, match="must be finite"):
            preference_probability(margins)


# margins at the edges of float64 and of the logistic's saturation
SWEEP = np.array([
    sign * x for x in (0.0, 5e-324, 1e-300, 0.5, 2.0, 20.0, 36.0, 700.0, 750.0, 1e6)
    for sign in (1.0, -1.0)
])


class TestLadderOracle:
    """The loss zoo against its four-way branch ladders, byte for byte."""

    @staticmethod
    def assert_same_bytes(cfg, margins):
        with np.errstate(over="ignore"):  # the ladders warn where a weight overflows
            loss, weight = ladder_pair_loss(cfg, margins)
        out = pair_loss(cfg, margins)
        assert np.float64(out.loss).tobytes() == np.float64(loss).tobytes()
        assert np.float64(out.weight).tobytes() == np.float64(weight).tobytes()
        assert np.float64(gradient_weight(cfg, margins)).tobytes() == np.float64(weight).tobytes()

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_sweep(self, name, gamma):
        cfg = config(LossVariant(name), gamma=gamma)
        self.assert_same_bytes(cfg, SWEEP)
        for margin in SWEEP:
            self.assert_same_bytes(cfg, float(margin))
        # exact probabilities, from the logistic's and out to where the
        # ladders' 1 - p still lies below 1
        ps = np.concatenate([
            preference_probability(SWEEP), np.linspace(0.01, 0.99, 99),
            [2.0**-52, 1e-15, 1e-12, 1e-6, 1 - 1e-6, 1 - 1e-12, 1 - 2.0**-53],
        ])
        assert (modulating_factor(cfg, ps).tobytes()
                == ladder_modulating_factor(cfg, ps).tobytes())

    @settings(max_examples=200, deadline=None)
    @given(
        margins=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                         max_size=20),
        p=st.floats(min_value=2.0**-52, max_value=1 - 2.0**-53),
        name=st.sampled_from(VARIANT_NAMES),
        gamma=st.sampled_from([0.05, 0.5, 1.0, 5.0]),
    )
    def test_finite_floats(self, margins, p, name, gamma):
        cfg = config(LossVariant(name), gamma=gamma)
        self.assert_same_bytes(cfg, np.array(margins))
        assert np.float64(modulating_factor(cfg, p)).tobytes() == np.float64(
            ladder_modulating_factor(cfg, p)
        ).tobytes()
