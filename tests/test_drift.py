import numpy as np
import pytest

from stochwave.drift import FULLY_IMPLICIT, MODIFIED_CN, PolynomialDrift
from stepping import reference_potential, reference_potential_quotient

CUBIC = PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5)  # f = -u - u^3
DEG11 = PolynomialDrift([-1.0] + [0.0] * 9 + [-1.0], alpha=1.0, lam=1.0 / 6.0)
DEG7 = PolynomialDrift([-1.0] + [0.0] * 5 + [-1.0], alpha=1.0, lam=0.25)


def test_value_cubic():
    assert CUBIC.value(2.0) == pytest.approx(-10.0)


def test_value_zero_at_origin():
    for drift in (CUBIC, DEG11, PolynomialDrift([3.0, 0.0, -2.0])):
        assert drift.value(0.0) == 0.0


def test_value_deg11():
    assert DEG11.value(1.0) == pytest.approx(-2.0)


def test_potential_cubic():
    # V(1) = 1/2 + 1/4
    assert CUBIC.potential(1.0) == pytest.approx(0.75)


def test_potential_zero_at_origin():
    assert CUBIC.potential(0.0) == 0.0


def test_potential_even_for_odd_drift():
    u = np.linspace(-3, 3, 41)
    assert np.allclose(CUBIC.potential(u), CUBIC.potential(-u), rtol=1e-13)


def test_quotient_linear_drift():
    lin = PolynomialDrift([-1.0])
    # V = u^2/2, quotient = -(a+b)/2
    assert lin.potential_quotient(3.0, 1.0) == pytest.approx(-2.0)


def test_quotient_diagonal_equals_value():
    rng = np.random.default_rng(0)
    a = rng.uniform(-5, 5, 100)
    for drift in (CUBIC, DEG11):
        q = drift.potential_quotient(a, a)
        f = drift.value(a)
        assert np.allclose(q, f, rtol=1e-12, atol=1e-13)


def test_quotient_matches_difference_quotient_oracle():
    val = CUBIC.potential_quotient(1.7, 0.3)
    oracle = -(CUBIC.potential(1.7) - CUBIC.potential(0.3)) / (1.7 - 0.3)
    assert val == pytest.approx(oracle, rel=1e-12)


def test_quotient_oracle_many_random_pairs():
    rng = np.random.default_rng(1)
    a = rng.uniform(-4, 4, 10_000)
    b = rng.uniform(-4, 4, 10_000)
    near = np.abs(a - b) < 1e-3
    a[near] += 0.01  # keep the oracle's division well-posed
    for drift in (CUBIC, DEG11):
        q = drift.potential_quotient(a, b)
        oracle = -(drift.potential(a) - drift.potential(b)) / (a - b)
        assert np.allclose(q, oracle, rtol=1e-12, atol=1e-12)


def test_quotient_symmetric():
    rng = np.random.default_rng(2)
    a = rng.uniform(-3, 3, 500)
    b = rng.uniform(-3, 3, 500)
    q1 = CUBIC.potential_quotient(a, b)
    q2 = CUBIC.potential_quotient(b, a)
    assert np.allclose(q1, q2, rtol=1e-12, atol=1e-14)


def test_key_energy_identity():
    # (a-b) * quotient(a,b) = -(V(a) - V(b)), the step-energy cancellation
    rng = np.random.default_rng(3)
    a = rng.uniform(-3, 3, 1000)
    b = rng.uniform(-3, 3, 1000)
    lhs = (a - b) * CUBIC.potential_quotient(a, b)
    rhs = -(CUBIC.potential(a) - CUBIC.potential(b))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_derivative_cubic():
    assert CUBIC.derivative(1.0) == pytest.approx(-4.0)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(4)
    u = rng.uniform(-2, 2, 20)
    h = 1e-6
    fd = (CUBIC.value(u + h) - CUBIC.value(u - h)) / (2 * h)
    assert np.allclose(CUBIC.derivative(u), fd, rtol=1e-6)


def test_potential_derivative_is_minus_value():
    rng = np.random.default_rng(5)
    u = rng.uniform(-2, 2, 20)
    h = 1e-6
    fd = (CUBIC.potential(u + h) - CUBIC.potential(u - h)) / (2 * h)
    assert np.allclose(fd, -CUBIC.value(u), rtol=1e-6, atol=1e-8)


def test_quotient_da_matches_finite_difference():
    rng = np.random.default_rng(6)
    a = rng.uniform(-2, 2, 20)
    b = rng.uniform(-2, 2, 20)
    h = 1e-6
    for drift in (CUBIC, DEG11):
        fd = (
            drift.potential_quotient(a + h, b) - drift.potential_quotient(a - h, b)
        ) / (2 * h)
        assert np.allclose(drift.potential_quotient_da(a, b), fd, rtol=2e-5, atol=1e-7)


def test_quotient_da_on_diagonal():
    # at b == a the quotient slope equals f'(a)/2 (limit of the symmetric form)
    a = np.array([0.3, -1.2, 2.0])
    da = CUBIC.potential_quotient_da(a, a)
    assert np.allclose(da, 0.5 * CUBIC.derivative(a), rtol=1e-12)


def test_validate_cubic_ok():
    assert CUBIC.validate(MODIFIED_CN) == []
    assert CUBIC.validate(FULLY_IMPLICIT) == []


def test_validate_coercivity_violation_with_witness():
    bad = PolynomialDrift([0.0, 0.0, 1.0], alpha=0.0, lam=0.5)  # f = +u^3
    violations = bad.validate(MODIFIED_CN)
    assert len(violations) == 1
    assert "coercivity" in violations[0]
    assert "u=" in violations[0]


def test_validate_even_degree_rejected_first():
    bad = PolynomialDrift([-1.0, -1.0], alpha=1.0, lam=0.5)
    violations = bad.validate(MODIFIED_CN)
    assert len(violations) == 1
    assert "odd" in violations[0]


@pytest.mark.parametrize(
    "drift, names",
    [
        (PolynomialDrift([np.nan, 0.0, -1.0], alpha=1.0, lam=0.5), "coefficients"),
        (PolynomialDrift([-1.0, 0.0, -np.inf], alpha=1.0, lam=0.5), "coefficients"),
        (PolynomialDrift([-1.0, 0.0, -1.0], alpha=np.nan, lam=0.5), "alpha"),
        (PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=np.inf), "lambda"),
        (PolynomialDrift([np.nan, 0.0, -1.0], alpha=np.nan, lam=0.5), "coefficients and alpha"),
    ],
    ids=["coeff-nan", "coeff-inf", "alpha-nan", "lambda-inf", "coeff-and-alpha"],
)
@pytest.mark.parametrize("scheme", [MODIFIED_CN, FULLY_IMPLICIT])
def test_validate_non_finite_reported_before_roots(drift, names, scheme):
    assert drift.validate(scheme) == [f"drift {names} must be finite"]


def test_validate_convexity_for_fully_implicit():
    # f = u - u^3 has f' > 0 near zero, so the potential is not convex
    nonconvex = PolynomialDrift([1.0, 0.0, -1.0], alpha=0.0, lam=0.25)
    assert nonconvex.validate(FULLY_IMPLICIT)
    only_mcn = nonconvex.validate(MODIFIED_CN)
    assert all("convex" not in v for v in only_mcn)


def test_validate_equality_case_exact():
    # coercivity attained with equality must pass at tolerance zero
    assert CUBIC.validate(MODIFIED_CN) == []
    deg11 = PolynomialDrift([-1.0] + [0.0] * 9 + [-1.0], alpha=1.0, lam=1.0 / 6.0)
    assert deg11.validate(MODIFIED_CN) == []
    # gap u^2 (u - 1)^2: equality at a critical point away from zero
    assert PolynomialDrift([-2.0, 6.0, -4.0]).validate(MODIFIED_CN) == []


def test_validate_gap_negative_only_far_out():
    # gap u^2/2 - 1e-7 u^4 is positive for |u| < 2236 and -5e7 at u = 5000:
    # the leading coefficient decides, wherever the sign change lies
    drift = PolynomialDrift([-1.0, 0.0, -1.0], lam=0.5 + 2e-7)
    violations = drift.validate(MODIFIED_CN)
    assert len(violations) == 1 and "coercivity" in violations[0]


def test_empty_coeffs_rejected():
    with pytest.raises(ValueError):
        PolynomialDrift([])


def test_flags():
    assert PolynomialDrift([0.0]).is_zero
    assert PolynomialDrift([-2.0]).is_linear
    assert not CUBIC.is_linear


@pytest.mark.parametrize(
    "drift",
    [
        CUBIC,
        DEG7,
        DEG11,
        PolynomialDrift([0.5, -1.0, 0.25, 0.0, -2.0]),
        PolynomialDrift([-1.0], lam=1.0),
        PolynomialDrift([0.0]),
    ],
    ids=["cubic", "deg7", "deg11", "dense-deg5", "linear", "zero"],
)
def test_kernels_keep_the_bits_of_plain_horner(drift):
    # strided views, as the stepper and the ledger pass them, with exact
    # zeros and the diagonal a == b among the points
    rng = np.random.default_rng(7)
    base = rng.normal(scale=1.5, size=(2, 5, 4, 13))
    base[:, :, 0, :3] = 0.0
    base[1, :, :, ::4] = base[0, :, :, ::4]
    a, b = base[0, :, :, 1:12], base[1, :, :, 1:12]
    before = base.copy()
    for u in (a, b, 0.7, 0.0):
        assert np.array_equal(drift.potential(u), reference_potential(drift, u))
    buf = np.full(a.shape, np.nan)  # the ledger's row block of its product array
    assert drift.potential(a, out=buf) is buf
    assert buf.tobytes() == drift.potential(a).tobytes()  # bit for bit, signed zeros too
    for x, y in ((a, b), (b, a), (a, a), (1.7, 0.3), (0.0, 0.0)):
        assert np.array_equal(
            drift.potential_quotient(x, y), reference_potential_quotient(drift, x, y)
        )
    assert np.array_equal(base, before)  # neither kernel writes into its inputs
