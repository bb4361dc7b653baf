"""Interpolation laws and the penalty continuation schedule."""

import numpy as np
import pytest

from topomg.material import E_MAX, E_MIN, PenaltySchedule, SimpLaw, StressSimpLaw


def central_fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_simp_endpoints():
    law = SimpLaw(penalty=3.0)
    assert law.modulus(1.0) == pytest.approx(1.0)
    assert law.modulus(0.0) == pytest.approx(1e-10)


def test_simp_linear_case():
    law = SimpLaw(penalty=1.0)
    assert law.modulus(0.5) == pytest.approx(0.5 + 0.5e-10, rel=0, abs=1e-16)


def test_simp_rejects_out_of_range():
    law = SimpLaw()
    with pytest.raises(ValueError):
        law.modulus(1.2)
    with pytest.raises(ValueError):
        law.modulus(-0.1)


def test_simp_monotone_and_bounded():
    law = SimpLaw(penalty=3.5)
    rho = np.linspace(0, 1, 101)
    E = law.modulus(rho)
    assert np.all(np.diff(E) > 0)
    assert E.min() >= E_MIN and E.max() <= E_MAX


def test_simp_derivative_constant_for_p1():
    rho = np.array([0.0, 0.3, 1.0])  # rho ** 0.0 is exactly 1.0, at rho = 0 too
    assert np.array_equal(SimpLaw(penalty=1.0).modulus_derivative(rho), [1.0 - 1e-10] * 3)
    assert np.array_equal(StressSimpLaw(penalty=1.0).modulus_derivative(rho),
                          [0.0, 1.0, 1.0])


def test_simp_derivative_zero_at_origin_p2():
    law = SimpLaw(penalty=2.0)
    assert law.modulus_derivative(0.0) == 0.0


def test_simp_derivative_matches_fd():
    for p in (1.0, 2.0, 3.0, 4.0):
        law = SimpLaw(penalty=p)
        for rho in np.arange(0.1, 0.95, 0.1):
            fd = central_fd(law.modulus, rho)
            assert law.modulus_derivative(rho) == pytest.approx(fd, rel=1e-6)


def test_simp_derivative_fd_specific_point():
    law = SimpLaw(penalty=3.0)
    fd = central_fd(law.modulus, 0.7)
    assert law.modulus_derivative(0.7) == pytest.approx(fd, rel=1e-6)


def test_stress_simp_threshold():
    law = StressSimpLaw(penalty=3.0)
    assert law.modulus(0.09) == 0.0
    assert law.modulus(1.0) == pytest.approx(1.0)
    assert StressSimpLaw(penalty=2.0).modulus(0.5) == pytest.approx(0.25)


def test_stress_simp_continuous_from_right():
    law = StressSimpLaw(penalty=3.0)
    assert law.modulus(0.1) == pytest.approx(0.1 ** 3)
    assert law.modulus_derivative(0.1) == pytest.approx(3 * 0.1 ** 2)
    assert law.modulus_derivative(0.0999) == 0.0


def test_stress_vs_simp_ratio_discontinuity_only_at_threshold():
    law = SimpLaw(penalty=3.0)
    slaw = StressSimpLaw(penalty=3.0)
    rho = np.linspace(0.01, 1.0, 500)
    ratio = slaw.modulus(rho) / law.modulus(rho)
    jumps = np.abs(np.diff(ratio))
    big = rho[1:][jumps > 0.5]
    assert big.size == 1 and abs(big[0] - 0.1) < 0.01


def test_stress_derivative_matches_fd_above_threshold():
    for p in (2.0, 3.0):
        law = StressSimpLaw(penalty=p)
        for rho in (0.2, 0.5, 0.9):
            fd = central_fd(law.modulus, rho)
            assert law.modulus_derivative(rho) == pytest.approx(fd, rel=1e-6)


def test_schedule_cantilever():
    s = PenaltySchedule(start=1.0, stop=4.0, increment=0.25, steps_per_value=20)
    vals = s.values()
    assert len(vals) == 13
    assert s.total_iterations() == 260
    assert vals[0] == (1.0, 20) and vals[-1] == (4.0, 20)


def test_schedule_constant():
    s = PenaltySchedule(start=1.0, stop=1.0, increment=0.25, steps_per_value=5)
    assert s.values() == [(1.0, 5)]


def test_schedule_column_two_legs():
    s = PenaltySchedule(start=1.0, stop=4.0, increment=0.125, steps_per_value=30,
                        stop2=12.0, increment2=0.25, steps2=40)
    vals = s.values()
    first = [v for v in vals if v[1] == 30]
    second = [v for v in vals if v[1] == 40]
    assert len(first) == 25 and len(second) == 32
    assert s.total_iterations() == 750 + 1280
    ps = [p for p, _ in vals]
    assert ps == sorted(ps)


def test_schedule_never_passes_a_stop():
    s = PenaltySchedule(start=1.0, stop=2.0, increment=0.6, steps_per_value=1)
    assert s.values() == [(1.0, 1), (1.6, 1)]
    s = PenaltySchedule(start=1.0, stop=1.0, increment=0.5, steps_per_value=1,
                        stop2=5.0, increment2=0.6)
    assert [p for p, _ in s.values()] == [1.0, 1.6, 2.2, 2.8, 3.4, 4.0, 4.6]
    # a span that is a whole number of increments only up to rounding keeps its stop
    assert PenaltySchedule(start=1.0, stop=4.0, increment=0.1).values()[-1][0] == 4.0


def test_schedule_flat_length():
    s = PenaltySchedule(start=1.0, stop=2.0, increment=0.5, steps_per_value=4)
    flat = s.flat()
    assert flat.size == 12
    assert np.all(np.diff(flat) >= 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        PenaltySchedule(start=4.0, stop=1.0)
    with pytest.raises(ValueError):
        PenaltySchedule(increment=-0.5)
    with pytest.raises(ValueError, match="steps"):
        PenaltySchedule(steps_per_value=0)
    with pytest.raises(ValueError, match="steps"):
        PenaltySchedule(stop2=5.0, steps2=0)
    # a second leg that divides by zero, runs backwards or would be dropped
    for bad in ({"stop2": 5.0, "increment2": 0.0}, {"stop2": 5.0, "increment2": -0.5}):
        with pytest.raises(ValueError, match="increment2"):
            PenaltySchedule(**bad)
    with pytest.raises(ValueError, match="stop2"):
        PenaltySchedule(stop=2.0, stop2=1.5, steps2=3)
    for leg in ({"increment2": 0.25}, {"steps2": 3}):
        with pytest.raises(ValueError, match="stop2"):
            PenaltySchedule(stop=2.0, increment=0.5, steps_per_value=1, **leg)
