"""Host-speed scaling of timings between calibrations."""

import pytest

from run import REFERENCE_CAL_S, speed_factors


def test_one_factor_per_gap_between_calibrations():
    assert len(speed_factors([1, 2, 3, 4])) == 3


def test_a_slow_spell_cancels():
    ref = int(REFERENCE_CAL_S * 1e9)
    # the host runs at full speed, then at half speed: a pass that takes
    # 2 s at full speed takes 4 s in the slow spell
    cal = [ref, ref, 2 * ref, 2 * ref]
    walls = [2.0, 3.0, 4.0]
    scaled = [w * f for w, f in zip(walls, speed_factors(cal))]
    assert scaled[0] == pytest.approx(2.0)
    assert scaled[1] == pytest.approx(2.0)  # straddles the change
    assert scaled[2] == pytest.approx(2.0)
