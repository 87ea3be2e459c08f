"""Rate adaptation: ARF state machine, RBAR selection, OAR bursts."""

from macsim.phy import BAD, HIGH, LOW, MID, airtime
from macsim.rate import (Arf, oar_burst_len, oar_cap_burst, rbar_needs_rsh,
                         rbar_select_rate)


# -- ARF --------------------------------------------------------------------

def test_arf_first_miss_keeps_rate():
    st = Arf(11)
    st.on_result(False, now=0)
    assert st.rate == 11


def test_arf_second_miss_steps_down_and_arms_timer():
    st = Arf(11)
    st.on_result(False, now=0)
    st.on_result(False, now=100)
    assert st.rate == 5.5
    assert st.recovery_deadline == 100 + st.timer_us


def test_arf_ten_successes_step_up():
    st = Arf(5.5)
    for i in range(9):
        st.on_result(True, now=i)
        assert st.rate == 5.5
    st.on_result(True, now=9)
    assert st.rate == 11
    assert st.just_upgraded


def test_arf_failure_right_after_upgrade_drops_back():
    st = Arf(5.5)
    for i in range(10):
        st.on_result(True, now=i)
    assert st.rate == 11
    st.on_result(False, now=20)
    assert st.rate == 5.5


def test_arf_success_clears_upgrade_probe():
    st = Arf(5.5)
    for i in range(10):
        st.on_result(True, now=i)
    st.on_result(True, now=20)
    assert not st.just_upgraded
    # One later miss is now an ordinary first miss: rate holds.
    st.on_result(False, now=30)
    assert st.rate == 11


def test_arf_timer_expiry_probes_up():
    st = Arf(11)
    st.on_result(False, now=0)
    st.on_result(False, now=50)  # down to 5.5, timer armed
    assert st.pick(now=100) == 5.5
    assert st.pick(now=50 + st.timer_us) == 11
    assert st.just_upgraded


def test_arf_never_leaves_rate_table():
    st = Arf(1)
    for i in range(6):
        st.on_result(False, now=i)
    assert st.rate == 1
    st2 = Arf(11)
    for i in range(30):
        st2.on_result(True, now=i)
    assert st2.rate == 11


def test_arf_moves_one_step_per_event():
    order = [1, 2, 5.5, 11]
    st = Arf(11)
    seen = [st.rate]
    for i in range(8):
        st.on_result(False, now=i * 10)
        if st.rate != seen[-1]:
            seen.append(st.rate)
    for a, b in zip(seen, seen[1:]):
        assert abs(order.index(a) - order.index(b)) == 1


# -- RBAR -------------------------------------------------------------------

def test_rbar_rate_map():
    assert rbar_select_rate(HIGH) == 11
    assert rbar_select_rate(MID) == 5.5
    assert rbar_select_rate(LOW) == 2
    assert rbar_select_rate(BAD) == 1


def test_rbar_rsh_only_on_change():
    assert not rbar_needs_rsh(11, 11)
    assert rbar_needs_rsh(11, 2)
    assert rbar_needs_rsh(2, 11)


# -- OAR --------------------------------------------------------------------

def test_oar_burst_lengths():
    assert oar_burst_len(11) == 5
    assert oar_burst_len(2) == 1
    assert oar_burst_len(5.5) == 2
    assert oar_burst_len(1) == 1


def test_oar_cap_respects_base_rate_budget():
    # Burst airtime may not exceed one max-size packet at the base rate.
    cap = airtime(2304, 2)
    n = oar_cap_burst(5, 2304, 11, 2304)
    assert n * airtime(2304, 11) <= cap
    assert (n + 1) * airtime(2304, 11) > cap
    # A 1,500-byte budget holds three 2,304-byte frames at 11 Mbps, not five.
    assert oar_cap_burst(5, 2304, 11, 1500) == 3


def test_oar_cap_leaves_small_bursts_alone():
    assert oar_cap_burst(5, 500, 11, 2304) == 5
