import dataclasses
import random

import pytest

from coresleep.power import (
    PowerModelError,
    PowerParams,
    PowerTable,
    critical_speed,
    derive_speeds,
    dynamic_power,
    frequency_of_vdd,
    load_power_params,
    sleep_threshold,
    static_power,
    total_power_at_speed,
    vdd_of_frequency,
)

# Values computed once from the shipped constants file and frozen.
F_MAX = 3628391140.1064963
F_MIN = 687060782.0313144
P_DYN_AT_MAX = 0.15602081902457934
P_STAT_AT_MAX = 0.6580740275027617
T_TH_HALF_MJ = 3.5920365577131004e-3


def with_fields(params, **kw):
    return PowerParams(**{**dataclasses.asdict(params), **kw})


class TestConstantsFile:
    def test_shipped_file_values(self, params):
        assert params.c_eff == 4.3e-11
        assert params.l_g == 4.0e5
        assert params.v_bs == -0.17
        assert params.vdd_min == 0.5
        assert params.vdd_max == 1.0

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("c_eff = 1e-10\n")
        with pytest.raises(PowerModelError, match="missing"):
            load_power_params(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("c_eff = 1e-10\nbogus = 3\n")
        with pytest.raises(PowerModelError, match="unknown"):
            load_power_params(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("c_eff = not-a-number\n")
        with pytest.raises(PowerModelError, match="bad value"):
            load_power_params(path)

    @pytest.mark.parametrize("name, text", [("c_eff", "nan"), ("k3", "inf"), ("vdd_min", "-inf")])
    def test_non_finite_value(self, tmp_path, params, name, text):
        fields = {**dataclasses.asdict(params), name: text}
        path = tmp_path / "bad.conf"
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        with pytest.raises(PowerModelError, match=f"{name} must be finite"):
            load_power_params(path)

    def test_line_without_equals_sign(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("# constants\nc_eff 1e-10\n")
        with pytest.raises(PowerModelError, match=":2: expected 'name = value'"):
            load_power_params(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("c_eff = 1e-10\nc_eff = 2e-10\n")
        with pytest.raises(PowerModelError, match="duplicate"):
            load_power_params(path)


class TestFrequency:
    def test_monotone_on_grid(self, params):
        vs = [params.vdd_min + i * (params.vdd_max - params.vdd_min) / 99 for i in range(100)]
        fs = [frequency_of_vdd(params, v) for v in vs]
        assert all(a < b for a, b in zip(fs, fs[1:]))
        assert fs[0] > 0

    def test_endpoints(self, params):
        assert frequency_of_vdd(params, params.vdd_max) == pytest.approx(F_MAX, rel=1e-12)
        assert frequency_of_vdd(params, params.vdd_min) == pytest.approx(F_MIN, rel=1e-12)

    def test_out_of_range(self, params):
        with pytest.raises(PowerModelError):
            frequency_of_vdd(params, params.vdd_min - 0.05)
        with pytest.raises(PowerModelError):
            frequency_of_vdd(params, params.vdd_max + 0.05)

    def test_invalid_constants_rejected(self, params):
        # A threshold above the whole voltage range leaves no positive overdrive.
        with pytest.raises(PowerModelError):
            with_fields(params, vth1=2.0)

    @pytest.mark.parametrize("changes, match", [
        (dict(c_eff=0.0), "c_eff must be positive"),
        (dict(l_d=-1.0), "l_d must be positive"),
        (dict(k6=0.0), "k6 must be positive"),
        (dict(epsilon=-1e-3), "epsilon must be positive"),
        (dict(l_g=-1.0), "l_g must be nonnegative"),
        (dict(vdd_min=1.0), "need 0 < vdd_min < vdd_max"),
        (dict(vdd_min=0.0), "need 0 < vdd_min < vdd_max"),
        (dict(k1=-1.0), "k1 must exceed -1"),
    ])
    def test_constants_outside_their_domain_rejected(self, params, changes, match):
        with pytest.raises(PowerModelError, match=match):
            with_fields(params, **changes)


class TestVoltageInversion:
    def test_endpoint_round_trips(self, params):
        assert vdd_of_frequency(params, F_MAX) == params.vdd_max
        assert vdd_of_frequency(params, F_MIN) == params.vdd_min

    def test_round_trip_grid(self, params):
        for i in range(100):
            v = params.vdd_min + i * (params.vdd_max - params.vdd_min) / 99
            back = vdd_of_frequency(params, frequency_of_vdd(params, v))
            assert abs(back - v) <= 1e-8

    def test_matches_closed_form(self, params):
        # Independent algebraic inverse of the frequency relation.
        rng = random.Random(7)
        for _ in range(50):
            f = F_MIN + rng.random() * (F_MAX - F_MIN)
            overdrive = (f * params.l_d * params.k6) ** (1.0 / params.epsilon)
            expected = (overdrive + params.vth1 - params.k2 * params.v_bs) / (1.0 + params.k1)
            assert vdd_of_frequency(params, f) == pytest.approx(expected, abs=1e-8)

    def test_out_of_range(self, params):
        with pytest.raises(PowerModelError):
            vdd_of_frequency(params, F_MAX * 1.01)
        with pytest.raises(PowerModelError):
            vdd_of_frequency(params, F_MIN * 0.99)


class TestPower:
    def test_dynamic_zero_frequency(self, params):
        assert dynamic_power(params, 0.8, 0.0) == 0.0

    def test_dynamic_quadratic_in_vdd(self, params):
        assert dynamic_power(params, 1.0, 1e9) == 4.0 * dynamic_power(params, 0.5, 1e9)

    def test_dynamic_fixture(self, params):
        assert dynamic_power(params, params.vdd_max, F_MAX) == pytest.approx(P_DYN_AT_MAX, rel=1e-12)

    def test_dynamic_negative_rejected(self, params):
        with pytest.raises(PowerModelError):
            dynamic_power(params, -0.1, 1e9)
        with pytest.raises(PowerModelError):
            dynamic_power(params, 0.5, -1e9)

    def test_static_no_components(self, params):
        assert static_power(with_fields(params, l_g=0.0), 0.8) == 0.0

    def test_static_monotone(self, params):
        vs = [params.vdd_min + i * (params.vdd_max - params.vdd_min) / 99 for i in range(100)]
        ps = [static_power(params, v) for v in vs]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_static_out_of_range(self, params):
        # rejected like frequency_of_vdd's
        for vdd in (params.vdd_min - 0.05, params.vdd_max + 0.05):
            with pytest.raises(PowerModelError, match=f"vdd={vdd} outside"):
                static_power(params, vdd)

    def test_static_fixture(self, params):
        assert static_power(params, params.vdd_max) == pytest.approx(P_STAT_AT_MAX, rel=1e-12)

    def test_total_at_full_speed(self, params, derived):
        expected = dynamic_power(params, params.vdd_max, F_MAX) + static_power(params, params.vdd_max)
        assert total_power_at_speed(params, derived, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_total_dominates_static(self, params, derived):
        for i in range(20):
            s = derived.min_scale + i * (1.0 - derived.min_scale) / 19
            vdd = vdd_of_frequency(params, s * derived.f_max)
            assert total_power_at_speed(params, derived, s) >= static_power(params, vdd)

    def test_total_monotone(self, params, derived):
        ss = [derived.min_scale + i * (1.0 - derived.min_scale) / 99 for i in range(100)]
        ps = [total_power_at_speed(params, derived, s) for s in ss]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_total_below_min_speed_rejected(self, params, derived):
        with pytest.raises(PowerModelError):
            total_power_at_speed(params, derived, derived.min_scale / 2)


class TestCriticalSpeed:
    def test_calibrated_value(self, derived):
        assert abs(derived.critical_scale - 0.40) <= 0.02

    def test_derived_ordering(self, derived):
        assert derived.f_min <= derived.f_cri <= derived.f_max
        assert 0.0 < derived.critical_scale <= 1.0

    def test_leakage_free_hits_floor(self, params):
        # Without leakage, energy per cycle grows with speed: the minimum
        # sits at the lowest available speed.
        lean = with_fields(params, l_g=0.0)
        d = derive_speeds(lean)
        assert abs(d.critical_scale - d.min_scale) <= 1e-3

    def test_matches_dense_grid(self, params, derived):
        f_max = derived.f_max
        s_min = derived.min_scale

        def energy_per_cycle(s):
            return total_power_at_speed(params, derived, s) / (s * f_max)

        best = min(
            (s_min + i * (1.0 - s_min) / 10_000 for i in range(10_001)),
            key=energy_per_cycle,
        )
        assert abs(critical_speed(params, derived) - best) <= 2e-3

    def test_energy_per_cycle_unimodal(self, params, derived):
        s_min = derived.min_scale
        es = [
            total_power_at_speed(params, derived, s) / (s * derived.f_max)
            for s in (s_min + i * (1.0 - s_min) / 1000 for i in range(1001))
        ]
        signs = [b > a for a, b in zip(es, es[1:])]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips <= 1

    def test_insensitive_to_capacitance_scale(self, params, derived):
        base = derived.critical_scale
        for factor in (0.9, 1.1):
            d = derive_speeds(with_fields(params, c_eff=params.c_eff * factor))
            assert abs(d.critical_scale - base) < 0.05


class TestSleepThreshold:
    def test_zero_overhead(self, params, derived):
        assert sleep_threshold(params, derived, 0.0) == 0.0

    def test_linear(self, params, derived):
        assert sleep_threshold(params, derived, 1e-3) == pytest.approx(
            2.0 * sleep_threshold(params, derived, 5e-4), rel=1e-12
        )

    def test_fixture(self, params, derived):
        assert sleep_threshold(params, derived, 5e-4) == pytest.approx(T_TH_HALF_MJ, rel=1e-9)

    def test_negative_rejected(self, params, derived):
        with pytest.raises(PowerModelError):
            sleep_threshold(params, derived, -1e-3)


def test_power_table_matches_exact(params, derived):
    table = PowerTable(params, derived)
    rng = random.Random(11)
    for _ in range(200):
        s = derived.min_scale + rng.random() * (1.0 - derived.min_scale)
        assert table.power(s) == pytest.approx(
            total_power_at_speed(params, derived, s), rel=1e-6
        )
