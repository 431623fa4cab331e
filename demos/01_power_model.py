"""Walk through the core power model.

Shows the frequency-voltage relation, the two power components, the
energy-per-cycle curve whose minimum defines the critical speed, and the
break-even sleep threshold.
"""

from coresleep import (
    default_power_params,
    derive_speeds,
    dynamic_power,
    frequency_of_vdd,
    sleep_threshold,
    static_power,
    total_power_at_speed,
    vdd_of_frequency,
)

params = default_power_params()
derived = derive_speeds(params)

print("frequency range:")
print(f"  f_min = {derived.f_min / 1e9:.3f} GHz at {params.vdd_min} V")
print(f"  f_max = {derived.f_max / 1e9:.3f} GHz at {params.vdd_max} V")

print("\npower at the voltage endpoints:")
for vdd in (params.vdd_min, params.vdd_max):
    f = frequency_of_vdd(params, vdd)
    print(f"  vdd={vdd:.2f} V: dynamic {dynamic_power(params, vdd, f)*1e3:7.1f} mW, "
          f"static {static_power(params, vdd)*1e3:7.1f} mW")

# energy per cycle is what the speed floor minimizes: running slower than
# the critical speed makes every cycle pay more leakage than it saves in
# switching energy
step = (1.0 - derived.min_scale) / 199
speeds = [derived.min_scale + i * step for i in range(200)]
grid_min = min(speeds,
               key=lambda s: total_power_at_speed(params, derived, s) / (s * derived.f_max))
print(f"\ncritical speed: {derived.critical_scale:.4f} of f_max "
      f"(grid minimum at {grid_min:.4f})")

print("\nsleep threshold for a few switching overheads:")
for e_sw in (1e-4, 5e-4, 1e-3):
    t_th = sleep_threshold(params, derived, e_sw)
    print(f"  E_sw = {e_sw*1e3:.1f} mJ -> T_th = {t_th*1e3:.3f} ms")

print("\nround trip through the voltage inversion:")
f = 0.6 * derived.f_max
v = vdd_of_frequency(params, f)
print(f"  f = {f/1e9:.3f} GHz -> vdd = {v:.6f} V -> f = {frequency_of_vdd(params, v)/1e9:.3f} GHz")
