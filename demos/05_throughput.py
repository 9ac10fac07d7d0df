"""Convert projected attempt counts into time without trusting trial clocks.

Per-trial wall clocks are noisy and hardware-bound. A cleaner route to a
time estimate: take this machine's candidate throughput from a short run's
longest column (its trials' attempts over their seconds), then divide
projected attempts by it. The resulting series is monotone in prefix
length by construction, unlike raw trial timings.
"""

from monkeytyper import (
    HAMLET_PHRASE,
    LETTERS_AND_SPACE,
    TargetText,
    convert_time,
    fit_growth_model,
    published_averages,
    build_projection_table,
)
from monkeytyper.analysis import UNIVERSE_AGE_YEARS
from monkeytyper.simulate import ExperimentConfig, run_experiment

config = ExperimentConfig(
    target=TargetText(HAMLET_PHRASE),
    alphabet=LETTERS_AND_SPACE,
    max_prefix_length=4,
    iterations=3,
    seed=0,
)
trials = run_experiment(config)
rate = trials.attempts_averages[-1] / trials.time_averages[-1]
print(f"this machine generates about {rate:,.0f} length-4 candidates per second")

model = fit_growth_model(*published_averages())
table = build_projection_table(model, TargetText(HAMLET_PHRASE))

print(f"\n{'n':>3} {'projected attempts':>20} {'implied seconds':>16}")
for row in table.rows[::8]:
    implied = row.attempts / rate
    print(f"{row.prefix_len:>3} {row.attempts.to_string(3):>20} {implied.to_string(3):>16}")

implied_total = table.final.attempts / rate
breakdown = convert_time(implied_total)
print(
    f"\nat this throughput the full phrase needs {implied_total.to_string(3)} s "
    f"= {breakdown.years.to_string(3)} years"
)
print(f"(the universe is {UNIVERSE_AGE_YEARS:.2e} years old)")
