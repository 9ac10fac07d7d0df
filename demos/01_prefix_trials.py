"""Run a small seeded prefix-trial experiment and inspect the raw numbers.

A trial generates fresh random candidates until one equals the target
prefix; attempts are counted exactly, successful candidate included.
Consecutive trials of one prefix length share a stream derived from (seed,
first iteration of their block, prefix length), each trial one gap between
matches, so the attempt matrix below is reproducible bit for bit on any
machine.
"""

from monkeytyper import LETTERS_AND_SPACE, TargetText
from monkeytyper.simulate import ExperimentConfig, run_experiment

config = ExperimentConfig(
    target=TargetText("To be"),
    alphabet=LETTERS_AND_SPACE,  # 52 letters + space, like the original trial code
    max_prefix_length=3,
    iterations=5,
    seed=2024,
)
table = run_experiment(config)

print(f"target {config.target.text!r}, alphabet of {config.alphabet.size} symbols")
print(f"{'test':>6} " + " ".join(f"{'n=' + str(n):>10}" for n in table.prefix_lengths))
for i, row in enumerate(zip(*table.attempts), start=1):  # attempts[column][iteration]
    print(f"{i:>6} " + " ".join(f"{attempts:>10,}" for attempts in row))
print(f"{'mean':>6} " + " ".join(f"{avg:>10,.1f}" for avg in table.attempts_averages))

# The expectation for prefix length n is 53^n; sample means over 5 trials
# are noisy (the waiting time is geometric: sigma is about the mean).
for n, avg in zip(table.prefix_lengths, table.attempts_averages):
    print(f"n={n}: mean {avg:>10,.1f} vs expectation {53**n:>10,}")

# Same seed, same matrix: rerunning is free of surprises.
again = run_experiment(config)
assert again.attempts_averages == table.attempts_averages
print("rerun with the same seed reproduced the matrix exactly")
