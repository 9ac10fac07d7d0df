"""Extrapolate measured averages to the full 41-character phrase.

The published experiment measured average attempts and seconds for the
prefixes 'T' through 'To be', then extended both series as geometric
progressions: each value is its predecessor times a growth factor, the mean
of the measured consecutive ratios. Five measured points project to a
41-row table whose tail lands near 2.68e69 attempts and 2.95e66 seconds.
"""

from monkeytyper import (
    HAMLET_PHRASE,
    TargetText,
    build_projection_table,
    convert_time,
    fit_growth_model,
    published_averages,
)

model = fit_growth_model(*published_averages())
print(f"measured attempts averages: {model.attempts_base}")
print(f"attempts growth factor: {model.attempts_growth_factor:.5f}")
print(f"time growth factor:     {model.time_growth_factor:.5f}")

table = build_projection_table(model, TargetText(HAMLET_PHRASE))
print(f"\n{'n':>3} {'text part':<24} {'attempts':>10} {'seconds':>10} {'region'}")
for row in table.rows:
    label = row.text_part if len(row.text_part) <= 22 else row.text_part[:19] + "..."
    print(
        f"{row.prefix_len:>3} {label:<24} {row.attempts.to_string(3):>10} "
        f"{row.seconds.to_string(3):>10} {row.region}"
    )

final = table.final
breakdown = convert_time(final.seconds)
print(f"\nfull phrase: {final.attempts.to_string(3)} attempts")
print(f"which is {breakdown.seconds.to_string(3)} s = {breakdown.hours.to_string(3)} h")
print(
    f"= {breakdown.years.to_string(3)} years "
    f"= {breakdown.universe_age_ratio.to_string(3)} universe ages"
)
