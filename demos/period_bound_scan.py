# The 6m ceiling on periods.
#
# Over all moduli the period never exceeds 6m, and the ceiling is reached
# exactly at m = 2 * 5^n.  Scan every modulus up to 2500 (by order-finding,
# so the whole scan is a fraction of a second), confirm the bound, and look
# at the equality cases.

from fibrand import expected_equality_moduli, verify_period_bound

checks = verify_period_bound(2500)

assert all(c.bound_met for c in checks)
print(f"period <= 6m holds for all {len(checks)} moduli up to 2500")

hits = [c for c in checks if c.equality]
print("\nequality cases (period == 6m):")
for c in hits:
    print(f"  m = {c.modulus:>5}  period = {c.period}")
assert [c.modulus for c in hits] == expected_equality_moduli(2500) == [10, 50, 250, 1250]

# Near misses are interesting too: the ratio period/m clusters well below 6.
best = sorted(checks, key=lambda c: c.period / c.modulus, reverse=True)[:8]
print("\nlargest period/m ratios:")
for c in best:
    print(f"  m = {c.modulus:>5}  period = {c.period:>6}  ratio = {c.period / c.modulus:.3f}")
