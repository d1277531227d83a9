# Period classification of the odd primes.
#
# The Fibonacci residue sequence mod a prime p is periodic, and the period
# lands in one of two divisor families fixed by the last digit of p:
# it divides p-1 when p ends in 1 or 9, and 2p+2 when p ends in 3 or 7.
# p = 5 stands alone with period 20 = 5(p-1) and is grouped with the p-1
# family.  Mapping the family to a sign gives the +1/-1 sequence that the
# randomness demos measure.

from fibrand import nth_prime, pisano_period_bruteforce, pisano_period_prime

print(f"{'prime':>6} {'period':>7}  {'in terms of p':<12} {'sign':>5}")
for i in range(1, 26):
    rec = pisano_period_prime(nth_prime(i))
    print(f"{rec.modulus:>6} {rec.period:>7}  {rec.ratio_label:<12} {rec.bit:>+5d}")

# The order search above never iterates the full sequence; cross-check a
# few rows against the definitional brute force.
for p in (29, 47, 101):
    assert pisano_period_prime(p).period == pisano_period_bruteforce(p)
print("\norder search agrees with brute-force iteration on 29, 47, 101")
