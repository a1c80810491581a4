"""Fixed reference task that measures how fast this host runs Python right now.

Usage: python benchmarks/calibrate.py

Pure Python and stdlib only, and independent of tanpoly, so no change to
the program can move it. Its work resembles the program's: products of
dict-of-int polynomials with growing big-int coefficients, and a
fraction accumulated with gcd reductions. The harness times it in a
fresh interpreter between invocations and divides the mean pass time by
its mean time, so that a host that runs everything slower for a while
does not read as a slower program. It prints one checksum line, which
the harness checks.
"""

import math


def polymul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def main() -> None:
    # (1 + y^2)^700: coefficients up to C(700, 350), about 700 bits.
    acc = {0: 1}
    for _ in range(700):
        acc = polymul(acc, {0: 1, 2: 1})
    num, den = 0, 1
    for k in range(1, 4500):
        num, den = num * k + den * 3 ** (k % 50), den * k
        g = math.gcd(num, den)
        num, den = num // g, den // g
    print(len(acc), sum(acc.values()).bit_length(), num % 1_000_003, den % 1_000_003)


if __name__ == "__main__":
    main()
