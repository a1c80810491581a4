"""The benchmark's workloads: which CLI invocations a pass makes, and how
each output is checked.

A workload function takes the run's seeded `random.Random` and returns the
invocations of one pass as (argv, check) pairs; every pass of a run makes
the same invocations. `check(stdout)` returns
None when the output is right and a one-line reason otherwise. The checks
share no code with tanpoly.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import partial

# `verify --suite all` must print at least these suites, each reading pass.
VERIFY_SUITES = ("rt-recurrences", "corollary", "dz-expansion", "hoffman", "theorem2", "tables", "beeler")
VERIFY_LINE = re.compile(r"([a-z0-9-]+): pass \(checked \d+\)")

# tan(n arctan t) at t = +-p/7: for each n the seed draws the sign and p
# from TAN_NUMS[n]. The denominator is fixed and p is kept to 4..6 because
# tan_beeler's cost depends on the size of p and q (0.7 s at 1/2, 3.4 s at
# 8/9 for n = 3000), so a wider choice would make seeds differ in work, not
# only in values. n = 3000 takes most of a pass and still costs up to 10 %
# more at 5/7 or 6/7 than at 4/7, so its p is fixed.
TAN_DEN = 7
TAN_NUMS = {1000: (4, 5, 6), 2000: (4, 5, 6), 3000: (5,)}
TAN_METHODS = ("beeler", "addition", "gaussian")

# sha256 of stdout for each emit invocation, recorded from the CLI output.
EMIT = (
    (("poly", "--family", "P", "--n", "1500", "--format", "json"),
     "8bc24e96c2b5cfb474202917757c8f65468bf493cbb8031ac032a413ba1a8a1f"),
    (("poly", "--family", "Q", "--n", "800"),
     "07bf471916a0aad295351a1a460d512c982cd86a0c00744c5825f6cf5fbd0b3b"),
    (("triangle", "--name", "Rtilde", "--rows", "200", "--format", "bfile"),
     "ec238df576a7cb88e24968b0d3d55a94c0d192f73d428c856954a4463f451c95"),
    (("triangle", "--name", "M", "--rows", "60", "--format", "csv"),
     "282b54be1515fe83995d387ff4d3d8133c95658e070211178746b0e67d3c2684"),
)


def check_verify(stdout: bytes) -> str | None:
    seen = []
    for line in stdout.decode().splitlines():
        match = VERIFY_LINE.fullmatch(line)
        if not match:
            return f"not a passing suite line: {line[:80]!r}"
        seen.append(match.group(1))
    missing = [suite for suite in VERIFY_SUITES if suite not in seen]
    return f"suites missing: {missing}" if missing else None


def tan_exact(n: int, p: int, q: int) -> str:
    """tan(n arctan(p/q)) as the CLI prints it, from integer binomial sums.

    num = sum (-1)^k C(n,2k+1) p^(2k+1) q^(n-2k-1), den = sum (-1)^k C(n,2k) p^(2k) q^(n-2k).
    """
    num = sum((-1) ** k * math.comb(n, 2 * k + 1) * p ** (2 * k + 1) * q ** (n - 2 * k - 1)
              for k in range((n + 1) // 2))
    den = sum((-1) ** k * math.comb(n, 2 * k) * p ** (2 * k) * q ** (n - 2 * k)
              for k in range(n // 2 + 1))
    if den == 0:
        return "pole"
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def check_tan(n: int, p: int, q: int, stdout: bytes) -> str | None:
    lines = dict(line.split(": ", 1) for line in stdout.decode().splitlines() if ": " in line)
    if lines.get("agree") != "yes":
        return "methods do not agree"
    want = tan_exact(n, p, q)
    wrong = [m for m in TAN_METHODS if lines.get(m) != want]
    return f"n={n} t={p}/{q}: wrong value from {wrong}" if wrong else None


def check_digest(digest: str, stdout: bytes) -> str | None:
    got = hashlib.sha256(stdout).hexdigest()
    return None if got == digest else f"sha256 {got} != {digest}"


def verify_sweep(rng):
    return [(("verify", "--suite", "all", "--max-n", "120"), check_verify)]


def tan_large(rng):
    calls = []
    for n, nums in TAN_NUMS.items():
        p = rng.choice(nums) * rng.choice((1, -1))
        argv = ("tan", "--n", str(n), f"--t={p}/{TAN_DEN}", "--method", "all")
        calls.append((argv, partial(check_tan, n, p, TAN_DEN)))
    return calls


def emit(rng):
    return [(argv, partial(check_digest, digest)) for argv, digest in EMIT]


WORKLOADS = {"verify-sweep": verify_sweep, "tan-large": tan_large, "emit": emit}
