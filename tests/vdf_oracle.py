"""Slow oracles for `vckit.vdf`: plain squaring for the evaluator, digits
read from a binary string for the prover's quotient digits, a bit-by-bit
long-division Wesolowski prover for the checkpoint prover in
`vckit.vdf.prove`, and square-and-multiply ladders for the verifier's
joint exponentiation and its meter."""

from vckit import vdf


def square_with_checkpoints(n, x_prime, delay, interval):
    """(x'^(2^delay) mod n, checkpoints) by `delay` plain `y * y % n`
    squarings, keeping y before every interval-th one."""
    y, checkpoints = x_prime, []
    for i in range(delay):
        if i % interval == 0:
            checkpoints.append(y)
        y = y * y % n
    return y, tuple(checkpoints)


def digits(q, k):
    """Base-2^k digits of q, least significant first, cut from q's binary
    string; [0] for q = 0."""
    bits = format(q, "b")
    return [int(bits[max(0, end - k):end], 2)
            for end in range(len(bits), 0, -k)]


def long_division_prove(params, x_prime, r):
    """pi = x'^floor(2^T / r) via on-the-fly long division.

    Maintains (b, pi) with b the running remainder of 2^i mod r: T
    squarings plus one multiplication per set quotient bit.
    """
    n = params.n_modulus
    b = 1 % r
    pi = 1
    for _ in range(params.delay):
        b *= 2
        bit = b >= r
        if bit:
            b -= r
        pi = pi * pi % n
        if bit:
            pi = pi * x_prime % n
    return vdf._normalize(pi, n)


def square_and_multiply(base, exponent, n):
    """(base^exponent mod n, multiplications) by left-to-right
    square-and-multiply, the meter `vckit.vdf.counting_modpow` reports."""
    if exponent == 0:
        return 1 % n, 0
    result, count = base % n, 0
    for i in range(exponent.bit_length() - 2, -1, -1):
        result = result * result % n
        count += 1
        if (exponent >> i) & 1:
            result = result * base % n
            count += 1
    return result, count


def joint_square_and_multiply(pairs, n):
    """(prod base^exponent mod n, multiplications) by one left-to-right
    ladder over all exponents, the meter `vckit.vdf.counting_modpow`
    reports.

    A bit's factor is the product of the bases with a 1 in that bit,
    built the first time that set of bases occurs at one multiplication
    per base after the first.  Below the top bit, each bit costs a
    squaring, plus a multiplication when the factor is not 1.
    """
    pairs = [(base % n, e) for base, e in pairs if e > 0]
    top = max([e.bit_length() for _, e in pairs] + [0])
    seen = set()
    result, count = 1 % n, 0
    for i in range(top - 1, -1, -1):
        if i != top - 1:
            result = result * result % n
            count += 1
        members = tuple(j for j, (_, e) in enumerate(pairs) if (e >> i) & 1)
        if not members:
            continue
        factor = 1
        for j in members:
            factor = factor * pairs[j][0] % n
        if members not in seen:
            seen.add(members)
            count += len(members) - 1
        result = result * factor % n
        if i != top - 1:
            count += 1
    return result, count
