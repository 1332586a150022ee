"""Bit-by-bit long-division Wesolowski prover, kept as a slow oracle for
the checkpoint prover in `vckit.vdf.prove`."""

from vckit import vdf


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
