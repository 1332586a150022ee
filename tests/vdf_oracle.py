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
