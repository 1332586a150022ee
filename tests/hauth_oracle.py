"""Oracles for `vckit.hauth`.  With Python ints and no library code: the
label randomness r = PRF1(l) + PRF2(Δ) straight from hashlib, and a fresh
tag's line through (0, m) and (sk, r).  Then the verifier as the library
ran it before it computed f(r) on reduced ints: the circuit walked gate
by gate over `label_randomness` FieldElements, metered in Field.op_count,
and its syntactic degree walked beside it."""

import hashlib
from itertools import count

from vckit.hauth import label_randomness


def prf_with_counter(key: bytes, label: bytes, p: int):
    """(PRF_key(label), ctr): the first
    SHA-256(key || u64(len(label)) || label || u64(ctr)), ctr = 0, 1, ...,
    whose leading 8 bytes, big-endian and masked to p's bit length, fall
    below p, and the counter that drew it."""
    mask = (1 << p.bit_length()) - 1
    for ctr in count():
        data = (key + len(label).to_bytes(8, "big") + label
                + ctr.to_bytes(8, "big"))
        v = int.from_bytes(hashlib.sha256(data).digest()[:8], "big") & mask
        if v < p:
            return v, ctr


def prf(key: bytes, label: bytes, p: int) -> int:
    return prf_with_counter(key, label, p)[0]


def randomness(key: bytes, l: bytes, delta: bytes, p: int) -> int:
    """r = PRF1(l) + PRF2(delta), PRF1 and PRF2 being the PRF on inputs
    prefixed 0x01 and 0x02."""
    return (prf(key, b"\x01" + l, p) + prf(key, b"\x02" + delta, p)) % p


def tag(sk: int, key: bytes, m: int, l: bytes, delta: bytes, p: int):
    """Coefficients, lowest degree first and top zeros trimmed, of the
    line through (0, m) and (sk, r)."""
    m %= p
    r = randomness(key, l, delta, p)
    coeffs = [m, (r - m) * pow(sk, -1, p) % p]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def circuit_at(circuit, inputs):
    """(output, syntactic degree) of circuit on inputs, one gate at a
    time, each input of degree 1."""
    wires, degs = list(inputs), [1] * len(inputs)
    for g in circuit.gates:
        if g.op == "add":
            wires.append(wires[g.a] + wires[g.b])
            degs.append(max(degs[g.a], degs[g.b]))
        elif g.op == "mul":
            wires.append(wires[g.a] * wires[g.b])
            degs.append(degs[g.a] + degs[g.b])
        elif g.op == "addc":
            wires.append(wires[g.a] + g.const)
            degs.append(degs[g.a])
        else:
            wires.append(wires[g.a] * g.const)
            degs.append(degs[g.a])
    return wires[circuit.output], degs[circuit.output]


def verify(keys, circuit, labeled_slots, tag, claimed_y) -> str:
    """The reason `hauth.verify` (one key, a tag in x) or `hauth.verify_mk`
    (two keys, a tag in (x, y)) gives, "" for accept: the tag's degree at
    most the circuit's, its value at the keys' sk equal to f(r), then its
    value at zero equal to claimed_y, with f(r) the circuit over each
    label's `label_randomness` under its slot's key."""
    field = keys[0].field
    claimed_y = field(claimed_y)
    f_r, degree = circuit_at(circuit, [label_randomness(keys[slot], label)
                                       for label, slot in labeled_slots])
    poly = tag.poly
    deg = poly.degree if len(keys) == 1 else poly.total_degree
    if deg is not None and deg > degree:
        return "degree-check"
    if poly.evaluate(*(key.sk for key in keys)) != f_r:
        return "key-check"
    if poly.evaluate(*(0,) * len(keys)) != claimed_y:
        return "output-check"
    return ""
