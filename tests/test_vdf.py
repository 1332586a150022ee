"""Time-lock and VDF tests, anchored on a hand-checked N = 35 example."""

import math
import random
import sys
import threading
from types import SimpleNamespace

import pytest

import vdf_oracle as oracle
from vckit import bignum, vdf
from vckit.encoding import Reader, bytes_lp, int_lp
from vckit.errors import InternalError, UsageError
from vckit.primes import is_prime

# N = 5 * 7 worked example: x' = 2, T = 3 so y = 2^(2^3) = 256 = 11 mod 35.
N35 = vdf.VdfParams(35, 3, 16)


def test_sequential_eval_worked_example():
    assert vdf.eval_sequential(N35, 2) == 11


def test_trapdoor_matches_worked_example():
    td = vdf.TrapdoorKey(5, 7)
    assert td.phi == 24
    assert vdf.eval_trapdoor(td, N35, 2) == 11


def test_prove_worked_example():
    # floor(2^3 / 5) = 1, so pi = 2^1 = 2 and residue = 2^3 mod 5 = 3
    pi = vdf.prove(N35, 2, 11, 5)
    assert pi == 2
    # the verifier's equation pi^r * x'^residue == y: 2^5 * 2^3 = 256 = 11
    assert pow(pi, 5, 35) * pow(2, pow(2, 3, 5), 35) % 35 == 11


def test_wrong_r_rejected():
    """r = 5 satisfies the worked example's equation, but it is not the
    Fiat-Shamir challenge for (N, T, x', y)."""
    assert vdf.derive_challenge(N35, 2, 11) != 5
    v = vdf.verify(N35, 2, vdf.VdfProof(11, 2, 5))
    assert not v and v.reason == "challenge-mismatch"


def test_nonunit_input_rejected():
    with pytest.raises(UsageError):
        vdf.eval_sequential(N35, 7)
    with pytest.raises(UsageError):
        vdf.eval_sequential(N35, 0)


def test_composite_challenge_rejected():
    with pytest.raises(UsageError):
        vdf.prove(N35, 2, 11, 9)


def test_setup_deterministic_and_prime():
    params, td = vdf.setup(16, b"seed-a", delay=8)
    params2, _ = vdf.setup(16, b"seed-a", delay=8)
    assert params.n_modulus == params2.n_modulus
    assert is_prime(td.p) and is_prime(td.q) and td.p != td.q
    assert td.p * td.q == params.n_modulus
    other, _ = vdf.setup(16, b"seed-b", delay=8)
    assert other.n_modulus != params.n_modulus


def test_sequential_equals_trapdoor_random():
    params, td = vdf.setup(16, b"eq", delay=257)
    x = vdf.hash_to_group(b"in", params.n_modulus)
    assert vdf.eval_sequential(params, x) == vdf.eval_trapdoor(td, params, x)


def test_full_round_accepts():
    params, _ = vdf.setup(16, b"round", delay=100)
    x, proof = vdf.vdf_round(params, b"beacon-input")
    assert proof.r == vdf.derive_challenge(params, x, proof.y)
    assert vdf.verify(params, x, proof)


def test_challenge_binds_all_inputs():
    params, _ = vdf.setup(16, b"bind", delay=10)
    x, proof = vdf.vdf_round(params, b"m")
    assert vdf.derive_challenge(params, x, proof.y) != \
        vdf.derive_challenge(params, x + 1, proof.y)
    assert vdf.derive_challenge(params, x, proof.y) != \
        vdf.derive_challenge(params, x, proof.y + 1)


def test_tamper_rejected():
    params, _ = vdf.setup(16, b"tamper", delay=64)
    x, proof = vdf.vdf_round(params, b"m")
    n = params.n_modulus
    bad_y = vdf.VdfProof((proof.y + 1) % n, proof.pi, proof.r)
    assert not vdf.verify(params, x, bad_y)
    bad_pi = vdf.VdfProof(proof.y, (proof.pi + 1) % n, proof.r)
    v = vdf.verify(params, x, bad_pi)
    assert not v and v.reason == "equation-failure"
    bad_r = vdf.VdfProof(proof.y, proof.pi, 17)
    assert not vdf.verify(params, x, bad_r)


def test_non_canonical_representatives_rejected():
    """y and N - y are the same element of Z_N^*/{+-1}, and so are pi and
    N - pi, but a proof carries only the representative at most N/2: the
    other one is refused, so a beacon's output has one encoding."""
    params, _ = vdf.setup(16, b"sign", delay=20)
    x, proof = vdf.vdf_round(params, b"m")
    n = params.n_modulus
    assert vdf.verify(params, x, proof)
    verdict = vdf.verify(params, x, vdf.VdfProof(proof.y, n - proof.pi,
                                                 proof.r))
    assert not verdict and verdict.reason == "non-canonical"
    # N - y has its own Fiat-Shamir challenge, and so its own proof
    neg_y = n - proof.y
    r = vdf.derive_challenge(params, x, neg_y)
    assert r != proof.r
    verdict = vdf.verify(params, x, vdf.VdfProof(
        neg_y, vdf.prove(params, x, neg_y, r), r))
    assert not verdict and verdict.reason == "non-canonical"


def test_counters():
    params, _ = vdf.setup(16, b"count", delay=200)
    counters = vdf.VdfCounters()
    x, proof = vdf.vdf_round(params, b"m", counters)
    assert counters.squarings == 200
    assert counters.multiplications <= 2 * 200
    vcount = vdf.VdfCounters()
    assert vdf.verify(params, x, proof, vcount)
    bound = 2 * (proof.r.bit_length()
                 + pow(2, params.delay, proof.r).bit_length()) + 8
    assert vcount.multiplications <= bound


def test_counting_modpow_matches_pow():
    for base, e, n in [(3, 0, 35), (3, 1, 35), (2, 77, 1003), (5, 2**20, 9973)]:
        assert vdf.counting_modpow([(base, e)], n) == pow(base, e, n)


def test_counting_modpow_meter_matches_square_and_multiply():
    """pow's result, metered with the square-and-multiply count: exponent
    0 and 1, powers of two, all-ones runs, the verifier's 32-bit challenge
    sizes and 2000 random exponents up to 300 bits."""
    rng = random.Random(11)
    exponents = [0, 1, 2, 3, 4, 2**31, 2**32 - 1, 2**100 + 1]
    exponents += [rng.getrandbits(rng.randrange(1, 300)) for _ in range(2000)]
    n = 1000003 * 998244353
    for e in exponents:
        base = rng.randrange(n)
        counters = vdf.VdfCounters()
        value = vdf.counting_modpow([(base, e)], n, counters)
        assert (value, counters.multiplications) == \
            oracle.square_and_multiply(base, e, n)
        assert counters.squarings == 0


def _check_joint(pairs, n):
    counters = vdf.VdfCounters()
    value = vdf.counting_modpow(pairs, n, counters)
    expected = 1 % n
    for base, e in pairs:
        expected = expected * pow(base, e, n) % n
    assert value == expected
    assert (value, counters.multiplications) == \
        oracle.joint_square_and_multiply(pairs, n)
    assert counters.squarings == 0


def test_joint_modpow_matches_the_joint_ladder():
    """Value and meter against the oracle's ladder: one and two pairs,
    zero exponents, exponents of unequal length, 2^32 - 1 and 2000 seeded
    random pairs of exponents up to 300 bits."""
    rng = random.Random(14)
    n = 1000003 * 998244353
    cases = [
        [], [(5, 0)], [(5, 0), (7, 0)], [(5, 3)], [(5, 3), (7, 0)],
        [(5, 0), (7, 3)], [(5, 1), (7, 1)], [(5, 2**31), (7, 1)],
        [(5, 1), (7, 2**31)], [(5, 2**32 - 1), (7, 2**32 - 1)],
        [(5, 2**32 - 1), (7, 2**5 + 1)], [(5, 2**100 + 1), (7, 2**3)],
        [(n + 5, 6), (-7, 9)],
    ]
    for pairs in cases:
        _check_joint(pairs, n)
    for _ in range(2000):
        pairs = [(rng.randrange(n), rng.getrandbits(rng.randrange(0, 300)))
                 for _ in range(rng.choice((1, 2)))]
        _check_joint(pairs, n)


def test_joint_modpow_costs_less_than_two_ladders():
    """Two 32-bit exponents with every bit set cost 31 squarings, 31
    multiplications and one product of the bases: 63, against 62 + 62
    + 1 for two square-and-multiply ladders and their product."""
    counters = vdf.VdfCounters()
    vdf.counting_modpow([(3, 2**32 - 1), (5, 2**32 - 1)], 10007, counters)
    assert counters.multiplications == 63


def test_joint_modpow_refuses_negative_exponents():
    with pytest.raises(UsageError, match="non-negative"):
        vdf.counting_modpow([(3, 5), (2, -1)], 35)


def test_verify_counts_the_joint_ladder_at_criterion_04():
    """At the criterion-04 configuration (16-bit primes, T = 2^16,
    16-bit security) verify's meter reads the oracle's count for
    pi^r * x'^(2^T mod r): about 57, where two separate ladders and
    their product took about 97."""
    params, _ = vdf.setup(16, b"asymmetry", delay=2**16, security_bits=16)
    x, proof = vdf.vdf_round(params, b"beacon")
    counters = vdf.VdfCounters()
    assert vdf.verify(params, x, proof, counters)
    residue = pow(2, params.delay, proof.r)
    _, expected = oracle.joint_square_and_multiply(
        [(proof.pi, proof.r), (x, residue)], params.n_modulus)
    assert counters.multiplications == expected
    separate = sum(oracle.square_and_multiply(base, e, params.n_modulus)[1]
                   for base, e in [(proof.pi, proof.r), (x, residue)]) + 1
    assert expected < separate


def test_joint_modpow_refuses_more_than_two_pairs():
    with pytest.raises(UsageError, match="two"):
        vdf.counting_modpow([(3, 5), (2, 1), (5, 1)], 35)


def test_verify_exponentiates_through_counting_modpow(monkeypatch):
    """verify calls the module global `vdf.counting_modpow` once for each
    proof that reaches the equation and never for one refused before it,
    so a wrapper bound to that name, as the traced benchmark's span is,
    times the exponentiation."""
    params, _ = vdf.setup(16, b"span", delay=64)
    x, proof = vdf.vdf_round(params, b"m")
    calls, modpow = [], vdf.counting_modpow

    def counting(*args, **kwargs):
        calls.append(args)
        return modpow(*args, **kwargs)

    monkeypatch.setattr(vdf, "counting_modpow", counting)
    y1 = proof.y + 1
    reaching = [proof, vdf.VdfProof(y1, proof.pi,
                                    vdf.derive_challenge(params, x, y1))]
    refused = [vdf.VdfProof(y1, proof.pi, proof.r),
               vdf.VdfProof(0, 0, vdf.derive_challenge(params, x, 0)),
               vdf.VdfProof(proof.y, params.n_modulus - proof.pi, proof.r)]
    assert [bool(vdf.verify(params, x, p)) for p in reaching] == [True, False]
    assert len(calls) == 2
    assert not any(vdf.verify(params, x, p) for p in refused)
    assert len(calls) == 2


def test_setup_primes_have_exactly_the_requested_bits():
    """The upward prime search from a draw can pass 2^bits: seed b"556"
    reached p = 65537 at 16 bits and b"s15" q = 257 at 8 bits.  Such a
    prime is skipped for the next counter's draw."""
    _, key = vdf.setup(16, b"556")
    assert key.p.bit_length() == key.q.bit_length() == 16
    assert 65537 not in (key.p, key.q)
    _, key = vdf.setup(8, b"s15")
    assert 257 not in (key.p, key.q)
    for i in range(200):
        params, key = vdf.setup(8, b"s%d" % i)
        assert key.p.bit_length() == key.q.bit_length() == 8
        assert key.p != key.q and is_prime(key.p) and is_prime(key.q)
        assert params.n_modulus == key.p * key.q


@pytest.mark.parametrize("security", [-1, 0, 7])
def test_security_below_eight_bits_refused(security):
    """Challenge primes have 2*lambda bits and need at least 16."""
    with pytest.raises(UsageError, match="security"):
        vdf.VdfParams(35, 3, security)
    with pytest.raises(UsageError, match="security"):
        vdf.setup(16, b"sec", delay=3, security_bits=security)


def test_eight_bit_security_round_trips():
    params, _ = vdf.setup(16, b"sec", delay=16, security_bits=8)
    x, proof = vdf.vdf_round(params, b"m")
    assert proof.r.bit_length() == 16
    assert vdf.verify(params, x, proof)


def test_challenge_past_the_bit_budget_is_drawn_again():
    """At lambda = 8 about one (x', y) in 4 700 masks to a 16-bit start
    above 65 521, the largest 16-bit prime.  derive_challenge draws again
    from the same stream instead of raising, so verify gives a verdict on
    any y and an honest round whose challenge needed a second draw proves
    and verifies."""
    params, _ = vdf.setup(16, b"s", 4, 8)
    for x in (3792, 11361, 14437):
        r = vdf.derive_challenge(params, x, 1)
        assert r.bit_length() == 16 and is_prime(r)
        assert not vdf.verify(params, x, vdf.VdfProof(1, 1, r))
    x, proof = vdf.vdf_round(params, b"overflow-4907")
    assert proof.r.bit_length() == 16
    assert vdf.verify(params, x, proof)
    assert vdf.verify(params, x, vdf.deserialize_proof(
        vdf.serialize_proof(proof)))


def test_serialize_roundtrip():
    """A VCKV file is the magic, the version byte, the hash id and then
    y, pi and r: N, T, lambda and x' are the verifier's."""
    params, _ = vdf.setup(16, b"ser", delay=40)
    x, proof = vdf.vdf_round(params, b"m")
    blob = vdf.serialize_proof(proof)
    assert blob == (b"VCKV\x02\x01" + int_lp(proof.y) + int_lp(proof.pi)
                    + int_lp(proof.r))
    assert vdf.deserialize_proof(blob) == proof
    assert vdf.verify(params, x, vdf.deserialize_proof(blob))
    with pytest.raises(UsageError):
        vdf.deserialize_proof(b"XXXX" + blob[4:])


@pytest.mark.parametrize("version", [1, 3])
def test_decoder_rejects_other_format_versions(version):
    """The byte after the magic is the format version: 2, nothing else.
    A version-1 file, whose byte 4 is its hash id 1, reads as version 1."""
    params, _ = vdf.setup(16, b"ser", delay=40)
    _, proof = vdf.vdf_round(params, b"m")
    blob = vdf.serialize_proof(proof)
    assert blob[:5] == vdf.PROOF_MAGIC
    with pytest.raises(UsageError, match=f"^unsupported VDF proof format "
                                         f"version {version}$"):
        vdf.deserialize_proof(blob[:4] + bytes([version]) + blob[5:])


def test_zero_delay_identity():
    params = vdf.VdfParams(35, 0, 16)
    assert vdf.eval_sequential(params, 2) == 2


@pytest.mark.parametrize("bogus", ["zero", "modulus"])
def test_degenerate_values_rejected(bogus):
    """y = pi = 0 and y = pi = N satisfy pi^r * x'^residue == +-y for any
    input; verify must reject them even with a matching challenge."""
    params, _ = vdf.setup(16, b"degenerate", delay=64)
    x, proof = vdf.vdf_round(params, b"m")
    n = params.n_modulus
    v = 0 if bogus == "zero" else n
    forged = vdf.VdfProof(v, v, vdf.derive_challenge(params, x, v))
    verdict = vdf.verify(params, x, forged)
    assert not verdict and verdict.reason == "out-of-range"


@pytest.mark.parametrize("field", ["y", "pi"])
@pytest.mark.parametrize("value", ["zero", "modulus", "above"])
def test_out_of_range_component_rejected(field, value):
    params, _ = vdf.setup(16, b"range", delay=64)
    x, proof = vdf.vdf_round(params, b"m")
    n = params.n_modulus
    v = {"zero": 0, "modulus": n, "above": getattr(proof, field) + n}[value]
    y, pi = (v, proof.pi) if field == "y" else (proof.y, v)
    verdict = vdf.verify(params, x, vdf.VdfProof(y, pi, proof.r))
    assert not verdict and verdict.reason == "out-of-range"


# ---------------------------------------------------------------------------
# checkpoint prover against the long-division oracle

K16 = vdf._chunk_bits(2 ** 16)
INTERVAL16 = vdf._GAMMA * K16


def _instance(delay, tag=b""):
    params, _ = vdf.setup(16, b"oracle-%d" % delay + tag, delay=delay)
    return params, vdf.hash_to_group(b"x-%d" % delay + tag, params.n_modulus)


def _hit_and_miss(params, x, r=None):
    """(r, pi from the memo, pi recomputed, their multiplication counts),
    for the Fiat-Shamir challenge r unless one is given."""
    y = vdf.eval_sequential(params, x)
    if r is None:
        r = vdf.derive_challenge(params, x, y)
    hit_count, miss_count = vdf.VdfCounters(), vdf.VdfCounters()
    hit = vdf.prove(params, x, y, r, hit_count)
    miss = vdf.prove(params, x, y, r, miss_count)
    return r, hit, miss, hit_count.multiplications, miss_count.multiplications


EDGE_DELAYS = sorted({0, 1, 2, 3, K16 - 1, K16, K16 + 1, INTERVAL16 - 1,
                      INTERVAL16, INTERVAL16 + 1, 2 * INTERVAL16 + 1,
                      *range(4, 70)})
RANDOM_DELAYS = random.Random(3000).sample(range(3001), 40)


@pytest.mark.parametrize("delay", EDGE_DELAYS + RANDOM_DELAYS)
def test_checkpoint_prover_matches_long_division(delay):
    params, x = _instance(delay)
    r, hit, miss, hit_muls, miss_muls = _hit_and_miss(params, x)
    assert hit == miss == oracle.long_division_prove(params, x, r)
    # the hit cleared the memo, so the second call squared T times again
    assert miss_muls == hit_muls + delay


def test_checkpoint_prover_at_every_chunk_size():
    """One delay per chunk size k, at an interval boundary and beside it."""
    delays = {}
    for delay in range(2 ** 13):
        delays.setdefault(vdf._chunk_bits(delay), delay)
    assert len(delays) >= 6
    for first in delays.values():
        interval = vdf._GAMMA * vdf._chunk_bits(first)
        for delay in (first, first + interval - first % interval,
                      first + interval - first % interval + 1):
            params, x = _instance(delay, b"k")
            r, hit, miss, _, _ = _hit_and_miss(params, x)
            assert hit == miss == oracle.long_division_prove(params, x, r)


def test_memo_keeps_only_the_latest_evaluation():
    """eval x1, eval x2, prove x1 recomputes; prove x2 then uses the memo."""
    params, x1 = _instance(500)
    x2 = vdf.hash_to_group(b"other", params.n_modulus)
    y1 = vdf.eval_sequential(params, x1)
    y2 = vdf.eval_sequential(params, x2)
    r1 = vdf.derive_challenge(params, x1, y1)
    r2 = vdf.derive_challenge(params, x2, y2)
    c1, c2 = vdf.VdfCounters(), vdf.VdfCounters()
    assert vdf.prove(params, x1, y1, r1, c1) == \
        oracle.long_division_prove(params, x1, r1)
    assert vdf.prove(params, x2, y2, r2, c2) == \
        oracle.long_division_prove(params, x2, r2)
    assert c2.multiplications < 500 < c1.multiplications


def test_memo_is_keyed_on_modulus_and_delay():
    params, x = _instance(300)
    y = vdf.eval_sequential(params, x)
    r = vdf.derive_challenge(params, x, y)
    shorter = vdf.VdfParams(params.n_modulus, 299, params.security_bits)
    assert vdf.prove(shorter, x, y, r) == \
        oracle.long_division_prove(shorter, x, r)
    other, _ = vdf.setup(16, b"other-modulus", delay=300)
    assert x < other.n_modulus
    assert vdf.prove(other, x, y, r) == \
        oracle.long_division_prove(other, x, r)
    # neither call matched, so the memo still serves the original input
    count = vdf.VdfCounters()
    vdf.prove(params, x, y, r, count)
    assert count.multiplications < 300


def test_the_beacon_delay_keeps_at_most_1200_checkpoints():
    """One checkpoint per k*gamma = 56 squarings at T = 2^16: 1 171, where
    k*gamma = 16 kept 4 096."""
    params, x = _instance(2 ** 16)
    _, checkpoints = vdf._square_with_checkpoints(params.n_modulus, x, 2 ** 16)
    assert len(checkpoints) == -(-2 ** 16 // INTERVAL16) <= 1200


@pytest.mark.parametrize("k", range(1, 17))
def test_digits_match_the_string_oracle(k):
    big = random.Random(k).getrandbits(65504) | 1 << 65503
    values = [0, 1, big] + [v for m in (1, k - 1, k, k + 1, 8 * k, 65503)
                            for v in (2 ** m - 1, 2 ** m)]
    for q in values:
        assert vdf._digits(q, k) == oracle.digits(q, k)


def _challenge_for(delay, q):
    """The largest prime r with floor(2^delay / r) = q."""
    r = (1 << delay) // q
    while (1 << delay) // r == q:
        if is_prime(r):
            return r
        r -= 1
    raise AssertionError("no prime gives this quotient")


# (delay, the quotient's base-2^k digits, least significant first)
SPARSE_QUOTIENTS = [
    (20, [1, 0, 1, 0, 0, 0, 1]),     # k = 1: passes 1, 3, 4 and 5 see a 0
    (20, [1]),                       # one digit: no suffix multiplications
    (60, [3, 0, 0, 1]),              # k = 2: passes 4 to 6 see no digit
    (60, [0, 0, 0, 0, 0, 0, 3]),     # only the first pass has a digit
    (100, [1, 2, 3, 0, 1, 2, 3, 2, 3, 1, 0, 3, 2, 1]),  # pass 3 sees 0, 0
    (200, [5, 0, 7, 0, 0, 0, 2]),    # k = 3: buckets 1, 3, 4 and 6 empty
    (700, [0, 9, 0, 0, 15, 0, 1]),   # k = 4
    (700, [1, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 2]),  # passes 5 to 1 see 0s
]


@pytest.mark.parametrize("libcrypto", [True, False],
                         ids=["openssl", "no-libcrypto"])
@pytest.mark.parametrize("delay, digits", SPARSE_QUOTIENTS)
def test_prover_with_empty_passes_and_buckets(monkeypatch, libcrypto, delay,
                                              digits):
    """Quotients whose digits leave whole passes without a nonzero digit,
    before and after the first one that has some, and leave buckets
    empty: pi from the memo and recomputed is long division's."""
    if not libcrypto:
        monkeypatch.setattr(bignum, "libcrypto", lambda: None)
    k = vdf._chunk_bits(delay)
    q = sum(d << (k * m) for m, d in enumerate(digits))
    r = _challenge_for(delay, q)
    assert vdf._digits((1 << delay) // r, k) == digits
    assert any(not any(digits[t::vdf._GAMMA]) for t in range(vdf._GAMMA))
    params, x = _instance(delay, b"sparse")
    _, hit, miss, hit_muls, miss_muls = _hit_and_miss(params, x, r)
    assert hit == miss == oracle.long_division_prove(params, x, r)
    assert miss_muls == hit_muls + delay


def test_prover_multiplications_at_the_beacon_delay():
    """At most T/k + gamma*2^(k+1) + gamma*(k+1) at T = 2^16 (k = 8:
    11 839)."""
    params, x = _instance(2 ** 16)
    r, hit, miss, hit_muls, miss_muls = _hit_and_miss(params, x)
    assert hit == miss == oracle.long_division_prove(params, x, r)
    bound = (2 ** 16 // K16 + vdf._GAMMA * 2 ** (K16 + 1)
             + vdf._GAMMA * (K16 + 1))
    assert hit_muls <= bound <= 12_000
    assert miss_muls == hit_muls + 2 ** 16


def test_interleaved_threads_never_get_a_wrong_proof():
    """Threads evaluating and proving different inputs share the memo; a
    race may force a recompute but every proof must still be right."""
    params, trapdoor = vdf.setup(16, b"threads", delay=300)
    inputs = [vdf.hash_to_group(b"t-%d" % i, params.n_modulus)
              for i in range(6)]
    expected = {}
    for x in inputs:
        y = vdf.eval_trapdoor(trapdoor, params, x)
        r = vdf.derive_challenge(params, x, y)
        expected[x] = (y, r, oracle.long_division_prove(params, x, r))
    wrong = []

    def work(x):
        for _ in range(15):
            y = vdf.eval_sequential(params, x)
            pi = vdf.prove(params, x, y, expected[x][1])
            if (y, pi) != (expected[x][0], expected[x][2]):
                wrong.append(x)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(x,)) for x in inputs]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def test_zero_delay_decodes_from_one_zero_byte():
    """Zero, such as T = 0, is the single byte 00, the one encoding with
    a leading zero the decoder takes."""
    assert int_lp(0) == bytes_lp(b"\x00")
    assert Reader(int_lp(0)).int_lp() == 0


def test_deserialize_rejects_trailing_bytes():
    params, _ = vdf.setup(16, b"strict", delay=40)
    x, proof = vdf.vdf_round(params, b"m")
    blob = vdf.serialize_proof(proof)
    assert vdf.deserialize_proof(blob) == proof
    with pytest.raises(UsageError, match="trailing"):
        vdf.deserialize_proof(blob + b"\x00")


# ---------------------------------------------------------------------------
# the evaluator's squarings: OpenSSL, built-in pow and plain squaring

def _modulus(bits, odd):
    n = random.Random(bits).getrandbits(bits) | 1 << (bits - 1) | 1
    return n if odd else n - 1


def _modulus_id(n):
    return "%d-bit-%s" % (n.bit_length(), "odd" if n % 2 else "even")


EVAL_MODULI = [_modulus(bits, True) for bits in (16, 64, 512, 2048)]
EVAL_MODULI.append(_modulus(64, False))
# on and beside a multiple of the checkpoint interval: 7 at small T, and
# INTERVAL16, the interval at T = 2^16; 15 to 17 end in a short interval
# of 1 to 3 squarings
EVAL_DELAYS = sorted({0, 1, 2, 3, 6, 7, 8, 15, 16, 17, INTERVAL16 - 1,
                      INTERVAL16, INTERVAL16 + 1, 1000})


@pytest.mark.parametrize("delay", EVAL_DELAYS)
@pytest.mark.parametrize("n", EVAL_MODULI, ids=_modulus_id)
def test_squarings_agree_on_every_path(n, delay, monkeypatch):
    """(y, checkpoints) from OpenSSL (pow for the even modulus), from
    built-in pow and from plain y * y % n are the same, at delays on and
    beside the checkpoint interval of 7 (small T) and 56 (T = 2^16), and
    so is the ring's square chain, the checkpoints followed by y."""
    x = random.Random(delay).randrange(2, n)
    interval = vdf._GAMMA * vdf._chunk_bits(delay)
    expected = oracle.square_with_checkpoints(n, x, delay, interval)
    assert vdf._square_with_checkpoints(n, x, delay) == expected
    with bignum.modular_ring(n) as ring:
        assert ring.square_chain(x, delay, interval) == [*expected[1],
                                                         expected[0]]
    monkeypatch.setattr(bignum, "libcrypto", lambda: None)
    assert vdf._square_with_checkpoints(n, x, delay) == expected
    with bignum.modular_ring(n) as ring:
        assert ring.square_chain(x, delay, interval) == [*expected[1],
                                                         expected[0]]


def _unit(n, seed):
    rng = random.Random(seed)
    while True:
        x = rng.randrange(2, n)
        if math.gcd(x, n) == 1:
            return x


@pytest.mark.parametrize("delay", EVAL_DELAYS)
@pytest.mark.parametrize("n", EVAL_MODULI, ids=_modulus_id)
def test_prover_agrees_on_every_path(n, delay, monkeypatch):
    """pi from the memo and recomputed, in OpenSSL's Montgomery residues
    (built-in ints for the even modulus) and then without libcrypto: the
    same pi as long division and the same multiplication counts."""
    params = vdf.VdfParams(n, delay, 16)
    x = _unit(n, delay)
    openssl = _hit_and_miss(params, x)
    monkeypatch.setattr(bignum, "libcrypto", lambda: None)
    assert _hit_and_miss(params, x) == openssl
    r, hit, miss, hit_muls, miss_muls = openssl
    assert hit == miss == oracle.long_division_prove(params, x, r)
    assert miss_muls == hit_muls + delay


def _joint_cases(n):
    """(a, e, b, f): zero exponents on either side and on both, also on a
    base of 0 mod n, exponents of unequal length, and bases >= n or
    negative."""
    rng = random.Random(n)
    a, b = rng.randrange(n), rng.randrange(n)
    return [(a, 0, b, 0), (a, 0, b, 77), (a, 77, b, 0), (n, 0, b, 5),
            (a, 5, n, 0), (n, 0, n, 0), (n, 5, b, 3), (a, 1, b, 1),
            (a, 2**32 - 1, b, 5), (a, 3, b, rng.getrandbits(300)),
            (n + a, 2**31, -b - 1, 2**32 - 1), (-1, 3, 2 * n + 1, 9)]


@pytest.mark.parametrize("n", [1, 3] + EVAL_MODULI, ids=_modulus_id)
def test_joint_power_agrees_on_every_path(n, monkeypatch):
    """a^e * b^f from BN_mod_exp2_mont (two pows for the even modulus) and
    then without libcrypto: the oracle ladder's value, and from
    `counting_modpow` also its multiplication count."""
    def results():
        with bignum.modular_ring(n) as ring:
            for a, e, b, f in _joint_cases(n):
                counters = vdf.VdfCounters()
                yield (ring.joint_power(a, e, b, f),
                       vdf.counting_modpow([(a, e), (b, f)], n, counters),
                       counters.multiplications)

    expected = []
    for a, e, b, f in _joint_cases(n):
        value, count = oracle.joint_square_and_multiply([(a, e), (b, f)], n)
        expected.append((value, value, count))
    assert list(results()) == expected
    monkeypatch.setattr(bignum, "libcrypto", lambda: None)
    assert list(results()) == expected


@pytest.mark.parametrize("n", EVAL_MODULI, ids=_modulus_id)
def test_verify_agrees_on_every_path(n, monkeypatch):
    """The same verdicts with the joint power in OpenSSL (two pows for
    the even modulus) and without libcrypto: an honest proof, y + 1 with
    the honest r and with its own, N - pi, and the degenerate 0 and N."""
    params = vdf.VdfParams(n, 64, 16)
    x = _unit(n, 64)
    y = vdf.eval_sequential(params, x)
    r = vdf.derive_challenge(params, x, y)
    pi = vdf.prove(params, x, y, r)
    proofs = [vdf.VdfProof(y, pi, r), vdf.VdfProof(y + 1, pi, r),
              vdf.VdfProof(y + 1, pi, vdf.derive_challenge(params, x, y + 1)),
              vdf.VdfProof(y, n - pi, r)]
    proofs += [vdf.VdfProof(v, v, vdf.derive_challenge(params, x, v))
               for v in (0, n)]
    expected = [vdf.VerifyResult.accept()] + [
        vdf.VerifyResult.reject(reason) for reason in (
            "challenge-mismatch", "equation-failure", "non-canonical",
            "out-of-range", "out-of-range")]
    assert [vdf.verify(params, x, proof) for proof in proofs] == expected
    monkeypatch.setattr(bignum, "libcrypto", lambda: None)
    assert [vdf.verify(params, x, proof) for proof in proofs] == expected


def test_round_trip_on_built_in_pow(monkeypatch):
    """Without libcrypto a round is the same T squarings, the same proof
    and the same verdict."""
    monkeypatch.setattr(bignum, "libcrypto", lambda: None)
    params, trapdoor = vdf.setup(16, b"fallback", delay=300)
    counters = vdf.VdfCounters()
    x, proof = vdf.vdf_round(params, b"m", counters)
    assert counters.squarings == 300
    assert proof.y == vdf.eval_trapdoor(trapdoor, params, x)
    assert proof.pi == oracle.long_division_prove(params, x, proof.r)
    assert vdf.verify(params, x, proof)


def test_the_binding_resolves_wherever_hashlib_imports():
    """A silent fallback to pow would give the same answers ~7x slower at
    2048 bits; here it fails instead."""
    pytest.importorskip("_hashlib")
    assert bignum.libcrypto() is not None


def _fake_libcrypto(failing, made, freed):
    """A stand-in for libcrypto whose handles are 1, 2, 3, ... in `made`,
    whose frees append to `freed`, and whose `failing` function, if any,
    returns 0 (-1 for BN_bn2binpad)."""

    def new():
        made.append(len(made) + 1)
        return made[-1]

    lib = SimpleNamespace(
        BN_CTX_new=new, BN_MONT_CTX_new=new, BN_new=new,
        BN_bin2bn=lambda data, size, bn: bn,
        BN_bn2binpad=lambda bn, out, size: size,
        BN_free=freed.append, BN_MONT_CTX_free=freed.append,
        BN_CTX_free=freed.append)
    for name in bignum._SIGNATURES:
        if not hasattr(lib, name):
            setattr(lib, name, lambda *args: 1)
    if failing is not None:
        setattr(lib, failing,
                lambda *args: -1 if failing == "BN_bn2binpad" else 0)
    return lib


@pytest.mark.parametrize("failing", [
    name for name in bignum._SIGNATURES if not name.endswith("_free")])
def test_a_failing_bn_call_raises_and_frees_the_rest(monkeypatch, failing):
    """A 0 or NULL result (-1 from BN_bn2binpad) from any function a ring
    calls, on entry or in any of its methods, raises InternalError, and
    every handle made before it is freed once."""
    def use(ring):
        ring.power(2, 8)
        ring.square_chain(2, 5, 2)
        ring.joint_power(2, 3, 5, 7)
        _use_residues(ring)

    _fails_and_frees(monkeypatch, failing, use)


def _fails_and_frees(monkeypatch, failing, use):
    """use(ring) in a ring on a libcrypto whose `failing` function fails
    raises InternalError naming it, and frees every handle made once."""
    made, freed = [], []
    lib = _fake_libcrypto(failing, made, freed)
    monkeypatch.setattr(bignum, "libcrypto", lambda: lib)
    with pytest.raises(InternalError, match=failing):
        with bignum.modular_ring(35) as ring:
            use(ring)
    assert sorted(h for h in freed if h is not None) == made


def _use_residues(ring):
    a, b = ring.residue(2), ring.residue(3)
    ring.copy(b, a)
    ring.multiply(a, a, b)
    ring.value(a)


@pytest.mark.parametrize("failing", [
    "BN_CTX_new", "BN_MONT_CTX_new", "BN_new", "BN_MONT_CTX_set",
    "BN_to_montgomery", "BN_copy", "BN_mod_mul_montgomery",
    "BN_from_montgomery", "BN_bn2binpad"])
def test_a_failing_residue_call_raises_and_frees_the_rest(monkeypatch,
                                                          failing):
    """The same in a block that only makes and multiplies residues, as
    the prover's does, so a call that fails inside one of those methods
    rather than in an earlier power is covered too."""
    _fails_and_frees(monkeypatch, failing, _use_residues)


@pytest.mark.parametrize("failing", ["BN_bin2bn", "BN_mod_exp_mont",
                                     "BN_bn2binpad"])
def test_a_failing_square_chain_call_raises_and_frees_the_rest(monkeypatch,
                                                               failing):
    """The same in a block that only runs a square chain, as the
    evaluator's does, so each call fails inside square_chain itself."""
    _fails_and_frees(monkeypatch, failing,
                     lambda ring: ring.square_chain(2, 5, 2))


@pytest.mark.parametrize("failing", ["BN_CTX_new", "BN_new", "BN_MONT_CTX_set",
                                     "BN_mod_exp2_mont", "BN_bn2binpad"])
def test_a_failing_joint_power_call_raises_and_frees_the_rest(monkeypatch,
                                                              failing):
    """The same in a block that only makes a joint power, as verify's
    does, so BN_bn2binpad fails inside joint_power itself."""
    _fails_and_frees(monkeypatch, failing,
                     lambda ring: ring.joint_power(2, 3, 5, 7))


def test_a_ring_makes_its_scratch_once_per_block(monkeypatch):
    """A block makes a fixed set of handles plus one BIGNUM per residue,
    however many power, square_chain, joint_power and value calls it
    serves, and frees each once.  The evaluator runs 1 171 exponentiations
    per round, so scratch made per call would show in its peak RSS."""
    made, freed = [], []
    lib = _fake_libcrypto(None, made, freed)
    monkeypatch.setattr(bignum, "libcrypto", lambda: lib)

    def handles(calls, residues):
        made.clear()
        freed.clear()
        with bignum.modular_ring(35) as ring:
            points = [ring.residue(v) for v in range(residues)]
            for i in range(calls):
                ring.power(2, i)
                ring.square_chain(2, i, 3)
                ring.joint_power(2, i, 3, i + 1)
                ring.value(points[i % residues])
        assert sorted(freed) == made
        return len(made)

    fixed = handles(0, 1) - 1
    for calls, residues in [(1, 1), (100, 1), (100, 7)]:
        assert handles(calls, residues) == fixed + residues


@pytest.mark.parametrize("n, libcrypto", [(35, True), (36, True), (35, False)],
                         ids=["openssl", "even-modulus", "no-libcrypto"])
def test_power_refuses_a_negative_exponent_on_every_path(monkeypatch, n,
                                                         libcrypto):
    """Built-in pow would return an inverse for -1 where one exists, and
    the OpenSSL path could not encode it; both refuse it instead."""
    if not libcrypto:
        monkeypatch.setattr(bignum, "libcrypto", lambda: None)
    with bignum.modular_ring(n) as ring:
        assert ring.power(2, 5) == 32 % n
        assert ring.joint_power(2, 5, 3, 2) == 288 % n
        for exponent in (-1, -(2 ** 70)):
            with pytest.raises(UsageError, match="non-negative"):
                ring.power(2, exponent)
            with pytest.raises(UsageError, match="non-negative"):
                ring.joint_power(2, exponent, 3, 2)
            with pytest.raises(UsageError, match="non-negative"):
                ring.joint_power(2, 5, 3, exponent)
        for steps, interval in [(-1, 3), (5, 0), (5, -2)]:
            with pytest.raises(UsageError, match="square chain"):
                ring.square_chain(2, steps, interval)
