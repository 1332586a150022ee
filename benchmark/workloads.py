"""The four benchmark workloads.

Each workload is one client in a closed loop: the constructor is the
set-up, and `round(i)` runs one round of operations, always the same ones,
so the share of failed operations is the same in every run.  Inputs come
from the run's seed alone.  Every output is checked against a computation
made here with plain integers, or against a property the protocol promises,
never against stored output.  Timed regions cover library calls only.
"""

import math
import random
from time import perf_counter

from vckit import hauth, stark, transcript, vdf
from vckit.errors import ConstraintViolation, UsageError


def fibonacci_column(rows, length, p):
    """The Fibonacci column with plain ints, zero-padded to `length`."""
    col = [1, 1]
    while len(col) < rows:
        col.append((col[-1] + col[-2]) % p)
    return col[:rows] + [0] * (length - rows)


def next_pow2(n):
    return 1 << (n - 1).bit_length()


def rejects(verify, data):
    """True when decoding plus verifying `data` ends in a rejection or a
    UsageError, the two outcomes allowed for a tampered proof."""
    try:
        return not verify(data)
    except UsageError:
        return True
    except Exception:  # any other exception type is a verifier fault
        return False


class Workload:
    name = ""
    # Sample keys behind op_ms_min (op_key) and verify_ms_min ("verify").
    op_key = ""
    # (reported name, sample key, factor from seconds, unit)
    details = []

    def __init__(self, seed, field, tally):
        self.rng = random.Random(f"vckit-bench/{self.name}/{seed}")
        self.field = field
        self.p = field.modulus
        self.tally = tally

    def round(self, i):
        raise NotImplementedError

    def extra_details(self):
        return []


class StarkProve(Workload):
    """Prover path: Fibonacci, 4000 rows padded to 2^12, blowup 4, 8 queries,
    zk with an explicit seed per proof; each proof is decoded and verified."""

    name = "stark-prove"
    op_key = "prove"
    details = [("stark_prove_s_p50", "prove", 1.0, "s")]
    ROWS = 4000
    PARAMS = dict(blowup=4, num_queries=8, zk=True)
    # One verification per proof gives too few samples for a steady figure.
    VERIFY_REPEATS = 10

    def __init__(self, seed, field, tally):
        super().__init__(seed, field, tally)
        self.params = stark.StarkParams(**self.PARAMS)
        self.trace = stark.trace_fibonacci(self.ROWS, field)
        self.cs = stark.fibonacci_constraint_system(self.ROWS, field)
        expected = fibonacci_column(self.ROWS, next_pow2(self.ROWS), self.p)
        tally.check(self.trace.columns == [expected], "trace != plain-int Fibonacci")
        self.proof_bytes = []

    def round(self, i):
        tally = self.tally
        zk_seed = self.rng.getrandbits(64)
        t0 = perf_counter()
        proof = stark.prove(self.trace, self.cs, self.params, zk_seed=zk_seed)
        data = proof.serialize()
        t1 = perf_counter()
        tally.op(True)
        tally.sample("prove", t1 - t0)
        self.proof_bytes.append(len(data))

        decoded = stark.StarkProof.deserialize(data)
        tally.check(decoded.serialize() == data, "serialize round trip differs")
        for _ in range(self.VERIFY_REPEATS):
            t0 = perf_counter()
            decoded = stark.StarkProof.deserialize(data)
            verdict = stark.verify(decoded, self.cs, self.params, self.field)
            t1 = perf_counter()
            tally.op(bool(verdict))
            if verdict:
                tally.sample("verify", t1 - t0)

        row = self.rng.randrange(self.ROWS)
        column = list(self.trace.columns[0])
        column[row] = (column[row] + self.rng.randrange(1, self.p)) % self.p
        bad = stark.TraceTable([column], self.ROWS, self.field)
        try:
            stark.prove(bad, self.cs, self.params, zk_seed=zk_seed)
            refused = False
        except ConstraintViolation:
            refused = True
        tally.op(refused)

    def extra_details(self):
        kib = sorted(n / 1024 for n in self.proof_bytes)
        return [("stark_proof_kib", kib[len(kib) // 2], "KiB", len(kib))]


# Offset of the zk flag byte in a STARK proof: magic, hash id, five u32s.
ZK_FLAG_OFFSET = len(stark.PROOF_MAGIC) + 1 + 5 * 4


class StarkVerify(Workload):
    """Verifier path: proofs of 1900-row Fibonacci traces (padded to 2^11)
    with the CLI defaults, made in set-up; rounds decode and verify them
    and a fixed set of tampered copies.  The prover is never called."""

    name = "stark-verify"
    op_key = "verify"
    details = [("stark_verify_ms_p50", "verify", 1e3, "ms")]
    ROWS = 1900
    PARAMS = dict(blowup=8, num_queries=20, zk=True)
    PROOFS = 3
    HONEST_REPEATS = 10
    BIT_FLIPS = 3

    def __init__(self, seed, field, tally):
        super().__init__(seed, field, tally)
        self.params = stark.StarkParams(**self.PARAMS)
        trace = stark.trace_fibonacci(self.ROWS, field)
        self.cs = stark.fibonacci_constraint_system(self.ROWS, field)
        expected = fibonacci_column(self.ROWS, next_pow2(self.ROWS), self.p)
        tally.check(trace.columns == [expected], "trace != plain-int Fibonacci")
        self.proofs = []
        for _ in range(self.PROOFS):
            data = stark.prove(trace, self.cs, self.params,
                               zk_seed=self.rng.getrandbits(64)).serialize()
            tally.check(data[ZK_FLAG_OFFSET] == 1, "zk flag byte not where expected")
            self.proofs.append((data, self._mutants(data)))

    def _mutants(self, data):
        """Tampered copies: seeded bit flips (never on the zk flag byte,
        which the flag mutant covers) and a truncation, all rejected today;
        one appended byte and the zk flag set to 3, both accepted today."""
        out = []
        for _ in range(self.BIT_FLIPS):
            bit = self.rng.randrange(8 * (len(data) - 1))
            if bit >= 8 * ZK_FLAG_OFFSET:
                bit += 8
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            out.append(bytes(flipped))
        out.append(data[:self.rng.randrange(len(data))])
        out.append(data + bytes([self.rng.randrange(256)]))
        out.append(data[:ZK_FLAG_OFFSET] + b"\x03" + data[ZK_FLAG_OFFSET + 1:])
        return out

    def _verify_bytes(self, data):
        proof = stark.StarkProof.deserialize(data)
        return stark.verify(proof, self.cs, self.params, self.field)

    def round(self, i):
        tally = self.tally
        for data, mutants in self.proofs:
            for _ in range(self.HONEST_REPEATS):
                t0 = perf_counter()
                verdict = self._verify_bytes(data)
                t1 = perf_counter()
                tally.op(bool(verdict))
                if verdict:
                    tally.sample("verify", t1 - t0)
            for bad in mutants:
                tally.op(rejects(self._verify_bytes, bad))

    def extra_details(self):
        return percentile_detail("stark_verify_ms_p95", self.tally.samples["verify"],
                                 0.95, 1e3, "ms")


class VdfBeacon(Workload):
    """Time-lock beacon: 2048-bit modulus from a fixed seed, T = 2^16,
    lambda = 16.  Each round hashes a fresh input, evaluates, proves, and
    verifies the proof many times, plus three bad proofs that must be
    rejected."""

    name = "vdf-beacon"
    op_key = "beacon"
    details = [("vdf_eval_s_p50", "eval", 1.0, "s"),
               ("vdf_prove_s_p50", "prove", 1.0, "s"),
               ("vdf_verify_ms_p50", "verify", 1e3, "ms")]
    PRIME_BITS = 1024
    DELAY = 2 ** 16
    LAMBDA = 16
    SETUP_SEED = b"vckit-bench/vdf-beacon"
    VERIFY_REPEATS = 100

    def __init__(self, seed, field, tally):
        super().__init__(seed, field, tally)
        self.params, trapdoor = vdf.setup(self.PRIME_BITS, self.SETUP_SEED,
                                          self.DELAY, self.LAMBDA)
        self.n = self.params.n_modulus
        tally.check(trapdoor.p * trapdoor.q == self.n and trapdoor.p != trapdoor.q
                    and self.n.bit_length() == 2 * self.PRIME_BITS,
                    "modulus is not a product of two distinct 1024-bit primes")
        self.phi = (trapdoor.p - 1) * (trapdoor.q - 1)
        self.y_exponent = pow(2, self.DELAY, self.phi)

    def _norm(self, v):
        v %= self.n
        return min(v, self.n - v)

    def round(self, i):
        tally, params, n = self.tally, self.params, self.n
        t0 = perf_counter()
        x = transcript.hash_to_group(self.rng.randbytes(32), n)
        y = vdf.eval_sequential(params, x)
        t1 = perf_counter()
        r = vdf.derive_challenge(params, x, y)
        pi = vdf.prove(params, x, y, r)
        t2 = perf_counter()
        tally.op(True)
        tally.sample("eval", t1 - t0)
        tally.sample("prove", t2 - t1)
        tally.sample("beacon", t2 - t0)
        tally.check(y == self._norm(pow(x, self.y_exponent, n)),
                    "y != x'^(2^T mod phi)")
        tally.check(pi == self._norm(pow(x, (2 ** self.DELAY // r) % self.phi, n)),
                    "pi != x'^(floor(2^T / r) mod phi)")
        tally.check(r.bit_length() == 2 * self.LAMBDA and is_prime_by_trial(r),
                    "challenge is not a 2*lambda-bit prime")

        proof = vdf.VdfProof(y, pi, r)
        for _ in range(self.VERIFY_REPEATS):
            t0 = perf_counter()
            verdict = vdf.verify(params, x, proof)
            t1 = perf_counter()
            tally.op(bool(verdict))
            if verdict:
                tally.sample("verify", t1 - t0)
        tally.op(not vdf.verify(params, x, vdf.VdfProof(y + 1, pi, r)))
        # Degenerate forgeries, accepted until verify checks y and pi.
        for bogus in (0, n):
            r_bogus = vdf.derive_challenge(params, x, bogus)
            tally.op(not vdf.verify(params, x, vdf.VdfProof(bogus, bogus, r_bogus)))


def is_prime_by_trial(n):
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


class HauthStream(Workload):
    """Authenticated stream: a fixed key and the degree-2 circuit
    sum_{i<64} m_i * m_{64+i} + 7.  Each round is one epoch of 128 fresh
    values labelled (column i, epoch)."""

    name = "hauth-stream"
    op_key = "epoch"
    details = [("hauth_auth_ms_p50", "auth", 1e3, "ms/128tags"),
               ("hauth_eval_ms_p50", "eval", 1e3, "ms"),
               ("hauth_verify_ms_p50", "verify", 1e3, "ms"),
               ("hauth_load_us_p50", "load", 1e6, "us")]
    HALF = 64
    CONST = 7
    KEY_SEED = b"vckit-bench/hauth-stream"

    def __init__(self, seed, field, tally):
        super().__init__(seed, field, tally)
        self.seed = seed
        h = self.HALF
        gates = [hauth.Gate("mul", i, h + i) for i in range(h)]
        acc = 2 * h
        for i in range(1, h):
            gates.append(hauth.Gate("add", acc, 2 * h + i))
            acc = 2 * h + len(gates) - 1
        gates.append(hauth.Gate("addc", acc, const=self.CONST))
        self.circuit = hauth.Circuit(2 * h, tuple(gates))
        self.key = hauth.keygen(self.KEY_SEED, field)
        self.columns = [b"column-%d" % i for i in range(2 * h)]
        self.pre = hauth.amortize_offline(self.key, self.circuit, self.columns)

    def _circuit_ints(self, v):
        h = self.HALF
        return (sum(v[i] * v[h + i] for i in range(h)) + self.CONST) % self.p

    def round(self, i):
        tally, key = self.tally, self.key
        delta = b"epoch-%d-%d" % (self.seed, i)
        msgs = [self.rng.randrange(self.p) for _ in self.columns]
        labels = [hauth.MultiLabel(col, delta) for col in self.columns]
        t0 = perf_counter()
        tags = [hauth.auth(key, m, lab) for m, lab in zip(msgs, labels)]
        t1 = perf_counter()
        out = hauth.eval_tags(self.circuit, tags)
        t2 = perf_counter()
        claimed = self._circuit_ints(msgs)
        t3 = perf_counter()
        verdict = hauth.verify(key, self.circuit, labels, out, claimed)
        t4 = perf_counter()
        loaded = hauth.load(self.pre, key, delta)
        t5 = perf_counter()
        for ok in (True, True, bool(verdict), True):  # auth, eval, verify, load
            tally.op(ok)
        tally.op(not hauth.verify(key, self.circuit, labels, out, claimed + 1))
        rs = [hauth.label_randomness(key, lab).value for lab in labels]
        tally.check(loaded.value == self._circuit_ints(rs),
                    "load != circuit over label_randomness")
        tally.sample("auth", t1 - t0)
        tally.sample("eval", t2 - t1)
        tally.sample("load", t5 - t4)
        if verdict:
            tally.sample("verify", t4 - t3)
            tally.sample("epoch", (t2 - t0) + (t5 - t3))


def percentile_detail(name, samples, q, factor, unit):
    """The q-quantile (nearest rank), reported only with at least ten
    samples beyond it."""
    n = len(samples)
    if n * (1 - q) < 10:
        return []
    ranked = sorted(samples)
    return [(name, ranked[math.ceil(q * n) - 1] * factor, unit, n)]


WORKLOADS = {w.name: w for w in (StarkProve, StarkVerify, VdfBeacon, HauthStream)}
