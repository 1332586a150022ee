"""Acceptance suite: ten numbered system-level criteria.

Each test prints a single machine-readable pass/fail line (bypassing
pytest's capture) in addition to asserting, so a transcript of the run
doubles as the acceptance report.
"""

import math
import random
import time

import numpy as np
import pytest

from vckit import fri, hauth, stark, vdf
from vckit.field import (DEFAULT_MODULUS, EvaluationDomain, Field,
                         Polynomial)
from vckit.transcript import Transcript

F = Field(DEFAULT_MODULUS)
F97 = Field(97)

_capfd = None


@pytest.fixture(autouse=True)
def _expose_capfd(capfd):
    global _capfd
    _capfd = capfd
    yield
    _capfd = None


def _report(num, name, ok, detail):
    line = (f"criterion {num:02d} ({name}): "
            f"{'PASS' if ok else 'FAIL'} ({detail})")
    if _capfd is not None:
        with _capfd.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_criterion_01_2poly_soundness_rate():
    """Single-query false-accept rate for a worst-case pair differing
    everywhere except d points: expected d/|D| = 4/400 = 0.01."""
    d, n, trials = 4, 400, 100_000
    rng = random.Random(20240)
    xs = np.arange(n, dtype=np.uint64)
    f = Polynomial(F, [rng.randrange(F.modulus) for _ in range(d + 1)])
    agree = rng.sample(range(n), d)
    z_s = stark.membership_poly(F, agree)
    g = f + z_s
    fe = [int(v) for v in f.evaluate_array(xs)]
    ge = [int(v) for v in g.evaluate_array(xs)]
    assert sum(a == b for a, b in zip(fe, ge)) == d
    accepts = 0
    for trial in range(trials):
        t = Transcript("2poly-acceptance")
        t.absorb(b"trial", trial.to_bytes(8, "big"))
        if stark.probabilistic_poly_eq(fe, ge, d, t, 1):
            accepts += 1
    rate = accepts / trials
    tol = 3 * math.sqrt(0.01 * 0.99 / trials)
    ok = abs(rate - 0.01) <= tol
    _report(1, "2POLY soundness rate", ok,
            f"rate={rate:.5f}, target=0.01000, tol={tol:.5f}")


def test_criterion_02_polynomial_comparison():
    """Unequal degree-<=d polynomials over F_97 coincide on at most d
    points, exhaustively scanned; 1000 random pairs, d <= 8."""
    rng = random.Random(97)
    worst = 0
    for _ in range(1000):
        d = rng.randrange(1, 9)
        while True:
            f = Polynomial(F97, [rng.randrange(97) for _ in range(d + 1)])
            g = Polynomial(F97, [rng.randrange(97) for _ in range(d + 1)])
            if f != g:
                break
        agree = sum(f.evaluate(x) == g.evaluate(x) for x in range(97))
        diff_deg = (f - g).degree
        assert agree <= diff_deg <= d
        worst = max(worst, agree - diff_deg)
    _report(2, "polynomial comparison theorem", worst <= 0,
            "1000 pairs, coincidences <= deg everywhere")


def test_criterion_03_vdf_completeness_trapdoor():
    """1000 random instances: sequential == trapdoor, proofs verify."""
    rng = random.Random(303)
    failures = 0
    for i in range(1000):
        params, trapdoor = vdf.setup(16, b"c3-%d" % i,
                                     delay=rng.randrange(1, 1025))
        x = vdf.hash_to_group(b"in-%d" % i, params.n_modulus)
        y_seq = vdf.eval_sequential(params, x)
        y_td = vdf.eval_trapdoor(trapdoor, params, x)
        r = vdf.derive_challenge(params, x, y_seq)
        pi = vdf.prove(params, x, y_seq, r)
        if y_seq != y_td or not vdf.verify(params, x,
                                           vdf.VdfProof(y_seq, pi, r)):
            failures += 1
    _report(3, "VDF completeness + trapdoor equivalence", failures == 0,
            f"failures={failures}/1000")


def test_criterion_04_vdf_asymmetry():
    """T = 2^16: prover/verifier op ratio >= 2^8 and verifier bound."""
    T = 2**16
    params, _ = vdf.setup(16, b"asymmetry", delay=T, security_bits=16)
    pcount = vdf.VdfCounters()
    x, proof = vdf.vdf_round(params, b"beacon", pcount)
    vcount = vdf.VdfCounters()
    assert vdf.verify(params, x, proof, vcount)
    ratio = pcount.squarings / vcount.multiplications
    residue = pow(2, T, proof.r)
    bound = 2 * (proof.r.bit_length() + residue.bit_length()) + 8
    ok = ratio >= 2**8 and vcount.multiplications <= bound
    _report(4, "VDF verifier scalability proxy", ok,
            f"ratio={ratio:.0f} (>=256), "
            f"verifier_muls={vcount.multiplications} (<= {bound})")


def test_criterion_05_vdf_tamper_rejection():
    """1e5 random perturbations of (y, pi), all rejected."""
    params, _ = vdf.setup(16, b"tamper", delay=64)
    n = params.n_modulus
    x, proof = vdf.vdf_round(params, b"target")
    rng = random.Random(505)
    accepts = 0
    trials = 0
    while trials < 100_000:
        dy = rng.randrange(n) if rng.random() < 0.5 else 0
        dpi = rng.randrange(n) if dy == 0 or rng.random() < 0.5 else 0
        y2 = (proof.y + dy) % n
        pi2 = (proof.pi + dpi) % n
        if (min(y2, n - y2) == min(proof.y, n - proof.y)
                and min(pi2, n - pi2) == min(proof.pi, n - proof.pi)):
            continue  # same group elements: not a perturbation
        trials += 1
        if vdf.verify(params, x, vdf.VdfProof(y2, pi2, proof.r)):
            accepts += 1
    _report(5, "VDF tamper rejection", accepts == 0,
            f"false_accepts={accepts}/100000")


def test_criterion_06_fri_grid_and_soundness():
    """Completeness over the (d, blowup, queries) grid, then far-input
    rejection rate at |D| = 64, claimed d = 4, 20 queries."""
    rng = random.Random(606)
    grid_ok = True
    for d in (2, 4, 8, 16):
        for blowup in (4, 8, 16):
            for queries in (4, 20):
                dom = EvaluationDomain.coset(F, d * blowup, F.generator())
                params = fri.FriParams(dom, d, queries)
                poly = Polynomial(F, [rng.randrange(F.modulus)
                                      for _ in range(d)])
                evals = poly.evaluate_array(dom.point_array())
                label = b"%d-%d-%d" % (d, blowup, queries)
                t = Transcript("fri-grid")
                t.absorb(b"case", label)
                proof = fri.prove(evals, params, t)
                t = Transcript("fri-grid")
                t.absorb(b"case", label)
                if not fri.verify(proof, params, t):
                    grid_ok = False
    dom = EvaluationDomain.coset(F, 64, F.generator())
    params = fri.FriParams(dom, 4, 20)
    rejects = 0
    for trial in range(1000):
        evals = [rng.randrange(F.modulus) for _ in range(64)]
        t = Transcript("fri-far")
        t.absorb(b"trial", trial.to_bytes(8, "big"))
        proof = fri.prove(evals, params, t, enforce_low_degree=False)
        t = Transcript("fri-far")
        t.absorb(b"trial", trial.to_bytes(8, "big"))
        if not fri.verify(proof, params, t):
            rejects += 1
    ok = grid_ok and rejects >= 990
    _report(6, "FRI completeness + far-soundness", ok,
            f"grid={'ok' if grid_ok else 'FAIL'}, "
            f"far_rejects={rejects}/1000 (>=990)")


def test_criterion_07_stark_end_to_end():
    """Fibonacci-8 accepts; 100 single-cell mutations >= 99% rejected."""
    trace = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 20)
    honest = bool(stark.verify(stark.prove(trace, cs, params), cs, params, F))
    rng = random.Random(707)
    rejects = 0
    for _ in range(100):
        bad = stark.TraceTable([list(trace.columns[0])], 8, F)
        row = rng.randrange(8)
        bad.columns[0][row] = (bad.columns[0][row]
                               + rng.randrange(1, F.modulus)) % F.modulus
        proof = stark.prove(bad, cs, params, skip_satisfaction_check=True)
        if not stark.verify(proof, cs, params, F):
            rejects += 1
    ok = honest and rejects >= 99
    _report(7, "STARK end-to-end", ok,
            f"honest_accept={honest}, mutation_rejects={rejects}/100")


def test_criterion_08_scalability_shape():
    """Trace 2^10 -> 2^14 (16x): proof size and verifier field-op ratios
    < 4, prover time ratio within the quasilinear band (<= 512)."""
    params = stark.StarkParams(4, 8)
    results = {}
    for n in (2**10, 2**14):
        trace = stark.trace_fibonacci(n, F)
        cs = stark.fibonacci_constraint_system(n, F)
        start = time.perf_counter()
        proof = stark.prove(trace, cs, params)
        elapsed = time.perf_counter() - start
        field = Field(DEFAULT_MODULUS)
        field.op_count = 0
        assert stark.verify(proof, cs, params, field)
        results[n] = (len(proof.serialize()), field.op_count, elapsed)
    size_ratio = results[2**14][0] / results[2**10][0]
    ops_ratio = results[2**14][1] / results[2**10][1]
    time_ratio = results[2**14][2] / results[2**10][2]
    ok = size_ratio < 4 and ops_ratio < 4 and time_ratio <= 16 * 32
    _report(8, "scalability shape", ok,
            f"size_ratio={size_ratio:.2f} (<4), "
            f"verifier_op_ratio={ops_ratio:.2f} (<4), "
            f"prover_time_ratio={time_ratio:.0f} (<=512)")


def test_criterion_09_zk_structure():
    """1000 zk proofs: no opened index in the trace subgroup; two pad
    seeds give byte-distinct accepted proofs."""
    trace = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(4, 4, zk=True)
    leaked = 0
    first = last = None
    w = cs.max_window()
    for seed in range(1000):
        proof = stark.prove(trace, cs, params, zk_seed=seed)
        sub = EvaluationDomain.subgroup(F, proof.trace_length)
        lde = params.lde_domain(F, proof.trace_length)
        h0 = lde.size // 2
        for q in proof.fri_proof.queries:
            opened = {(q + r * params.blowup) % lde.size
                      for r in range(w)}
            opened.update({q, q + h0})
            for idx in opened:
                if sub.contains(lde.point(idx)):
                    leaked += 1
        if seed == 0:
            first = proof.serialize()
        if seed == 1:
            last = proof.serialize()
            assert stark.verify(stark.StarkProof.deserialize(first),
                                cs, params, F)
            assert stark.verify(stark.StarkProof.deserialize(last),
                                cs, params, F)
    distinct = first != last
    ok = leaked == 0 and distinct
    _report(9, "ZK structural suite", ok,
            f"subgroup_leaks={leaked}, seeds_distinct={distinct}")


def _random_circuit(rng, num_inputs, num_gates, max_syntactic_degree=None):
    gates = []
    total = num_inputs
    for _ in range(num_gates):
        op = rng.choice(["add", "mul", "addc", "mulc"])
        a = rng.randrange(total)
        if op in ("add", "mul"):
            gates.append(hauth.Gate(op, a, rng.randrange(total)))
        else:
            gates.append(hauth.Gate(op, a, const=rng.randrange(1000)))
        total += 1
        circ = hauth.Circuit(num_inputs, tuple(gates))
        if (max_syntactic_degree is not None
                and circ.syntactic_degree() > max_syntactic_degree):
            gates.pop()
            total -= 1
    return hauth.Circuit(num_inputs, tuple(gates))


def test_criterion_10_hauth_laws():
    rng = random.Random(1010)
    key = hauth.keygen(b"acceptance", F)
    key2 = hauth.keygen(b"acceptance-2", F)

    completeness_failures = 0
    for i in range(1000):
        k = rng.randrange(1, 4)
        circ = _random_circuit(rng, k, rng.randrange(1, 5))
        labels = [hauth.MultiLabel(b"c10-%d-%d" % (i, j)) for j in range(k)]
        msgs = [rng.randrange(F.modulus) for _ in range(k)]
        tags = [hauth.auth(key, m, l) for m, l in zip(msgs, labels)]
        out = hauth.eval_tags(circ, tags)
        y = circ.evaluate([F(m) for m in msgs])
        if not hauth.verify(key, circ, labels, out, y):
            completeness_failures += 1

    amortized_mismatches = 0
    for i in range(100):
        circ = _random_circuit(rng, 2, 3, max_syntactic_degree=2)
        l_parts = [b"am-%d-0" % i, b"am-%d-1" % i]
        pre = hauth.amortize_offline(key, circ, l_parts)
        delta = b"delta-%d" % rng.randrange(10**6)
        rs = [hauth.label_randomness(key, hauth.MultiLabel(l, delta))
              for l in l_parts]
        if hauth.load(pre, key, delta) != circ.evaluate(rs):
            amortized_mismatches += 1

    forgeries = 0
    circ = hauth.Circuit(1, (), output=0)
    label = [hauth.MultiLabel(b"forge-target")]
    for _ in range(100_000):
        a = rng.randrange(F.modulus)
        b = rng.randrange(F.modulus)
        forged = hauth.Tag(Polynomial(F, [a, b]), arity=1)
        if hauth.verify(key, circ, label, forged, a):
            forgeries += 1

    mk_failures = 0
    for i in range(100):
        circ = _random_circuit(rng, 2, rng.randrange(1, 4))
        la = hauth.MultiLabel(b"mk-%d-a" % i)
        lb = hauth.MultiLabel(b"mk-%d-b" % i)
        ma, mb = rng.randrange(F.modulus), rng.randrange(F.modulus)
        t1 = hauth.auth_mk((key, key2), ma, la, slot=0)
        t2 = hauth.auth_mk((key, key2), mb, lb, slot=1)
        out = hauth.eval_tags(circ, [t1, t2])
        y = circ.evaluate([F(ma), F(mb)])
        if not hauth.verify_mk((key, key2), circ, [(la, 0), (lb, 1)], out, y):
            mk_failures += 1
        # substitution oracle at a random point
        x, z = rng.randrange(F.modulus), rng.randrange(F.modulus)
        want = circ.evaluate([t1.poly.evaluate(x, z), t2.poly.evaluate(x, z)])
        if out.poly.evaluate(x, z) != want:
            mk_failures += 1

    ok = (completeness_failures == 0 and amortized_mismatches == 0
          and forgeries == 0 and mk_failures == 0)
    _report(10, "HAUTH laws", ok,
            f"completeness_failures={completeness_failures}/1000, "
            f"amortized_mismatches={amortized_mismatches}/100, "
            f"forgeries={forgeries}/100000, multikey_failures={mk_failures}")
