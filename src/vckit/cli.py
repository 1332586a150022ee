"""Command-line entry point for the hauth, vdf, fri and stark workflows,
plus the Monte Carlo benchmark harness.

Exit codes: 0 accept/success, 1 reject, 2 usage error, 3 internal error.
Benchmarks emit line-delimited JSON records followed by a human summary.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import fri as fri_mod
from . import hauth, stark, vdf
from .encoding import Reader, bytes_lp, u8, u32, u64
from .errors import (ConstraintViolation, InternalError, UsageError,
                     VerifyResult)
from .field import DEFAULT_MODULUS, Field, Polynomial
from .transcript import Transcript

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

VETTED_MODULI = {DEFAULT_MODULUS, 17, 13, 97}


def load_config(path):
    """Optional key = value config lines."""
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    return cfg


def _of_type(value, kind) -> bool:
    # JSON true and false load as bool, a subclass of int, never a number here
    return isinstance(value, kind) and not (kind is int
                                            and isinstance(value, bool))


def _require(doc, what, fields):
    """doc, checked to be a JSON object holding every key of fields with a
    value of the type fields maps it to."""
    if not isinstance(doc, dict):
        raise UsageError(f"{what} must be a JSON object")
    for key, kind in fields.items():
        if key not in doc:
            raise UsageError(f"{what} has no {key!r}")
        if not _of_type(doc[key], kind):
            raise UsageError(
                f"{what}: {key!r} must be of type {kind.__name__}")
    return doc


def _from_hex(text, what) -> bytes:
    try:
        return bytes.fromhex(text)
    except (TypeError, ValueError):
        raise UsageError(f"{what} is not a hex string") from None


def load_json(source, what, fields=None):
    """The JSON document in a file (a path) or in bytes already read.
    Malformed JSON, or a document without one of the keys of fields or
    with a value of another type there, is a UsageError."""
    if not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    try:
        doc = json.loads(source)
    except ValueError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None
    return _require(doc, what, fields) if fields else doc


def get_field(args) -> Field:
    modulus = getattr(args, "modulus", None) or DEFAULT_MODULUS
    if modulus not in VETTED_MODULI:
        raise UsageError(f"modulus {modulus} is not on the vetted list")
    return Field(modulus)


# ---------------------------------------------------------------------------
# hauth

def load_circuit(path) -> hauth.Circuit:
    """A circuit file: {"inputs": n, "gates": [[op, wire, wire or
    constant], ...], "output": wire}, each gate reading only inputs and
    earlier gates."""
    desc = load_json(path, "circuit file", {"inputs": int})
    wires = desc["inputs"]
    spec = desc.get("gates", [])
    output = desc.get("output", -1)
    if not isinstance(spec, list):
        raise UsageError("circuit file: 'gates' must be a list")
    gates = []
    for k, g in enumerate(spec):
        if not (isinstance(g, list) and len(g) == 3 and _of_type(g[1], int)
                and _of_type(g[2], int)):
            raise UsageError(f"circuit gate {k} is not [op, wire, wire "
                             f"or constant]")
        op, a, b = g
        if op not in ("add", "mul", "addc", "mulc"):
            raise UsageError(f"unknown gate {op}")
        if not 0 <= a < wires or (op in ("add", "mul") and not 0 <= b < wires):
            raise UsageError(f"circuit gate {k} reads a wire not yet computed")
        gates.append(hauth.Gate(op, a, b) if op in ("add", "mul")
                     else hauth.Gate(op, a, const=b))
        wires += 1
    if not (_of_type(output, int) and -wires <= output < wires):
        raise UsageError("circuit output is not a wire")
    return hauth.Circuit(desc["inputs"], tuple(gates), output)


def parse_label(text) -> hauth.MultiLabel:
    if ":" in text:
        l, delta = text.split(":", 1)
        return hauth.MultiLabel(l.encode(), delta.encode())
    return hauth.MultiLabel(text.encode())


def save_tag(tag: hauth.Tag, path):
    if tag.arity != 1:
        raise UsageError("tag files carry arity-1 tags")
    with open(path, "wb") as fh:
        fh.write(u8(1) + tag.poly.serialize())


def load_tag(path, field) -> hauth.Tag:
    with open(path, "rb") as fh:
        reader = Reader(fh.read())
    if reader.u8() != 1:
        raise UsageError("tag files carry arity-1 tags")
    poly = Polynomial.deserialize(field, reader)
    reader.finish()
    return hauth.Tag(poly, arity=1)


def cmd_hauth(args):
    field = get_field(args)
    if args.cmd == "keygen":
        key = hauth.keygen(_from_hex(args.seed, "--seed"), field)
        with open(args.output, "w") as fh:
            json.dump({"sk": key.sk.value, "prf_key": key.prf_key.key.hex(),
                       "modulus": field.modulus}, fh)
        print(f"wrote key to {args.output}")
        return EXIT_OK
    raw = load_json(args.key, "key file",
                    {"sk": int, "prf_key": str, "modulus": int})
    field = Field(raw["modulus"])
    key = hauth.AuthKey(field(raw["sk"]), hauth.PrfKey(
        _from_hex(raw["prf_key"], "key file 'prf_key'")))
    if args.cmd == "auth":
        tag = hauth.auth(key, args.message, parse_label(args.label))
        save_tag(tag, args.output)
        print(f"wrote tag to {args.output}")
        return EXIT_OK
    circuit = load_circuit(args.circuit)
    if args.cmd == "eval":
        tags = [load_tag(p, field) for p in args.tags]
        save_tag(hauth.eval_tags(circuit, tags), args.output)
        print(f"wrote tag to {args.output}")
        return EXIT_OK
    if args.cmd == "verify":
        labels = [parse_label(l) for l in args.labels]
        tag = load_tag(args.tag, field)
        verdict = hauth.verify(key, circuit, labels, tag, args.claim)
        print("accept" if verdict else f"reject ({verdict.reason})")
        return EXIT_OK if verdict else EXIT_REJECT
    raise UsageError(f"unknown hauth command {args.cmd}")


# ---------------------------------------------------------------------------
# vdf

def estimate_delay(seconds: float, n_modulus: int) -> int:
    """Map a wall-clock target to a squaring count by measuring throughput."""
    x = 0x1234567 % n_modulus
    count, start = 0, time.perf_counter()
    while time.perf_counter() - start < 0.2:
        for _ in range(1000):
            x = x * x % n_modulus
        count += 1000
    rate = count / (time.perf_counter() - start)
    return max(1, int(rate * seconds))


def cmd_vdf(args):
    if args.cmd == "setup":
        params, trapdoor = vdf.setup(args.bits, _from_hex(args.seed, "--seed"),
                                     delay=args.delay or 0,
                                     security_bits=args.security)
        if args.delay_seconds:
            delay = estimate_delay(args.delay_seconds, params.n_modulus)
            params = vdf.VdfParams(params.n_modulus, delay,
                                   params.security_bits)
        with open(args.output, "w") as fh:
            json.dump({"N": params.n_modulus, "T": params.delay,
                       "lambda": params.security_bits,
                       "p": trapdoor.p, "q": trapdoor.q}, fh)
        print(f"wrote params (T={params.delay}) to {args.output}")
        return EXIT_OK
    fields = {"N": int, "T": int, "lambda": int}
    if getattr(args, "trapdoor", False):
        fields.update(p=int, q=int)
    raw = load_json(args.params, "params file", fields)
    params = vdf.VdfParams(raw["N"], raw["T"], raw["lambda"])
    if args.cmd == "verify":
        # N, T, lambda and x' come from the verifier's own files; the copies
        # in the proof file must match them, never replace them.
        with open(args.proof, "rb") as fh:
            file_params, file_x, proof = vdf.deserialize_proof(fh.read())
        x_prime = vdf.hash_to_group(_from_hex(args.input, "--input"),
                                    params.n_modulus)
        if file_params != params:
            verdict = VerifyResult.reject("params-mismatch")
        elif file_x != x_prime:
            verdict = VerifyResult.reject("input-mismatch")
        else:
            verdict = vdf.verify(params, x_prime, proof)
        print("accept" if verdict else f"reject ({verdict.reason})")
        return EXIT_OK if verdict else EXIT_REJECT
    if args.cmd == "eval":
        x_prime = vdf.hash_to_group(_from_hex(args.input, "--input"),
                                    params.n_modulus)
        if args.trapdoor:
            y = vdf.eval_trapdoor(vdf.TrapdoorKey(raw["p"], raw["q"]),
                                  params, x_prime)
        else:
            y = vdf.eval_sequential(params, x_prime)
        print(json.dumps({"x_prime": x_prime, "y": y}))
        return EXIT_OK
    if args.cmd in ("prove", "beacon"):
        x_prime, proof = vdf.vdf_round(params,
                                       _from_hex(args.input, "--input"))
        with open(args.output, "wb") as fh:
            fh.write(vdf.serialize_proof(params, x_prime, proof))
        print(f"wrote proof (y={proof.y}) to {args.output}")
        return EXIT_OK
    raise UsageError(f"unknown vdf command {args.cmd}")


# ---------------------------------------------------------------------------
# fri

FRI_FILE_MAGIC = b"VCKp"


def cmd_fri(args):
    field = get_field(args)
    if args.cmd == "demo":
        print("FRI folds a committed evaluation table log2(d) times;")
        size, d = args.domain, args.degree
        while d > 1:
            print(f"  layer of {size} evaluations, degree bound {d}")
            size, d = size // 2, d // 2
        print(f"  final layer of {size} evaluations: a single constant")
        return EXIT_OK
    if args.cmd == "prove":
        import random as _random
        rng = _random.Random(args.seed)
        domain = stark.EvaluationDomain.coset(field, args.domain,
                                              field.generator())
        params = fri_mod.FriParams(domain, args.degree, args.queries)
        poly = Polynomial(field,
                          [rng.randrange(field.modulus)
                           for _ in range(args.degree)])
        evals = poly.evaluate_array(domain.point_array())
        t = Transcript("fri")
        t.absorb(b"params", u32(args.domain) + u32(args.degree)
                 + u32(args.queries))
        proof = fri_mod.prove(evals, params, t)
        with open(args.output, "wb") as fh:
            fh.write(FRI_FILE_MAGIC + u32(field.modulus) + u32(args.domain)
                     + u32(args.degree) + u32(args.queries)
                     + proof.serialize())
        print(f"wrote FRI proof to {args.output}")
        return EXIT_OK
    if args.cmd == "verify":
        with open(args.proof, "rb") as fh:
            reader = Reader(fh.read())
        if reader.take(4) != FRI_FILE_MAGIC:
            raise UsageError("not a FRI proof file")
        field = Field(reader.u32())
        domain_size = reader.u32()
        degree = reader.u32()
        queries = reader.u32()
        domain = stark.EvaluationDomain.coset(field, domain_size,
                                              field.generator())
        params = fri_mod.FriParams(domain, degree, queries)
        proof = fri_mod.FriProof.deserialize(reader)
        t = Transcript("fri")
        t.absorb(b"params", u32(domain_size) + u32(degree) + u32(queries))
        verdict = fri_mod.verify(proof, params, t)
        print("accept" if verdict else f"reject ({verdict.reason})")
        return EXIT_OK if verdict else EXIT_REJECT
    raise UsageError(f"unknown fri command {args.cmd}")


# ---------------------------------------------------------------------------
# stark

def build_program(name: str, length: int, field, boundary_json=None):
    if name != "fib":
        raise UsageError(f"unknown program {name}")
    trace = stark.trace_fibonacci(length, field)
    cs = stark.fibonacci_constraint_system(length, field)
    if boundary_json:
        if not isinstance(boundary_json, list):
            raise UsageError("boundary constraints must be a JSON list")
        entries = [_require(b, "boundary constraint",
                            {"column": int, "row": int, "value": int})
                   for b in boundary_json]
        extra = [stark.BoundaryConstraint(b["column"], b["row"], b["value"])
                 for b in entries]
        cs = stark.ConstraintSystem(cs.num_columns,
                                    cs.boundaries + extra, cs.transitions)
    return trace, cs


def cmd_stark(args):
    field = get_field(args)
    if args.cmd == "prove":
        boundary = None
        if args.boundary_json:
            boundary = load_json(args.boundary_json, "boundary file")
        trace, cs = build_program(args.program, args.length, field, boundary)
        params = stark.StarkParams(args.blowup or 8, args.queries or 20,
                                   zk=args.zk)
        proof = stark.prove(trace, cs, params, zk_seed=args.zk_seed)
        blob = (json.dumps({"program": args.program, "length": args.length,
                            "boundary": boundary}).encode())
        with open(args.output, "wb") as fh:
            fh.write(bytes_lp(blob) + proof.serialize())
        print(f"wrote proof ({args.length}-row trace) to {args.output}")
        return EXIT_OK
    if args.cmd == "verify":
        with open(args.proof, "rb") as fh:
            reader = Reader(fh.read())
        meta = load_json(reader.bytes_lp(), "proof header",
                         {"program": str, "length": int})
        proof = stark.StarkProof.deserialize(reader.take(
            len(reader.data) - reader.pos))
        _, cs = build_program(meta["program"], meta["length"], field,
                              meta.get("boundary"))
        params = stark.StarkParams(proof.blowup, proof.num_queries,
                                   zk=proof.zk)
        verdict = stark.verify(proof, cs, params, field)
        print("accept" if verdict else f"reject ({verdict.reason})")
        return EXIT_OK if verdict else EXIT_REJECT
    raise UsageError(f"unknown stark command {args.cmd}")


# ---------------------------------------------------------------------------
# benchmarks

def bench_2poly(args, field):
    import random as _random
    rng = _random.Random(args.seed)
    n, d = args.domain, args.d
    if n > field.modulus:
        raise UsageError("the domain has more points than the field")
    xs = np.arange(n, dtype=np.uint64)
    f = Polynomial(field, [rng.randrange(field.modulus)
                           for _ in range(d + 1)])
    roots = rng.sample(range(n), d)
    z_s = stark.membership_poly(field, roots)
    g = f + z_s
    f_evals = [int(v) for v in f.evaluate_array(xs)]
    g_evals = [int(v) for v in g.evaluate_array(xs)]
    accepts = 0
    for trial in range(args.trials):
        t = Transcript("2poly-bench")
        t.absorb(b"trial", trial.to_bytes(8, "big"))
        if stark.probabilistic_poly_eq(f_evals, g_evals, d, t, 1):
            accepts += 1
    rate = accepts / args.trials
    expected = d / n
    record = {"bench": "2poly", "d": d, "domain": n, "trials": args.trials,
              "false_accept_rate": rate, "expected": expected}
    print(json.dumps(record))
    print(f"2POLY false-accept rate {rate:.5f} (theory {expected:.5f})")
    return EXIT_OK


def bench_vdf_asymmetry(args, field):
    params, _ = vdf.setup(16, b"bench", delay=args.T, security_bits=16)
    counters = vdf.VdfCounters()
    x_prime, proof = vdf.vdf_round(params, b"bench-input", counters)
    vcount = vdf.VdfCounters()
    assert vdf.verify(params, x_prime, proof, vcount)
    ratio = counters.squarings / max(1, vcount.multiplications)
    record = {"bench": "vdf-asymmetry", "T": args.T,
              "prover_squarings": counters.squarings,
              "prover_multiplications": counters.multiplications,
              "verifier_multiplications": vcount.multiplications,
              "ratio": ratio}
    print(json.dumps(record))
    print(f"prover/verifier work ratio {ratio:.1f}")
    return EXIT_OK


def bench_fri_soundness(args, field):
    import random as _random
    rng = _random.Random(args.seed)
    domain = stark.EvaluationDomain.coset(field, 64, field.generator())
    params = fri_mod.FriParams(domain, 4, 20)
    rejects = 0
    for trial in range(args.trials):
        evals = [rng.randrange(field.modulus) for _ in range(64)]
        t = Transcript("fri-bench")
        t.absorb(b"trial", trial.to_bytes(8, "big"))
        proof = fri_mod.prove(evals, params, t, enforce_low_degree=False)
        t = Transcript("fri-bench")
        t.absorb(b"trial", trial.to_bytes(8, "big"))
        if not fri_mod.verify(proof, params, t):
            rejects += 1
    rate = rejects / args.trials
    record = {"bench": "fri-soundness", "trials": args.trials,
              "reject_rate": rate}
    print(json.dumps(record))
    print(f"FRI far-soundness reject rate {rate:.4f}")
    return EXIT_OK


def bench_stark_mutation(args, field):
    import random as _random
    rng = _random.Random(args.seed)
    length = 8
    trace, cs = build_program("fib", length, field)
    params = stark.StarkParams(8, 20)
    rejects = 0
    for _ in range(args.trials):
        mutated = stark.TraceTable([list(c) for c in trace.columns],
                                   trace.original_length, field)
        row = rng.randrange(length)
        mutated.columns[0][row] = (mutated.columns[0][row]
                                   + rng.randrange(1, field.modulus)) % field.modulus
        proof = stark.prove(mutated, cs, params,
                            skip_satisfaction_check=True)
        if not stark.verify(proof, cs, params, field):
            rejects += 1
    rate = rejects / args.trials
    record = {"bench": "stark-mutation", "trials": args.trials,
              "reject_rate": rate}
    print(json.dumps(record))
    print(f"STARK mutation reject rate {rate:.4f}")
    return EXIT_OK


def cmd_bench(args):
    field = get_field(args)
    return {"2poly": bench_2poly, "vdf-asymmetry": bench_vdf_asymmetry,
            "fri-soundness": bench_fri_soundness,
            "stark-mutation": bench_stark_mutation}[args.cmd](args, field)


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="vckit",
                                  description="verifiable-computation toolkit")
    top.add_argument("--config", help="key = value config file")
    top.add_argument("--modulus", type=int, help="field modulus override")
    sub = top.add_subparsers(dest="group", required=True)

    ha = sub.add_parser("hauth").add_subparsers(dest="cmd", required=True)
    pk = ha.add_parser("keygen")
    pk.add_argument("--seed", required=True)
    pk.add_argument("-o", "--output", required=True)
    pa = ha.add_parser("auth")
    pa.add_argument("--key", required=True)
    pa.add_argument("-m", "--message", type=int, required=True)
    pa.add_argument("--label", required=True)
    pa.add_argument("-o", "--output", required=True)
    pe = ha.add_parser("eval")
    pe.add_argument("--key", required=True)
    pe.add_argument("--circuit", required=True)
    pe.add_argument("--tags", nargs="+", required=True)
    pe.add_argument("-o", "--output", required=True)
    pv = ha.add_parser("verify")
    pv.add_argument("--key", required=True)
    pv.add_argument("--circuit", required=True)
    pv.add_argument("--labels", nargs="+", required=True)
    pv.add_argument("--tag", required=True)
    pv.add_argument("--claim", type=int, required=True)

    vd = sub.add_parser("vdf").add_subparsers(dest="cmd", required=True)
    ps = vd.add_parser("setup")
    ps.add_argument("--bits", type=int, default=16)
    ps.add_argument("--seed", required=True)
    ps.add_argument("-T", "--delay", type=int)
    ps.add_argument("--delay-seconds", type=float,
                    help="calibrate T from a wall-clock target")
    ps.add_argument("--security", type=int, default=16)
    ps.add_argument("-o", "--output", required=True)
    for name in ("eval", "prove", "beacon"):
        pp = vd.add_parser(name)
        pp.add_argument("--params", required=True)
        pp.add_argument("--input", required=True, help="hex input bytes")
        if name == "eval":
            pp.add_argument("--trapdoor", action="store_true")
        else:
            pp.add_argument("-o", "--output", required=True)
    pv = vd.add_parser("verify")
    pv.add_argument("--params", required=True)
    pv.add_argument("--input", required=True, help="hex input bytes")
    pv.add_argument("proof")

    fr = sub.add_parser("fri").add_subparsers(dest="cmd", required=True)
    pp = fr.add_parser("prove")
    pp.add_argument("--domain", type=int, default=64)
    pp.add_argument("--degree", type=int, default=8)
    pp.add_argument("--queries", type=int, default=20)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("-o", "--output", required=True)
    pv = fr.add_parser("verify")
    pv.add_argument("proof")
    pd = fr.add_parser("demo")
    pd.add_argument("--domain", type=int, default=64)
    pd.add_argument("--degree", type=int, default=8)

    st = sub.add_parser("stark").add_subparsers(dest="cmd", required=True)
    pp = st.add_parser("prove")
    pp.add_argument("--program", default="fib")
    pp.add_argument("--length", type=int, required=True)
    pp.add_argument("--blowup", type=int)
    pp.add_argument("--queries", type=int)
    pp.add_argument("--zk", action="store_true")
    pp.add_argument("--zk-seed", type=int, default=0)
    pp.add_argument("--boundary-json")
    pp.add_argument("-o", "--output", required=True)
    pv = st.add_parser("verify")
    pv.add_argument("proof")

    be = sub.add_parser("bench").add_subparsers(dest="cmd", required=True)
    p2 = be.add_parser("2poly")
    p2.add_argument("--d", type=int, default=4)
    p2.add_argument("--domain", type=int, default=400)
    p2.add_argument("--trials", type=int, default=100000)
    p2.add_argument("--seed", type=int, default=0)
    pa = be.add_parser("vdf-asymmetry")
    pa.add_argument("--T", type=int, default=2**16)
    pf = be.add_parser("fri-soundness")
    pf.add_argument("--trials", type=int, default=1000)
    pf.add_argument("--seed", type=int, default=0)
    pm = be.add_parser("stark-mutation")
    pm.add_argument("--trials", type=int, default=100)
    pm.add_argument("--seed", type=int, default=0)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.config:
            cfg = load_config(args.config)
            for key in ("modulus", "blowup", "queries"):
                if key in cfg and getattr(args, key, None) in (None,):
                    setattr(args, key, int(cfg[key]))
        handler = {"hauth": cmd_hauth, "vdf": cmd_vdf, "fri": cmd_fri,
                   "stark": cmd_stark, "bench": cmd_bench}[args.group]
        return handler(args)
    except (UsageError, ConstraintViolation) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
