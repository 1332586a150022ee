"""Command-line entry point for the hauth, vdf, fri and stark workflows,
plus the Monte Carlo benchmark harness.

Exit codes: 0 accept/success, 1 reject, 2 usage error, 3 internal error.
Benchmarks emit line-delimited JSON records followed by a human summary.
"""

import argparse
import json
import sys

import numpy as np

from . import fri as fri_mod
from . import hauth, stark, vdf
from .encoding import Reader, u8, u32
from .errors import ConstraintViolation, UsageError, VerifyResult
from .field import (DEFAULT_MODULUS, Field, Polynomial,
                    evaluate_on_domain)
from .transcript import Transcript

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

VETTED_MODULI = {DEFAULT_MODULUS, 17, 13, 97}


def load_config(path):
    """Optional key = value config lines."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    cfg = {}
    for line in lines:
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


def report(verdict: VerifyResult, accepted: str = "") -> int:
    """Print the verdict, an accept followed by what it accepted, and
    return its exit code."""
    print(f"accept {accepted}".rstrip() if verdict
          else f"reject ({verdict.reason})")
    return EXIT_OK if verdict else EXIT_REJECT


def get_field(modulus) -> Field:
    """The field of a vetted modulus, the default one for None."""
    modulus = DEFAULT_MODULUS if modulus is None else modulus
    if modulus not in VETTED_MODULI:
        raise UsageError(f"modulus {modulus} is not on the vetted list")
    return Field(modulus)


# ---------------------------------------------------------------------------
# hauth

def load_circuit(path) -> hauth.Circuit:
    """A circuit file: {"inputs": n, "gates": [[op, wire, wire or
    constant], ...], "output": wire}.  This checks the JSON shape;
    hauth.Circuit refuses every fault of the gates and the output."""
    desc = load_json(path, "circuit file", {"inputs": int})
    spec = desc.get("gates", [])
    if not isinstance(spec, list):
        raise UsageError("circuit file: 'gates' must be a list")
    gates = []
    for k, g in enumerate(spec):
        if not (isinstance(g, list) and len(g) == 3):
            raise UsageError(f"circuit gate {k} is not [op, wire, wire "
                             f"or constant]")
        op, a, b = g
        gates.append(hauth.Gate(op, a, b) if op in ("add", "mul")
                     else hauth.Gate(op, a, const=b))
    return hauth.Circuit(desc["inputs"], tuple(gates), desc.get("output", -1))


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
    if args.cmd == "keygen":
        field = get_field(args.modulus)
        key = hauth.keygen(_from_hex(args.seed, "--seed"), field)
        with open(args.output, "w") as fh:
            json.dump({"sk": key.sk.value, "prf_key": key.prf_key.key.hex(),
                       "modulus": field.modulus}, fh)
        print(f"wrote key to {args.output}")
        return EXIT_OK
    if args.cmd == "eval":
        # the server's step: the circuit and the tags in the --modulus
        # field, never the client's secret key
        field = get_field(args.modulus)
        circuit = load_circuit(args.circuit)
        tags = [load_tag(p, field) for p in args.tags]
        save_tag(hauth.eval_tags(circuit, tags), args.output)
        print(f"wrote tag to {args.output}")
        return EXIT_OK
    raw = load_json(args.key, "key file",
                    {"sk": int, "prf_key": str, "modulus": int})
    # the key file fixes the field; an explicit --modulus may only repeat it
    if args.modulus not in (None, raw["modulus"]):
        raise UsageError(f"--modulus {args.modulus} differs from the key "
                         f"file's modulus {raw['modulus']}")
    field = get_field(raw["modulus"])
    key = hauth.AuthKey(field(raw["sk"]), hauth.PrfKey(
        _from_hex(raw["prf_key"], "key file 'prf_key'")))
    if args.cmd == "auth":
        tag = hauth.auth(key, args.message, parse_label(args.label))
        save_tag(tag, args.output)
        print(f"wrote tag to {args.output}")
        return EXIT_OK
    circuit = load_circuit(args.circuit)
    labels = [parse_label(l) for l in args.labels]
    tag = load_tag(args.tag, field)
    return report(hauth.verify(key, circuit, labels, tag, args.claim))


# ---------------------------------------------------------------------------
# vdf

def estimate_delay(seconds: float, n_modulus: int) -> int:
    """Map a wall-clock target to a squaring count at the rate the
    evaluator's own squaring routine measures."""
    if not 0 < seconds < float("inf"):
        raise UsageError("--delay-seconds must be positive and finite")
    return max(1, int(vdf.squarings_per_second(n_modulus) * seconds))


def cmd_vdf(args):
    if args.cmd == "setup":
        if args.delay is not None and args.delay < 1:
            raise UsageError("-T must be at least 1: with no squaring there "
                             "is no delay")
        params, trapdoor = vdf.setup(args.bits, _from_hex(args.seed, "--seed"),
                                     delay=args.delay or 0,
                                     security_bits=args.security)
        if args.delay_seconds is not None:
            delay = estimate_delay(args.delay_seconds, params.n_modulus)
            params = vdf.VdfParams(params.n_modulus, delay,
                                   params.security_bits)
        with open(args.output, "w") as fh:
            json.dump({"N": params.n_modulus, "T": params.delay,
                       "lambda": params.security_bits}, fh)
        print(f"wrote params (T={params.delay}) to {args.output}")
        # p and q skip the delay: they go to a file of their own, or nowhere
        if args.trapdoor:
            with open(args.trapdoor, "w") as fh:
                json.dump({"p": trapdoor.p, "q": trapdoor.q}, fh)
            print(f"wrote trapdoor to {args.trapdoor}")
        return EXIT_OK
    raw = load_json(args.params, "params file",
                    {"N": int, "T": int, "lambda": int})
    params = vdf.VdfParams(raw["N"], raw["T"], raw["lambda"])
    input_bytes = _from_hex(args.input, "--input")
    if args.cmd == "beacon":
        _, proof = vdf.vdf_round(params, input_bytes)
        with open(args.output, "wb") as fh:
            fh.write(vdf.serialize_proof(proof))
        print(f"wrote proof (y={proof.y}) to {args.output}")
        return EXIT_OK
    x_prime = vdf.hash_to_group(input_bytes, params.n_modulus)
    if args.cmd == "verify":
        # N, T, lambda and x' are the verifier's; the file holds the proof
        with open(args.proof, "rb") as fh:
            proof = vdf.deserialize_proof(fh.read())
        return report(vdf.verify(params, x_prime, proof))
    if args.trapdoor:
        key = load_json(args.trapdoor, "trapdoor file", {"p": int, "q": int})
        y = vdf.eval_trapdoor(vdf.TrapdoorKey(key["p"], key["q"]), params,
                              x_prime)
    else:
        y = vdf.eval_sequential(params, x_prime)
    print(json.dumps({"x_prime": x_prime, "y": y}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# fri

def _queries(args) -> int:
    """--queries, else the config file's, else 20."""
    return 20 if args.queries is None else args.queries


def cmd_fri(args):
    field = get_field(args.modulus)
    if args.cmd == "demo":
        params = fri_mod.FriParams(
            stark.EvaluationDomain.subgroup(field, args.domain),
            args.degree, 1)
        print("FRI commits each layer with one leaf per folding coset and "
              "folds it by 8 (by 2 or 4 in a last round);")
        size, d = args.domain, args.degree
        for arity in params.arities:
            print(f"  layer of {size} evaluations, degree bound {d}: "
                  f"{size // arity} leaves of {arity} values")
            size, d = size // arity, d // arity
        print(f"  final layer of {size} evaluations: a single constant")
        return EXIT_OK
    domain = stark.EvaluationDomain.coset(field, args.domain,
                                          field.generator())
    params = fri_mod.FriParams(domain, args.degree, _queries(args))
    # (domain size, degree bound, queries), the transcript's first absorb:
    # a proof made for another statement fails verification
    statement = (args.domain, args.degree, params.num_queries)
    t = Transcript("fri")
    t.absorb(b"params", b"".join(map(u32, statement)))
    if args.cmd == "prove":
        import random as _random
        rng = _random.Random(args.seed)
        coeffs = [rng.randrange(field.modulus) for _ in range(args.degree)]
        proof = fri_mod.prove(evaluate_on_domain(coeffs, domain), params, t)
        with open(args.output, "wb") as fh:
            fh.write(proof.serialize())
        print(f"wrote FRI proof to {args.output}")
        return EXIT_OK
    with open(args.proof, "rb") as fh:
        proof = fri_mod.FriProof.deserialize(fh.read())
    return report(fri_mod.verify(proof, params, t),
                  "(domain={}, degree={}, queries={})".format(*statement))


# ---------------------------------------------------------------------------
# stark

def load_statement(args, field) -> stark.ConstraintSystem:
    """The statement --length and --boundary-json pose: the Fibonacci
    constraint system of --length rows plus the extra boundary rows."""
    cs = stark.fibonacci_constraint_system(args.length, field)
    if not args.boundary_json:
        return cs
    entries = load_json(args.boundary_json, "boundary file")
    if not isinstance(entries, list):
        raise UsageError("boundary constraints must be a JSON list")
    entries = [_require(b, "boundary constraint",
                        {"column": int, "row": int, "value": int})
               for b in entries]
    extra = [stark.BoundaryConstraint(b["column"], b["row"], b["value"])
             for b in entries]
    return stark.ConstraintSystem(cs.num_columns, cs.boundaries + extra,
                                  cs.transitions, cs.length)


def _stark_params(args, zk: bool) -> stark.StarkParams:
    """--blowup and --queries, else the config file's, else 8 and 20."""
    return stark.StarkParams(8 if args.blowup is None else args.blowup,
                             _queries(args), zk=zk)


def cmd_stark(args):
    field = get_field(args.modulus)
    cs = load_statement(args, field)
    if args.cmd == "prove":
        proof = stark.prove(stark.trace_fibonacci(args.length, field), cs,
                            _stark_params(args, args.zk),
                            zk_seed=args.zk_seed)
        with open(args.output, "wb") as fh:
            fh.write(proof.serialize())
        print(f"wrote proof ({args.length}-row trace) to {args.output}")
        return EXIT_OK
    # verify: the statement and the soundness parameters are the
    # verifier's; only the zk flag comes from the file.
    with open(args.proof, "rb") as fh:
        proof = stark.StarkProof.deserialize(fh.read())
    params = _stark_params(args, proof.zk)
    boundaries = [(bc.column, bc.row, bc.value) for bc in cs.boundaries]
    return report(stark.verify(proof, cs, params, field),
                  f"(length={args.length}, boundaries={boundaries}, "
                  f"blowup={params.blowup}, queries={params.num_queries}, "
                  f"zk={params.zk})")


# ---------------------------------------------------------------------------
# benchmarks

def bench_2poly(args, field):
    import random as _random
    rng = _random.Random(args.seed)
    n, d = args.domain, args.d
    if n > field.modulus:
        raise UsageError("the domain has more points than the field")
    if n < 1 or not 0 <= d <= n:
        raise UsageError("need 0 <= d <= domain size and a nonempty domain")
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
        if stark.probabilistic_poly_eq(f_evals, g_evals, t, 1):
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
        trees, layer = fri_mod.commit_phase(evals, params, t)
        proof = fri_mod.query_phase(trees, t, params, int(layer[0]))
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
    values = stark.trace_fibonacci(length, field).values()
    cs = stark.fibonacci_constraint_system(length, field)
    params = stark.StarkParams(8, 20)
    rejects = 0
    for _ in range(args.trials):
        mutated = values.copy()
        row = rng.randrange(length)
        mutated[0, row] = (int(mutated[0, row])
                           + rng.randrange(1, field.modulus)) % field.modulus
        proof = stark.prove_table(mutated, field, cs, params)
        if not stark.verify(proof, cs, params, field):
            rejects += 1
    rate = rejects / args.trials
    record = {"bench": "stark-mutation", "trials": args.trials,
              "reject_rate": rate}
    print(json.dumps(record))
    print(f"STARK mutation reject rate {rate:.4f}")
    return EXIT_OK


def cmd_bench(args):
    field = get_field(args.modulus)
    if getattr(args, "trials", 1) < 1:
        raise UsageError("need at least one trial")
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
    delay = ps.add_mutually_exclusive_group(required=True)
    delay.add_argument("-T", "--delay", type=int)
    delay.add_argument("--delay-seconds", type=float,
                       help="calibrate T from a wall-clock target")
    ps.add_argument("--security", type=int, default=16)
    ps.add_argument("-o", "--output", required=True)
    ps.add_argument("--trapdoor", metavar="PATH",
                    help="write the factors p and q of N to this file")
    for name in ("eval", "beacon"):
        pp = vd.add_parser(name)
        pp.add_argument("--params", required=True)
        pp.add_argument("--input", required=True, help="hex input bytes")
        if name == "eval":
            pp.add_argument("--trapdoor", metavar="PATH",
                            help="evaluate fast with setup's trapdoor file")
        else:
            pp.add_argument("-o", "--output", required=True)
    pv = vd.add_parser("verify")
    pv.add_argument("--params", required=True)
    pv.add_argument("--input", required=True, help="hex input bytes")
    pv.add_argument("proof")

    # prove and verify take the same statement and soundness flags
    fr = sub.add_parser("fri").add_subparsers(dest="cmd", required=True)
    for name in ("prove", "verify", "demo"):
        pp = fr.add_parser(name)
        pp.add_argument("--domain", type=int, default=64)
        pp.add_argument("--degree", type=int, default=8)
        if name != "demo":
            pp.add_argument("--queries", type=int)
        if name == "prove":
            pp.add_argument("--seed", type=int, default=0)
            pp.add_argument("-o", "--output", required=True)
        elif name == "verify":
            pp.add_argument("proof")

    st = sub.add_parser("stark").add_subparsers(dest="cmd", required=True)
    for name in ("prove", "verify"):
        pp = st.add_parser(name)
        pp.add_argument("--length", type=int, required=True)
        pp.add_argument("--boundary-json")
        pp.add_argument("--blowup", type=int)
        pp.add_argument("--queries", type=int)
        if name == "prove":
            pp.add_argument("--zk", action="store_true")
            pp.add_argument("--zk-seed", type=int, default=0)
            pp.add_argument("-o", "--output", required=True)
        else:
            pp.add_argument("proof")

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
                if key in cfg and getattr(args, key, None) is None:
                    try:
                        setattr(args, key, int(cfg[key]))
                    except ValueError:
                        raise UsageError(
                            f"config {key} is not an integer") from None
        handler = {"hauth": cmd_hauth, "vdf": cmd_vdf, "fri": cmd_fri,
                   "stark": cmd_stark, "bench": cmd_bench}[args.group]
        return handler(args)
    except (UsageError, ConstraintViolation) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing path, a directory, no permission
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
