"""CLI behaviour: exit codes, file round-trips, config handling."""

import json
import random
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

import vdf_oracle as oracle
from vckit import cli, fri, stark, vdf
from vckit.encoding import Reader, bytes_lp, u32, u64
from vckit.field import DEFAULT_MODULUS, EvaluationDomain, Field, Polynomial
from vckit.transcript import Transcript


def run(argv):
    return cli.main(argv)


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(
        {"inputs": 2, "gates": [["mul", 0, 1], ["addc", 2, 7]]}))
    return str(path)


def test_hauth_end_to_end(tmp_path, circuit_file, capsys):
    key = str(tmp_path / "key.json")
    t1, t2, out = (str(tmp_path / n) for n in ("t1.bin", "t2.bin", "out.bin"))
    assert run(["hauth", "keygen", "--seed", "00ff", "-o", key]) == 0
    assert run(["hauth", "auth", "--key", key, "-m", "3",
                "--label", "a", "-o", t1]) == 0
    assert run(["hauth", "auth", "--key", key, "-m", "5",
                "--label", "b", "-o", t2]) == 0
    assert run(["hauth", "eval", "--circuit", circuit_file,
                "--tags", t1, t2, "-o", out]) == 0
    assert run(["hauth", "verify", "--key", key, "--circuit", circuit_file,
                "--labels", "a", "b", "--tag", out, "--claim", "22"]) == 0
    assert run(["hauth", "verify", "--key", key, "--circuit", circuit_file,
                "--labels", "a", "b", "--tag", out, "--claim", "23"]) == 1
    captured = capsys.readouterr()
    assert "reject" in captured.out


def test_vdf_end_to_end(tmp_path):
    params = str(tmp_path / "params.json")
    proof = str(tmp_path / "proof.bin")
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa",
                "-T", "64", "-o", params]) == 0
    assert run(["vdf", "eval", "--params", params,
                "--input", "deadbeef"]) == 0
    assert run(["vdf", "beacon", "--params", params,
                "--input", "deadbeef", "-o", proof]) == 0
    verify = ["vdf", "verify", "--params", params, "--input", "deadbeef"]
    assert run(verify + [proof]) == 0
    assert run(["vdf", "verify", "--params", params, "--input", "cafe",
                proof]) == 1
    blob = bytearray(Path(proof).read_bytes())
    blob[-1] ^= 1
    Path(proof).write_bytes(bytes(blob))
    assert run(verify + [proof]) in (1, 2)


def _forge_zero_delay(params_path, proof_path, input_hex):
    """A proof of the input under the file's N but T = 0: y = x', pi = 1."""
    with open(params_path) as fh:
        raw = json.load(fh)
    params = vdf.VdfParams(raw["N"], 0, raw["lambda"])
    x = vdf.hash_to_group(bytes.fromhex(input_hex), params.n_modulus)
    y = vdf.eval_sequential(params, x)
    r = vdf.derive_challenge(params, x, y)
    proof = vdf.VdfProof(y, vdf.prove(params, x, y, r), r)
    assert vdf.verify(params, x, proof)
    Path(proof_path).write_bytes(vdf.serialize_proof(proof))


def test_vdf_verify_rejects_zero_delay_forgery(tmp_path, capsys):
    """N, T, lambda and x' are the verifier's: a self-consistent T = 0
    proof fails the challenge the verifier derives for the real T."""
    params = str(tmp_path / "params.json")
    proof = str(tmp_path / "forged.bin")
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa",
                "-T", "64", "-o", params]) == 0
    _forge_zero_delay(params, proof, "deadbeef")
    capsys.readouterr()
    assert run(["vdf", "verify", "--params", params, "--input", "deadbeef",
                proof]) == 1
    assert "challenge-mismatch" in capsys.readouterr().out


def test_vdf_verify_requires_params_and_input(tmp_path):
    params = str(tmp_path / "params.json")
    proof = str(tmp_path / "proof.bin")
    run(["vdf", "setup", "--bits", "16", "--seed", "aa", "-T", "8",
         "-o", params])
    run(["vdf", "beacon", "--params", params, "--input", "00", "-o", proof])
    assert run(["vdf", "verify", proof]) == 2
    assert run(["vdf", "verify", "--params", params, proof]) == 2
    assert run(["vdf", "verify", "--input", "00", proof]) == 2
    assert run(["vdf", "verify", "--params", params, "--input", "00",
                proof]) == 0


def test_directory_in_place_of_a_file_is_a_usage_error(tmp_path, capsys):
    """A directory given as the stark proof or as the vdf params file is
    an OS error on open, which exits 2 like a missing file, not 3."""
    params = str(tmp_path / "params.json")
    proof = str(tmp_path / "proof.bin")
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa", "-T", "8",
                "-o", params]) == 0
    assert run(["vdf", "beacon", "--params", params, "--input", "00",
                "-o", proof]) == 0
    capsys.readouterr()
    assert run(["stark", "verify", "--length", "8", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert run(["vdf", "verify", "--params", str(tmp_path), "--input", "00",
                proof]) == 2
    assert "usage error" in capsys.readouterr().err


def test_vdf_trapdoor_agrees(tmp_path, capsys):
    """`eval --trapdoor` with setup's trapdoor file gives the sequential
    result."""
    params = str(tmp_path / "params.json")
    trapdoor = str(tmp_path / "trapdoor.json")
    assert run(["vdf", "setup", "--bits", "16", "--seed", "bb", "-T", "100",
                "-o", params, "--trapdoor", trapdoor]) == 0
    assert run(["vdf", "eval", "--params", params, "--input", "0102"]) == 0
    slow = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert run(["vdf", "eval", "--params", params, "--input", "0102",
                "--trapdoor", trapdoor]) == 0
    fast = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert slow == fast


@pytest.mark.parametrize("extra", [
    [],
    ["-T", "8", "--delay-seconds", "1"],
    ["--delay-seconds", "0"],
    ["--delay-seconds", "-1"],
    ["--delay-seconds", "nan"],
    ["--delay-seconds", "inf"],
    ["-T", "64", "--security", "0"],
    ["-T", "64", "--security", "7"],
    ["-T", "0"],
    ["-T", "-3"]])
def test_vdf_setup_bad_delay_or_security(tmp_path, extra):
    """Setup needs exactly one delay, at least one squaring or a
    wall-clock target that is positive and finite, and a security level
    whose 2*lambda-bit challenge primes `vdf beacon` can draw; otherwise
    it writes no params file and no trapdoor file."""
    params = tmp_path / "params.json"
    trapdoor = tmp_path / "trapdoor.json"
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa",
                "-o", str(params), "--trapdoor", str(trapdoor)] + extra) == 2
    assert not params.exists() and not trapdoor.exists()


def test_vdf_setup_primes_keep_their_bit_length(tmp_path):
    """This seed's upward prime search passes 2^16 (to 65537)."""
    params, trapdoor = tmp_path / "params.json", tmp_path / "trapdoor.json"
    assert run(["vdf", "setup", "--bits", "16", "--seed", "353536",
                "-T", "10", "-o", str(params), "--trapdoor",
                str(trapdoor)]) == 0
    key = json.loads(trapdoor.read_text())
    assert key["p"].bit_length() == key["q"].bit_length() == 16
    assert json.loads(params.read_text())["N"] == key["p"] * key["q"]


def test_delay_seconds_calibrates_on_the_evaluators_squarings(tmp_path,
                                                               monkeypatch):
    """--delay-seconds takes T from the rate of vdf._square_with_checkpoints,
    the routine eval_sequential runs: here a stub whose squarings take
    2^-20 s each on a stub clock, so 3 s is T = 3 * 2^20."""
    clock, moduli = [0.0], set()

    def squarings(n, x_prime, delay):
        moduli.add(n)
        clock[0] += delay * 2.0 ** -20
        return x_prime, ()

    monkeypatch.setattr(vdf, "_square_with_checkpoints", squarings)
    monkeypatch.setattr(vdf, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))
    params = tmp_path / "params.json"
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa",
                "--delay-seconds", "3", "-o", str(params)]) == 0
    written = json.loads(params.read_text())
    assert written["T"] == 3 * 2 ** 20
    assert moduli == {written["N"]}


def test_vdf_params_without_the_trapdoor(tmp_path):
    """Setup's params file holds N, T and lambda and nothing else; it
    serves beacon, verify and sequential eval, and only `eval --trapdoor`
    reads p and q, from the trapdoor file, which the params file is not."""
    params = tmp_path / "params.json"
    proof = str(tmp_path / "proof.bin")
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa", "-T", "64",
                "-o", str(params)]) == 0
    assert set(json.loads(params.read_text())) == {"N", "T", "lambda"}
    given = ["--params", str(params), "--input", "00"]
    assert run(["vdf", "beacon"] + given + ["-o", proof]) == 0
    assert run(["vdf", "verify"] + given + [proof]) == 0
    assert run(["vdf", "eval"] + given) == 0
    assert run(["vdf", "eval"] + given + ["--trapdoor", str(params)]) == 2
    assert run(["vdf", "eval"] + given + ["--trapdoor",
                                          str(tmp_path / "none.json")]) == 2


def test_vdf_trapdoor_file_must_factor_the_modulus(tmp_path):
    """A trapdoor file whose p*q is not the params file's N, or whose
    factors are 1 and N, exits 2 and evaluates nothing."""
    params, trapdoor = tmp_path / "params.json", tmp_path / "trapdoor.json"
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa", "-T", "64",
                "-o", str(params), "--trapdoor", str(trapdoor)]) == 0
    eval_ = ["vdf", "eval", "--params", str(params), "--input", "00",
             "--trapdoor", str(trapdoor)]
    assert run(eval_) == 0
    key = json.loads(trapdoor.read_text())
    n = key["p"] * key["q"]
    for p, q in ((key["p"], key["q"] + 2), (1, n), (n, 1),
                 (-key["p"], -key["q"])):
        trapdoor.write_text(json.dumps({"p": p, "q": q}))
        assert run(eval_) == 2


def test_fri_prove_verify(tmp_path):
    proof = str(tmp_path / "fri.bin")
    assert run(["fri", "prove", "--domain", "64", "--degree", "8",
                "--queries", "10", "-o", proof]) == 0
    assert run(["fri", "verify", "--queries", "10", proof]) == 0
    blob = bytearray(Path(proof).read_bytes())
    blob[-3] ^= 1
    Path(proof).write_bytes(bytes(blob))
    assert run(["fri", "verify", "--queries", "10", proof]) in (1, 2)


@pytest.mark.parametrize("domain, degree", [(64, 8), (1024, 256), (64, 2)])
def test_fri_prove_commits_the_seeded_polynomial(tmp_path, domain, degree):
    """`fri prove` writes fri.prove of its seeded random polynomial's
    values, evaluated here point by point by Horner, under the
    transcript that absorbs (domain, degree, queries)."""
    field = Field(DEFAULT_MODULUS)
    proof = tmp_path / "fri.bin"
    assert run(["fri", "prove", "--domain", str(domain), "--degree",
                str(degree), "--seed", "5", "-o", str(proof)]) == 0
    rng = random.Random(5)
    poly = Polynomial(field, [rng.randrange(field.modulus)
                              for _ in range(degree)])
    lde = EvaluationDomain.coset(field, domain, field.generator())
    t = Transcript("fri")
    t.absorb(b"params", u32(domain) + u32(degree) + u32(20))
    expected = fri.prove(poly.evaluate_array(lde.point_array()),
                         fri.FriParams(lde, degree, 20), t)
    assert proof.read_bytes() == expected.serialize()


def test_fri_verify_holds_the_file_to_its_own_query_count(tmp_path,
                                                          capsys):
    """A 1-query file is rejected under the default 20 queries and
    accepted when the verifier asks for 1."""
    proof = str(tmp_path / "fri.bin")
    assert run(["fri", "prove", "--queries", "1", "-o", proof]) == 0
    capsys.readouterr()
    assert run(["fri", "verify", proof]) == 1
    assert capsys.readouterr().out == (
        "reject (query indices diverge from transcript)\n")
    assert run(["fri", "verify", "--queries", "1", proof]) == 0


def test_fri_verify_takes_the_statement(tmp_path, capsys):
    """--domain and --degree are the verifier's, as --queries is, and a
    FRI file is the bare proof: a file made with another degree bound or
    domain size fails verification under the defaults (64 and 8) and is
    accepted with flags that match it."""
    proof = str(tmp_path / "fri.bin")
    for flags, reason in ((["--degree", "32"], "wrong number of layer roots"),
                          (["--domain", "128"],
                           "query indices diverge from transcript")):
        assert run(["fri", "prove"] + flags + ["-o", proof]) == 0
        assert Path(proof).read_bytes()[:5] == fri.PROOF_MAGIC
        capsys.readouterr()
        assert run(["fri", "verify", proof]) == 1
        assert capsys.readouterr().out == f"reject ({reason})\n"
        assert run(["fri", "verify"] + flags + [proof]) == 0


def test_fri_demo():
    assert run(["fri", "demo", "--domain", "32", "--degree", "4"]) == 0


def test_stark_prove_verify(tmp_path):
    proof = str(tmp_path / "stark.bin")
    assert run(["stark", "prove", "--length", "8", "-o", proof]) == 0
    assert run(["stark", "verify", "--length", "8", proof]) == 0


def test_stark_file_is_a_bare_proof(tmp_path):
    """`stark prove` writes the VCKS bytes and nothing else; a file with
    anything before them is refused."""
    path = tmp_path / "stark.bin"
    assert run(["stark", "prove", "--length", "8", "-o", str(path)]) == 0
    blob = path.read_bytes()
    assert stark.StarkProof.deserialize(blob).serialize() == blob
    header = json.dumps({"program": "fib", "length": 8}).encode()
    path.write_bytes(bytes_lp(header) + blob)
    assert run(["stark", "verify", "--length", "8", str(path)]) == 2


def test_stark_file_of_format_version_5_refused(tmp_path, capsys):
    """A VCKS 5 file, which carried the constraint-system digest, a
    composition root and a length-prefixed FRI proof ahead of the trace
    opening, is refused by its version byte."""
    path = tmp_path / "stark.bin"
    assert run(["stark", "prove", "--length", "8", "-o", str(path)]) == 0
    blob = path.read_bytes()
    proof = stark.StarkProof.deserialize(blob)
    head = b"VCKS\x05" + blob[5:27]  # hash id, five u32s, zk flag
    cs = stark.fibonacci_constraint_system(8, Field(DEFAULT_MODULUS))
    path.write_bytes(head + cs.digest() + proof.trace_root
                     + proof.fri_proof.layer_roots[0]
                     + bytes_lp(proof.fri_proof.serialize())
                     + proof.trace_opening.serialize())
    capsys.readouterr()
    assert run(["stark", "verify", "--length", "8", str(path)]) == 2
    assert "unsupported STARK proof format version 5" in capsys.readouterr().err


def test_stark_verify_takes_the_statement(tmp_path):
    """The statement is the verifier's --length and --boundary-json: a
    proof with a boundary the verifier did not ask for, and a proof of
    another length, are rejected; each verifies under its own statement."""
    proof = str(tmp_path / "stark.bin")
    extra = str(tmp_path / "b.json")
    # fib row 5 holds 8
    Path(extra).write_text(json.dumps([{"column": 0, "row": 5, "value": 8}]))
    assert run(["stark", "prove", "--length", "8", "--boundary-json", extra,
                "-o", proof]) == 0
    assert run(["stark", "verify", "--length", "8", proof]) == 1
    assert run(["stark", "verify", "--length", "8", "--boundary-json", extra,
                proof]) == 0
    assert run(["stark", "prove", "--length", "16", "-o", proof]) == 0
    assert run(["stark", "verify", "--length", "8", proof]) == 1
    assert run(["stark", "verify", "--length", "16", proof]) == 0
    # a statement without the two seed rows is no statement
    assert run(["stark", "verify", "--length", "1", proof]) == 2


def test_stark_verify_never_builds_the_trace(tmp_path, monkeypatch):
    proof = str(tmp_path / "stark.bin")
    assert run(["stark", "prove", "--length", "8", "-o", proof]) == 0

    def refuse(*args):
        raise AssertionError("the verifier built the trace")
    monkeypatch.setattr(stark, "trace_fibonacci", refuse)
    assert run(["stark", "verify", "--length", "8", proof]) == 0


def test_stark_verify_takes_the_trace_shape_from_its_flags(tmp_path,
                                                           capsys):
    """The trace shape is the one `stark prove` pads --length rows to:
    a zk proof of fib 8, padded to 16 rows, with its zk flag cleared is
    rejected before any work over its rows, by the library's verify and
    so by the CLI."""
    field = Field(DEFAULT_MODULUS)
    cs = stark.fibonacci_constraint_system(8, field)
    proof = stark.prove(stark.trace_fibonacci(8, field), cs,
                        stark.StarkParams(8, 8, zk=True), zk_seed=1)
    proof.zk = False
    verdict = stark.verify(proof, cs, stark.StarkParams(8, 8), field)
    reason = "trace shape mismatch: 8 rows padded to 16, not 8 to 8"
    assert not verdict and verdict.reason == reason
    path = tmp_path / "s.bin"
    path.write_bytes(proof.serialize())
    capsys.readouterr()
    assert run(["stark", "verify", "--length", "8", "--queries", "8",
                str(path)]) == 1
    assert capsys.readouterr().out == f"reject ({reason})\n"


def test_boundary_row_past_the_length_is_a_usage_error(tmp_path, capsys):
    """A boundary row at or past --length is no statement: prove and the
    verify of an honest proof both exit 2, naming the row."""
    proof = str(tmp_path / "p.bin")
    extra = str(tmp_path / "b.json")
    Path(extra).write_text(json.dumps([{"column": 0, "row": 9, "value": 5}]))
    assert run(["stark", "prove", "--length", "8", "-o", proof]) == 0
    capsys.readouterr()
    for argv in (["prove", "-o", str(tmp_path / "q.bin")], ["verify", proof]):
        assert run(["stark", argv[0], "--length", "8", "--boundary-json",
                    extra] + argv[1:]) == 2
        assert "boundary row 9 not below length" in capsys.readouterr().err


def test_accept_names_what_was_accepted(tmp_path, capsys):
    proof = str(tmp_path / "p.bin")
    extra = str(tmp_path / "b.json")
    Path(extra).write_text(json.dumps([{"column": 0, "row": 2, "value": 2}]))
    assert run(["stark", "prove", "--length", "8", "--zk", "--queries", "6",
                "--boundary-json", extra, "-o", proof]) == 0
    capsys.readouterr()
    assert run(["stark", "verify", "--length", "8", "--queries", "6",
                "--boundary-json", extra, proof]) == 0
    assert capsys.readouterr().out == (
        "accept (length=8, boundaries=[(0, 0, 1), (0, 1, 1), (0, 7, 21), "
        "(0, 2, 2)], blowup=8, queries=6, zk=True)\n")
    assert run(["fri", "prove", "--domain", "128", "-o", proof]) == 0
    capsys.readouterr()
    assert run(["fri", "verify", "--domain", "128", proof]) == 0
    assert capsys.readouterr().out == (
        "accept (domain=128, degree=8, queries=20)\n")


def test_stark_verify_holds_the_file_to_its_own_parameters(tmp_path,
                                                           capsys):
    """A weak file (1 query, blowup 4) is rejected under the defaults
    (8 and 20) and accepted with flags that match it; a flag outside
    StarkParams' range is a usage error."""
    proof = str(tmp_path / "weak.bin")
    assert run(["stark", "prove", "--length", "64", "--queries", "1",
                "--blowup", "4", "-o", proof]) == 0
    verify = ["stark", "verify", "--length", "64"]
    assert run(verify + [proof]) == 1
    assert "parameter mismatch" in capsys.readouterr().out
    assert run(verify + ["--queries", "1", proof]) == 1
    assert run(verify + ["--queries", "1", "--blowup", "4", proof]) == 0
    assert run(verify + ["--blowup", "3", proof]) == 2


def test_stark_zk_and_custom_boundary(tmp_path):
    proof = str(tmp_path / "stark.bin")
    bad_boundary = str(tmp_path / "b.json")
    # an extra boundary consistent with the fib trace: row 2 holds 2
    good = str(tmp_path / "g.json")
    Path(good).write_text(json.dumps([{"column": 0, "row": 2, "value": 2}]))
    assert run(["stark", "prove", "--length", "8", "--zk",
                "--boundary-json", good, "-o", proof]) == 0
    assert run(["stark", "verify", "--length", "8", "--boundary-json", good,
                proof]) == 0
    Path(bad_boundary).write_text(
        json.dumps([{"column": 0, "row": 2, "value": 3}]))
    assert run(["stark", "prove", "--length", "8",
                "--boundary-json", bad_boundary, "-o", proof]) == 2


def test_usage_errors(tmp_path):
    assert run(["nope"]) == 2
    assert run(["vdf"]) == 2
    assert run(["hauth", "keygen", "--seed", "xyz",
                "-o", str(tmp_path / "k.json")]) == 2
    params = str(tmp_path / "params.json")
    run(["vdf", "setup", "--bits", "16", "--seed", "aa", "-T", "8",
         "-o", params])
    assert run(["vdf", "verify", "--params", params, "--input", "00",
                str(tmp_path / "missing.bin")]) == 2
    assert run(["--modulus", "15", "fri", "demo"]) == 2


def test_bench_smoke(capsys):
    assert run(["bench", "2poly", "--trials", "2000"]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["bench"] == "2poly"
    assert run(["bench", "vdf-asymmetry", "--T", "2048"]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["prover_squarings"] == 2048
    assert 0 < rec["prover_multiplications"] < 2048
    assert run(["bench", "fri-soundness", "--trials", "20"]) == 0
    assert run(["bench", "stark-mutation", "--trials", "5"]) == 0


def test_vdf_asymmetry_bench_reports_the_joint_ladder_count(capsys):
    """At T = 2^16 `verifier_multiplications` is the oracle ladder's count
    for the bench's own round, pi^r * x'^(2^T mod r): a model count, the
    same whether the ladder runs or one joint exponentiation does."""
    assert run(["bench", "vdf-asymmetry", "--T", "65536"]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    params, _ = vdf.setup(16, b"bench", delay=2**16, security_bits=16)
    x, proof = vdf.vdf_round(params, b"bench-input")
    _, expected = oracle.joint_square_and_multiply(
        [(proof.pi, proof.r), (x, pow(2, 2**16, proof.r))], params.n_modulus)
    assert rec["verifier_multiplications"] == expected
    assert rec["prover_squarings"] == 2**16
    assert rec["ratio"] == 2**16 / expected


def test_stark_mutation_bench_rejects_every_trial(capsys):
    """The roadmap's gate: a proof of a trace with one mutated cell is
    rejected in all of 100 trials."""
    assert run(["bench", "stark-mutation", "--trials", "100"]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec == {"bench": "stark-mutation", "trials": 100,
                   "reject_rate": 1.0}


def test_config_file(tmp_path):
    cfg = str(tmp_path / "vckit.cfg")
    Path(cfg).write_text("# comment\nqueries = 6\nblowup = 4\n")
    proof = str(tmp_path / "s.bin")
    assert run(["--config", cfg, "stark", "prove", "--length", "8",
                "-o", proof]) == 0
    assert run(["--config", cfg, "stark", "verify", "--length", "8",
                proof]) == 0
    assert run(["stark", "verify", "--length", "8", proof]) == 1


def test_config_queries_preset_fri_prove_and_verify(tmp_path, capsys):
    """The config's queries reach fri prove and fri verify, and an
    explicit --queries overrides them."""
    cfg = str(tmp_path / "vckit.cfg")
    Path(cfg).write_text("queries = 6\n")
    proof = tmp_path / "fri.bin"

    def file_queries():
        return len(fri.FriProof.deserialize(proof.read_bytes()).queries)
    assert run(["--config", cfg, "fri", "prove", "-o", str(proof)]) == 0
    assert file_queries() == 6
    assert run(["--config", cfg, "fri", "verify", str(proof)]) == 0
    assert run(["fri", "verify", str(proof)]) == 1
    capsys.readouterr()
    assert run(["--config", cfg, "fri", "verify", "--queries", "20",
                str(proof)]) == 1
    assert capsys.readouterr().out.startswith("reject (")
    assert run(["--config", cfg, "fri", "prove", "--queries", "3",
                "-o", str(proof)]) == 0
    assert file_queries() == 3
    assert run(["--config", cfg, "fri", "verify", "--queries", "3",
                str(proof)]) == 0


@pytest.mark.parametrize("content", ["blowup = x\n", b"queries = \xff\n",
                                     None])
def test_bad_config_file(tmp_path, content):
    """A non-integer value, a file that is not UTF-8 and a directory are
    usage errors."""
    cfg = tmp_path / "vckit.cfg"
    if content is None:
        cfg.mkdir()
    elif isinstance(content, bytes):
        cfg.write_bytes(content)
    else:
        cfg.write_text(content)
    assert run(["--config", str(cfg), "stark", "prove", "--length", "8",
                "-o", str(tmp_path / "s.bin")]) == 2


@pytest.mark.parametrize("argv", [
    ["stark", "prove", "--length", "8", "--blowup", "0"],
    ["stark", "prove", "--length", "8", "--queries", "0"],
    ["bench", "2poly", "--trials", "0"],
    ["bench", "2poly", "--trials", "-1"],
    ["bench", "2poly", "--domain", "0"],
    ["bench", "2poly", "--d", "5", "--domain", "4"],
    ["bench", "fri-soundness", "--trials", "0"],
    ["bench", "fri-soundness", "--trials", "-1"],
    ["bench", "stark-mutation", "--trials", "0"],
    ["bench", "stark-mutation", "--trials", "-1"],
    ["--modulus", "0", "fri", "demo"]])
def test_bad_numeric_arguments(tmp_path, argv):
    assert run(argv + (["-o", str(tmp_path / "s.bin")]
                       if argv[0] == "stark" else [])) == 2


def test_zero_query_fri_file_refused(tmp_path):
    """A FRI proof of 256 random evaluations with zero queries, which
    opens nothing, is rejected: the verifier draws its own 20."""
    field = Field(DEFAULT_MODULUS)
    domain = EvaluationDomain.coset(field, 256, field.generator())
    rng = random.Random(3)
    evals = [rng.randrange(field.modulus) for _ in range(256)]
    t = Transcript("fri")
    t.absorb(b"params", u32(256) + u32(8) + u32(0))
    proof = fri.prove(evals, fri.FriParams(domain, 8, 1), t,
                      enforce_low_degree=False)
    proof.queries = []
    path = tmp_path / "fri.bin"
    path.write_bytes(proof.serialize())
    assert run(["fri", "verify", "--domain", "256", str(path)]) == 1


def test_fri_degree_bound_one_refused(tmp_path, capsys):
    """A file with no layer root and any final value would pass a degree
    bound of 1, which folds no round; the bound is refused instead."""
    t = Transcript("fri")
    t.absorb(b"params", u32(64) + u32(1) + u32(20))
    t.absorb(b"fri-final", u64(12345))
    positions = []
    while len(positions) < 20:
        pos = t.challenge_index(64)
        if pos not in positions:
            positions.append(pos)
    path = tmp_path / "fri.bin"
    path.write_bytes(fri.FriProof([], 12345, positions, []).serialize())
    assert run(["fri", "verify", "--degree", "1", "--domain", "64",
                str(path)]) == 2
    assert "at least 2" in capsys.readouterr().err


def _honest_fri_file(path, modulus):
    """A FRI proof file over the field of `modulus`, written as `fri
    prove` writes one: a random polynomial of degree < 8 on a coset of
    32 points, the default 20 queries, the bare proof."""
    field = Field(modulus)
    domain = EvaluationDomain.coset(field, 32, field.generator())
    rng = random.Random(modulus)
    poly = Polynomial(field, [rng.randrange(modulus) for _ in range(8)])
    t = Transcript("fri")
    t.absorb(b"params", u32(32) + u32(8) + u32(20))
    proof = fri.prove(poly.evaluate_array(domain.point_array()),
                      fri.FriParams(domain, 8, 20), t)
    path.write_bytes(proof.serialize())


def test_fri_file_modulus_must_be_vetted_and_match(tmp_path):
    """The verifier's --modulus fixes the field, as in `fri prove`: a
    proof verifies only in the field it was made over, and a modulus off
    the vetted list is refused, whatever the file."""
    path = tmp_path / "fri.bin"
    verify = ["fri", "verify", "--domain", "32", str(path)]
    for modulus in (193, 257, 7681):
        _honest_fri_file(path, modulus)
        assert run(["--modulus", str(modulus)] + verify) == 2
    _honest_fri_file(path, DEFAULT_MODULUS)
    assert run(verify) == 0
    assert run(["--modulus", str(DEFAULT_MODULUS)] + verify) == 0
    assert run(["--modulus", "97"] + verify) == 1
    _honest_fri_file(path, 97)
    assert run(verify) == 1
    assert run(["--modulus", "97"] + verify) == 0
    assert run(["--modulus", "17"] + verify) == 2


def test_zero_query_stark_file_refused(tmp_path):
    path = tmp_path / "s.bin"
    assert run(["stark", "prove", "--length", "8", "-o", str(path)]) == 0
    proof = stark.StarkProof.deserialize(path.read_bytes())
    proof.num_queries = 0
    proof.fri_proof.queries = []
    path.write_bytes(proof.serialize())
    assert run(["stark", "verify", "--length", "8", str(path)]) == 2


# Malformed JSON, a document without a key the command needs, and one
# whose values have the wrong type or shape, in each kind of input file:
# all are usage errors (exit 2), never exit 3.

@pytest.mark.parametrize("text", ["{not json", '{"N": 35}', "[35]",
                                  '{"N": "x", "T": 1, "lambda": 16}',
                                  '{"N": 35, "T": true, "lambda": 16}',
                                  '{"N": 35, "T": 1.5, "lambda": 16}'])
def test_bad_params_file(tmp_path, text):
    params = tmp_path / "params.json"
    params.write_text(text)
    assert run(["vdf", "eval", "--params", str(params),
                "--input", "00"]) == 2


@pytest.mark.parametrize("text", ["{", "[5, 7]", '{"p": 5}',
                                  '{"p": "5", "q": 7}',
                                  '{"p": 5, "q": true}'])
def test_bad_trapdoor_file(tmp_path, text):
    params, trapdoor = tmp_path / "params.json", tmp_path / "trapdoor.json"
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa", "-T", "8",
                "-o", str(params)]) == 0
    trapdoor.write_text(text)
    assert run(["vdf", "eval", "--params", str(params), "--input", "00",
                "--trapdoor", str(trapdoor)]) == 2


@pytest.mark.parametrize("text", [
    "{", '{"sk": 5, "modulus": 97}',
    '{"sk": "5", "prf_key": "00", "modulus": 97}',
    '{"sk": 5, "prf_key": "zz", "modulus": 97}',
    '{"sk": 5, "prf_key": 0, "modulus": 97}'])
def test_bad_key_file(tmp_path, text):
    key = tmp_path / "key.json"
    key.write_text(text)
    assert run(["hauth", "auth", "--key", str(key), "-m", "1",
                "--label", "a", "-o", str(tmp_path / "t.bin")]) == 2


def test_hauth_key_modulus_must_be_vetted_and_match(tmp_path):
    """The key file fixes the field: a modulus off the vetted list is
    refused, and so is an explicit --modulus other than the key's."""
    key = tmp_path / "key.json"
    tag = str(tmp_path / "t.bin")
    auth = ["hauth", "auth", "--key", str(key), "-m", "3", "--label", "a",
            "-o", tag]
    assert run(["hauth", "keygen", "--seed", "00ff", "-o", str(key)]) == 0
    assert json.loads(key.read_text())["modulus"] == DEFAULT_MODULUS
    assert run(["--modulus", "17"] + auth) == 2
    assert run(["--modulus", str(DEFAULT_MODULUS)] + auth) == 0
    assert run(auth) == 0
    prf_key = "ab" * 32
    for modulus in (101, 15):
        key.write_text(json.dumps({"sk": 5, "prf_key": prf_key,
                                   "modulus": modulus}))
        assert run(auth) == 2
    key.write_text(json.dumps({"sk": 5, "prf_key": prf_key, "modulus": 97}))
    assert run(auth) == 0
    assert run(["--modulus", "17"] + auth) == 2


@pytest.mark.parametrize("text", [
    "gates: []", '{"gates": []}',
    '{"inputs": 1, "gates": [["add", 0]]}',
    '{"inputs": 1, "gates": [["add", 0, 1]]}',
    '{"inputs": 1, "gates": [["mulc", 0, "7"]]}',
    '{"inputs": 1, "gates": [["sub", 0, 0]]}',
    '{"inputs": 1, "gates": "add"}',
    '{"inputs": "1"}',
    '{"inputs": 1, "gates": [["add", 0, 0]], "output": 2}'])
def test_bad_circuit_file(tmp_path, text):
    key, tag = str(tmp_path / "key.json"), str(tmp_path / "t.bin")
    circuit = tmp_path / "circ.json"
    circuit.write_text(text)
    assert run(["hauth", "keygen", "--seed", "01", "-o", key]) == 0
    assert run(["hauth", "auth", "--key", key, "-m", "1", "--label", "a",
                "-o", tag]) == 0
    assert run(["hauth", "eval", "--circuit", str(circuit),
                "--tags", tag, "-o", str(tmp_path / "out.bin")]) == 2


@pytest.mark.parametrize("gate", ['["add", 0, 1.5]', '["add", 0, true]'])
def test_circuit_wire_that_is_not_an_int_refused_by_circuit(tmp_path, capsys,
                                                           gate):
    """A gate of the right JSON shape reaches hauth.Circuit, whose message
    names the wire, not the file's shape."""
    key, tag = str(tmp_path / "key.json"), str(tmp_path / "t.bin")
    circuit = tmp_path / "circ.json"
    circuit.write_text(f'{{"inputs": 1, "gates": [{gate}]}}')
    assert run(["hauth", "keygen", "--seed", "01", "-o", key]) == 0
    assert run(["hauth", "auth", "--key", key, "-m", "1", "--label", "a",
                "-o", tag]) == 0
    capsys.readouterr()
    assert run(["hauth", "eval", "--circuit", str(circuit),
                "--tags", tag, "-o", str(tmp_path / "out.bin")]) == 2
    assert ("circuit gate 0 reads a wire that is not an int"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text", ['[{"column": 0,',
                                  '[{"column": 0, "row": 2}]',
                                  '{"column": 0, "row": 2, "value": 2}',
                                  '[{"column": 0, "row": "2", "value": 2}]',
                                  '[{"column": 0, "row": -1, "value": 2}]',
                                  '[{"column": 0, "row": 2, "value": -2}]'])
def test_bad_boundary_file(tmp_path, text):
    boundary = tmp_path / "b.json"
    boundary.write_text(text)
    assert run(["stark", "prove", "--length", "8", "--boundary-json",
                str(boundary), "-o", str(tmp_path / "s.bin")]) == 2


def test_tag_file_with_trailing_byte_rejected(tmp_path, circuit_file):
    key, t1, t2, out = (str(tmp_path / n)
                        for n in ("key.json", "t1.bin", "t2.bin", "out.bin"))
    assert run(["hauth", "keygen", "--seed", "00ff", "-o", key]) == 0
    for tag, m, label in ((t1, "3", "a"), (t2, "5", "b")):
        assert run(["hauth", "auth", "--key", key, "-m", m,
                    "--label", label, "-o", tag]) == 0
    assert run(["hauth", "eval", "--circuit", circuit_file,
                "--tags", t1, t2, "-o", out]) == 0
    verify = ["hauth", "verify", "--key", key, "--circuit", circuit_file,
              "--labels", "a", "b", "--tag", out, "--claim", "22"]
    assert run(verify) == 0
    with open(out, "ab") as fh:
        fh.write(b"\x00")
    assert run(verify) == 2


@pytest.mark.parametrize("change", ["coefficient plus p", "zero on top"])
def test_tag_file_with_non_canonical_encoding_refused(tmp_path, circuit_file,
                                                      change):
    """A tag file is the canonical encoding of its polynomial: a
    coefficient of p or more, or a zero top coefficient, is refused by
    hauth verify and hauth eval, not read as the honest tag."""
    key, t1, t2, out = (str(tmp_path / n)
                        for n in ("key.json", "t1.bin", "t2.bin", "out.bin"))
    assert run(["hauth", "keygen", "--seed", "00ff", "-o", key]) == 0
    for tag, m, label in ((t1, "3", "a"), (t2, "5", "b")):
        assert run(["hauth", "auth", "--key", key, "-m", m,
                    "--label", label, "-o", tag]) == 0
    evaluate = ["hauth", "eval", "--circuit", circuit_file,
                "--tags", t1, t2, "-o", out]
    assert run(evaluate) == 0
    verify = ["hauth", "verify", "--key", key, "--circuit", circuit_file,
              "--labels", "a", "b", "--tag", out, "--claim", "22"]
    assert run(verify) == 0
    for path in (t1, out):
        reader = Reader(Path(path).read_bytes())
        assert reader.u8() == 1
        coeffs = [reader.u64() for _ in range(reader.u32())]
        if change == "coefficient plus p":
            coeffs[0] += DEFAULT_MODULUS
        else:
            coeffs.append(0)
        Path(path).write_bytes(b"\x01" + u32(len(coeffs))
                               + b"".join(c.to_bytes(8, "big")
                                          for c in coeffs))
    assert run(verify) == 2
    assert run(evaluate) == 2


def _vdf_proof_fields(blob):
    """A VCKV file cut into its head and its three int_lp payloads."""
    reader = Reader(blob)
    head = reader.take(len(vdf.PROOF_MAGIC) + 1)
    fields = [reader.bytes_lp() for _ in range(3)]
    reader.finish()
    return head, fields


@pytest.mark.parametrize("field", range(3), ids=["y", "pi", "r"])
@pytest.mark.parametrize("change", ["leading zero", "empty"])
def test_vdf_proof_with_non_minimal_integer_refused(tmp_path, field, change):
    """Each integer of a VCKV file has one encoding, minimal big-endian:
    a leading zero byte, or no bytes at all, is refused with exit 2."""
    params = str(tmp_path / "params.json")
    proof = tmp_path / "proof.bin"
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa",
                "-T", "64", "-o", params]) == 0
    assert run(["vdf", "beacon", "--params", params,
                "--input", "deadbeef", "-o", str(proof)]) == 0
    verify = ["vdf", "verify", "--params", params, "--input", "deadbeef",
              str(proof)]
    assert run(verify) == 0
    head, fields = _vdf_proof_fields(proof.read_bytes())
    fields[field] = (b"\x00" + fields[field] if change == "leading zero"
                     else b"")
    proof.write_bytes(head + b"".join(bytes_lp(f) for f in fields))
    assert run(verify) == 2


def _readme_cli_lines():
    """The shell lines of the README's CLI block, `\\` continuations
    joined, comments and blank lines dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [line.strip() for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    """Every `vckit` line of the README's CLI block exits 0, run in order
    in a fresh directory; the block's `echo ... > file` writes the file."""
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert sum(line.startswith("vckit ") for line in lines) >= 15
    for line in lines:
        words = shlex.split(line)
        if words[0] == "echo":
            assert words[2] == ">" and len(words) == 4, line
            Path(words[3]).write_text(words[1] + "\n")
            continue
        assert words[0] == "vckit", line
        assert run(words[1:]) == 0, line
