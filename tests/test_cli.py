"""CLI behaviour: exit codes, file round-trips, config handling."""

import json

import pytest

from vckit import cli, vdf
from vckit.encoding import Reader, bytes_lp


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
    assert run(["hauth", "eval", "--key", key, "--circuit", circuit_file,
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
    blob = bytearray(open(proof, "rb").read())
    blob[-1] ^= 1
    open(proof, "wb").write(bytes(blob))
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
    with open(proof_path, "wb") as fh:
        fh.write(vdf.serialize_proof(params, x, proof))


def test_vdf_verify_rejects_zero_delay_forgery(tmp_path, capsys):
    """The proof file's own N, T, lambda and x' are never trusted: a
    self-consistent T = 0 proof is rejected under the real parameters."""
    params = str(tmp_path / "params.json")
    proof = str(tmp_path / "forged.bin")
    assert run(["vdf", "setup", "--bits", "16", "--seed", "aa",
                "-T", "64", "-o", params]) == 0
    _forge_zero_delay(params, proof, "deadbeef")
    capsys.readouterr()
    assert run(["vdf", "verify", "--params", params, "--input", "deadbeef",
                proof]) == 1
    assert "params-mismatch" in capsys.readouterr().out


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


def test_vdf_trapdoor_agrees(tmp_path, capsys):
    params = str(tmp_path / "params.json")
    run(["vdf", "setup", "--bits", "16", "--seed", "bb", "-T", "100",
         "-o", params])
    run(["vdf", "eval", "--params", params, "--input", "0102"])
    slow = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    run(["vdf", "eval", "--params", params, "--input", "0102", "--trapdoor"])
    fast = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert slow == fast


def test_fri_prove_verify(tmp_path):
    proof = str(tmp_path / "fri.bin")
    assert run(["fri", "prove", "--domain", "64", "--degree", "8",
                "--queries", "10", "-o", proof]) == 0
    assert run(["fri", "verify", proof]) == 0
    blob = bytearray(open(proof, "rb").read())
    blob[-3] ^= 1
    open(proof, "wb").write(bytes(blob))
    assert run(["fri", "verify", proof]) in (1, 2)


def test_fri_demo():
    assert run(["fri", "demo", "--domain", "32", "--degree", "4"]) == 0


def test_stark_prove_verify(tmp_path):
    proof = str(tmp_path / "stark.bin")
    assert run(["stark", "prove", "--length", "8", "-o", proof]) == 0
    assert run(["stark", "verify", proof]) == 0


def test_stark_zk_and_custom_boundary(tmp_path):
    proof = str(tmp_path / "stark.bin")
    bad_boundary = str(tmp_path / "b.json")
    # an extra boundary consistent with the fib trace: row 2 holds 2
    good = str(tmp_path / "g.json")
    open(good, "w").write(json.dumps([{"column": 0, "row": 2, "value": 2}]))
    assert run(["stark", "prove", "--length", "8", "--zk",
                "--boundary-json", good, "-o", proof]) == 0
    assert run(["stark", "verify", proof]) == 0
    open(bad_boundary, "w").write(
        json.dumps([{"column": 0, "row": 2, "value": 3}]))
    assert run(["stark", "prove", "--length", "8",
                "--boundary-json", bad_boundary, "-o", proof]) == 2


def test_usage_errors(tmp_path):
    assert run(["nope"]) == 2
    assert run(["vdf"]) == 2
    assert run(["hauth", "keygen", "--seed", "xyz",
                "-o", str(tmp_path / "k.json")]) == 2
    params = str(tmp_path / "params.json")
    run(["vdf", "setup", "--bits", "16", "--seed", "aa", "-o", params])
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


def test_config_file(tmp_path):
    cfg = str(tmp_path / "vckit.cfg")
    open(cfg, "w").write("# comment\nqueries = 6\nblowup = 4\n")
    proof = str(tmp_path / "s.bin")
    assert run(["--config", cfg, "stark", "prove", "--length", "8",
                "-o", proof]) == 0
    assert run(["stark", "verify", proof]) == 0


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
    assert run(["hauth", "eval", "--key", key, "--circuit", str(circuit),
                "--tags", tag, "-o", str(tmp_path / "out.bin")]) == 2


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


@pytest.mark.parametrize("header", [b"{\"program\": ", b'{"program": "fib"}',
                                    b"\xff\xfe",
                                    b'{"program": "fib", "length": "8"}',
                                    b'{"program": 1, "length": 8}'])
def test_bad_stark_proof_header(tmp_path, header):
    proof = tmp_path / "s.bin"
    assert run(["stark", "prove", "--length", "8", "-o", str(proof)]) == 0
    reader = Reader(proof.read_bytes())
    reader.bytes_lp()
    proof.write_bytes(bytes_lp(header) + reader.data[reader.pos:])
    assert run(["stark", "verify", str(proof)]) == 2


def test_tag_file_with_trailing_byte_rejected(tmp_path, circuit_file):
    key, t1, t2, out = (str(tmp_path / n)
                        for n in ("key.json", "t1.bin", "t2.bin", "out.bin"))
    assert run(["hauth", "keygen", "--seed", "00ff", "-o", key]) == 0
    for tag, m, label in ((t1, "3", "a"), (t2, "5", "b")):
        assert run(["hauth", "auth", "--key", key, "-m", m,
                    "--label", label, "-o", tag]) == 0
    assert run(["hauth", "eval", "--key", key, "--circuit", circuit_file,
                "--tags", t1, t2, "-o", out]) == 0
    verify = ["hauth", "verify", "--key", key, "--circuit", circuit_file,
              "--labels", "a", "b", "--tag", out, "--claim", "22"]
    assert run(verify) == 0
    with open(out, "ab") as fh:
        fh.write(b"\x00")
    assert run(verify) == 2
