"""Byte pins of the CLI's stdout and of the action registry.

Each CLI digest is the sha256 of one command's whole stdout, run with
the default seed 0.  Each registry digest is the sha256 of the repr of
one action's record: degree, spacetime, default N, divisor or error
text at N = -3, 0, 1, ..., 12, term list and compiled factor tree.  A
change to any phase, trace, listing, term or message fails here.  The
usage pins hold argparse's help and error text at COLUMNS=80, as
CPython 3.11's argparse words it.
"""

import hashlib
import json

import pytest

from chainphase import actions
from chainphase.cli import main

#: A degree-1 start state for the 56-step word under cube3 at N=3.
INITIAL = {"degree": 1, "modulus": 3,
           "values": {"0,1": 1, "1,2": 2, "2,4": 1, "3,5": 2}}

CLI_PINS = {
    # argv: (sha256 of stdout, exit code)
    "verify-table": (
        "f250a43845d67226acf7e4a3bd7d02508949ccc6283573c67e6887a8cba6fe5a", 0),
    "verify-table --json": (
        "ef4d25130873f992327bf5bfe605180818fc5c82e333b6e249317a673c121dd4", 0),
    "eval --process tjunction --action particle-quad --N 3 --json": (
        "97e6084292d99140a22ad7bfeb5a806842b865bc5214332ce852c7bf4921af14", 0),
    "eval --process tjunction --action particle-quad --N 5 --json": (
        "8595070404f485370a856bba3f64b2e6b15550d71add73cb5a6feefb902f1b76", 0),
    "eval --process tjunction --action particle-quad-even --N 2 --json": (
        "d3fdcf5efb323d05c6c592cbffed93ed6af31e9dbb7ef0df0fc987a97b56d0d6", 0),
    "eval --process tjunction --action particle-quad-even --N 4 --json": (
        "db46f06df5b236fd2e803f5553caca832e8ec0be26e962bc95ff987829bff44f", 0),
    "eval --process mu56 --action cube3 --N 3 --initial INITIAL --json": (
        "2fd2be046c70e53bf14b8e1c897a08f0d8b39cb4adff9c0f40eeb8a70168fd58", 0),
    "selftest": (
        "ccde3173eb43555a8f9f72ab121f611953fa1a313465047e1688adcdd5dec9c5", 0),
    "trace --process mu56 --diff-golden builtin --json": (
        "e3abc432dad8b48d578bd974b49d3ead3e4dacce3f3bd5b15d2853c473c38a11", 0),
    "check-cancel --coeff Z2 --json": (
        "e98bb651cef7e8d86b6a69676b30cb5d1dd42e1eaf647936da051022cd9aa376", 0),
    "steenrod --what psi3 --json": (
        "3148a538cc1ca9bd349d57ace4cc06a00b63a821513bdde2e46ba763d17167ff", 0),
    "steenrod --what d3 --json": (
        "bb5e8e669c88a80c5d05a14342db00197eb429a24d9957146ad6e2efbae27c10", 0),
    "steenrod --what p1 --json": (
        "22cd4137a57f537d721f64ae68d395ec38a6449213fdba32595a239e47648178", 0),
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of ""

USAGE_PINS = {
    # argv: (sha256 of stdout, sha256 of stderr, exit status)
    "-h": (
        "980a565850e2278922647c8821fbebac9a5a0094c87ce2a25a29dfd4f98966f0",
        EMPTY, 0),
    "verify-table -h": (
        "94ec481914db3313694eb650bb4e45d1d16be301dd7b8bf8b1dc18783065a55a",
        EMPTY, 0),
    "eval -h": (
        "84a563ac1f24e685bdd38d0d0b912283794358b5d40337039b4288ba73da76d4",
        EMPTY, 0),
    "trace -h": (
        "592491f22c724e3fa52b0b147b8e40b3597962daa6aac65131916e5e50a5ce76",
        EMPTY, 0),
    "check-cancel -h": (
        "3722a7f60fbf1b9e6e01d393184cd23287b617afe976692cf754f6d1b9778dda",
        EMPTY, 0),
    "steenrod -h": (
        "ce7074baa8244e89e777469cd6f3312f0b3ef64efdc47400f617530c4cc812d9",
        EMPTY, 0),
    "search -h": (
        "32b824bb01efc81cb500f2f3ec557ca2f9dbb06d81b31e4159f6c1d307ca04bf",
        EMPTY, 0),
    "selftest -h": (
        "a75c033de8cf61b607ff992eed611f99c45f66aef7e76dc9b77d425f4ddcea7f",
        EMPTY, 0),
    # --action is required, so the subcommand's own usage error.
    "eval --bogus": (EMPTY,
        "737833c2fa549b91b67a0374948d60725f29ecccc63a65e03719a609e150f727", 2),
    "eval --action cube3 --bogus": (EMPTY,
        "1eba528aaffa22c48ba371350e52806364041bcf110809e93d461330ba26c4b0", 2),
    "nope": (EMPTY,
        "8ff2ed1f9ee040494e6c0df1ce66f73f97fdfca4170702e89139118164af411e", 2),
}

REGISTRY_PINS = {
    "cs-b3":
        "9b124c4077ee8a4d1cdb5e7ed093084380ff970de9e0f9468d4bcb224ae226f7",
    "cube3":
        "292a9bda8b7dc67b7882c57d3b29b3745969ca442378f649dcedeac8b775c621",
    "p1b3":
        "f3388e6771e0c7e2ccd88195edff4d7e76924cd1dd54c5b1c98cc6eef39a9821",
    "p1b4":
        "9db2df3a7ca2ed11cb183f89ab64d4be927592c135201887509f9bf1d44c4962",
    "p1b5":
        "ba8f7cb2757763a8a484775d753e399fe5237160626121afa53795b15895ebbe",
    "particle-quad":
        "d04f7584b7190b0251cce93ee313b8e47c83bf3e359e3a020550945d6282f875",
    "particle-quad-even":
        "03b39566b861f43b6236f889356c5a4549c7073f09cb98e74e2da14aa9ff2102",
    "pontryagin9":
        "98fc496a563a23751b59d3fa034b96255701df52d145209642b7c6c1c8fffb36",
    "sq4-b5":
        "6ef993c33a239a501206790e066473e0aee115e9394b9ffb104388860c15c3a5",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: str, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("CHAINPHASE_SEED", raising=False)
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps(INITIAL))
    code = main([str(initial) if a == "INITIAL" else a
                 for a in argv.split()])
    return code, capsys.readouterr().out


def registry_record(name: str) -> tuple:
    action = actions.get_action(name)
    by_modulus = []
    for N in range(-3, 13):
        try:
            by_modulus.append(actions.get_action(name, N).divisor)
        except ValueError as exc:
            by_modulus.append(str(exc))
    return (action.degree, action.spacetime, action.modulus, by_modulus,
            action.terms, actions._compile_terms(
                action.terms, action.degree, action.spacetime))


@pytest.mark.parametrize("argv", sorted(CLI_PINS))
def test_cli_stdout_is_pinned(argv, capsys, monkeypatch, tmp_path):
    code, out = run_cli(argv, capsys, monkeypatch, tmp_path)
    assert (sha256(out), code) == CLI_PINS[argv]


@pytest.mark.parametrize("argv", sorted(USAGE_PINS))
def test_usage_text_is_pinned(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    assert (sha256(out), sha256(err), exc.value.code) == USAGE_PINS[argv]


@pytest.mark.parametrize("name", sorted(REGISTRY_PINS))
def test_registry_is_pinned(name):
    assert sha256(repr(registry_record(name))) == REGISTRY_PINS[name]


def test_unknown_action_message():
    with pytest.raises(KeyError) as exc:
        actions.get_action("nope")
    assert exc.value.args[0] == (
        "unknown action 'nope'; known: cs-b3, cube3, p1b3, p1b4, p1b5, "
        "particle-quad, particle-quad-even, pontryagin9, sq4-b5")
