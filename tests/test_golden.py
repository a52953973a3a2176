"""Golden corpus: short digests of outputs that accepted inputs keep byte for byte.

Three corpora are pinned: the README's command-line block (each command's exit
code, stdout and stderr, and the ``rim.csv`` that ``spectrum`` writes), the
canonical ball buildings for n = 2..59 (their JSON and the reports with and
without the parity check), and the ``gh`` and ``lagcap`` commands over every
path, format and shape (``CLI_COMMANDS``).  A deliberate output change updates
the digests, which ``python tests/test_golden.py`` prints, with a line in
CHANGES.md that says why.  The ``spectrum`` and ``round`` outputs and ``rim.csv`` print floats,
so their digests are pinned to this interpreter and its libm.
"""
import contextlib
import hashlib
import io
import os
import pathlib
import re
import shlex
from fractions import Fraction

from toricap.cli import main
from toricap.sft_ledger import building_to_json, building_validate, canonical_ball_building, report_to_json

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
DOMAIN_FILES = {
    "square.json": '{"type":"polygon","vertices":[["0","1"],["1","1"],["1","0"]]}',
    "tri11.json": '{"type":"polygon","vertices":[["0","1"],["1","0"]]}',
    "tri12.json": '{"type":"polygon","vertices":[["0","2"],["1","0"]]}',
}
FLOATS = "the spectrum and round outputs and rim.csv print floats, so they are pinned to this interpreter and its libm"

README_DIGESTS = {
    "diag --ellipsoid 3,6": "121bdb0805ac",
    "diag --polygon square.json": "9a48fe8d5878",
    "support --polygon square.json --direction 2,3": "df81ec3235f5",
    "gh --ellipsoid 1,2 --k 1..5": "d721f95bcd57",
    "gh --ellipsoid 1,2 --k 3 --via both": "0b9f177d19e1",
    "spectrum --polygon tri11.json --K 2.1 --tau 1e-3 --boundary-out rim.csv": "cd8986152ba6",
    "round --polygon square.json --tau 1e-2 --v 0.1": "80fa32a427dd",
    "enclose --polygon tri12.json": "9c38baca40f9",
    "lagcap --shape ball --capacity 1 --n 3": "996b493e656d",
    "ledger --canonical-ball-building 3 --epsilon 1/10": "713214185efd",
    "ledger --min-punctures --n 4 --k 4": "df81ec3235f5",
    "ledger --counts --n 6": "f7351448f9a3",
    "ledger --partition --n 2 --epsilon 1/5": "5fc85cbe7482",
}
# gh over each --via and --format, on an ellipsoid and on a polygon, and lagcap over each shape
CLI_COMMANDS = [
    *(f"gh --ellipsoid 1,2 --k 1..6 --via {via} --format {fmt}"
      for via in ("auto", "minmax", "spectrum", "both") for fmt in ("table", "csv", "json")),
    *(f"gh --polygon tri11.json --k 1..6 --via {via} --format {fmt}" for via in ("auto", "minmax") for fmt in ("table", "csv", "json")),
    "gh --polygon tri11.json --k 1..6 --via spectrum",  # the spectrum path needs an ellipsoid: exit 2
    "gh --polygon tri11.json --k 1..6 --via both",
    "lagcap --shape ball --capacity 2 --n 3",
    "lagcap --shape projective --n 2",
    "lagcap --shape ellipsoid4 --axes 3,1/2",
    "lagcap --shape cylinder --n 2 --m 1",
    "lagcap --shape polydisk --radii 1,5/2",
    "lagcap --shape toric --polygon tri12.json",
]
CLI_DIGESTS = {
    "gh --ellipsoid 1,2 --k 1..6 --via auto --format table": "31ac3d50648c",
    "gh --ellipsoid 1,2 --k 1..6 --via auto --format csv": "fd90e2b9904a",
    "gh --ellipsoid 1,2 --k 1..6 --via auto --format json": "dc0ce0afbdb5",
    "gh --ellipsoid 1,2 --k 1..6 --via minmax --format table": "5fede9ef9930",
    "gh --ellipsoid 1,2 --k 1..6 --via minmax --format csv": "8bc6c8d8c286",
    "gh --ellipsoid 1,2 --k 1..6 --via minmax --format json": "cc9155661b8a",
    "gh --ellipsoid 1,2 --k 1..6 --via spectrum --format table": "31ac3d50648c",
    "gh --ellipsoid 1,2 --k 1..6 --via spectrum --format csv": "fd90e2b9904a",
    "gh --ellipsoid 1,2 --k 1..6 --via spectrum --format json": "dc0ce0afbdb5",
    "gh --ellipsoid 1,2 --k 1..6 --via both --format table": "6ff5d561fb97",
    "gh --ellipsoid 1,2 --k 1..6 --via both --format csv": "07ae0e107ccc",
    "gh --ellipsoid 1,2 --k 1..6 --via both --format json": "47e7f0ece29e",
    "gh --polygon tri11.json --k 1..6 --via auto --format table": "d177a5cadae9",
    "gh --polygon tri11.json --k 1..6 --via auto --format csv": "ea24bc40c3e4",
    "gh --polygon tri11.json --k 1..6 --via auto --format json": "e98df6170761",
    "gh --polygon tri11.json --k 1..6 --via minmax --format table": "d177a5cadae9",
    "gh --polygon tri11.json --k 1..6 --via minmax --format csv": "ea24bc40c3e4",
    "gh --polygon tri11.json --k 1..6 --via minmax --format json": "e98df6170761",
    "gh --polygon tri11.json --k 1..6 --via spectrum": "ec0660f6819f",
    "gh --polygon tri11.json --k 1..6 --via both": "ec0660f6819f",
    "lagcap --shape ball --capacity 2 --n 3": "c2595faee2f4",
    "lagcap --shape projective --n 2": "996b493e656d",
    "lagcap --shape ellipsoid4 --axes 3,1/2": "22ce807d943e",
    "lagcap --shape cylinder --n 2 --m 1": "33922837d5f8",
    "lagcap --shape polydisk --radii 1,5/2": "9a48fe8d5878",
    "lagcap --shape toric --polygon tri12.json": "d2e12c798479",
}
# n -> digest of the canonical building for epsilon 1/(n + 1): its JSON and its two reports
BUILDING_DIGESTS = {
    2: "b3ddb5d2db13", 3: "9a0cc90c88d0", 4: "ee556bcbf908", 5: "9ceb945c5c11", 6: "74f9b42e36a7", 7: "7dca2f4869d4",
    8: "2c006a188f18", 9: "d9346aa3867b", 10: "d9d2003a0e0b", 11: "5591db40c2af", 12: "159128b2fa3f", 13: "8368c0af60f7",
    14: "f0e1659b0092", 15: "3979e3bf8f4c", 16: "108a70a7aee8", 17: "dc96bf8163cc", 18: "bff72303de26", 19: "4a8e340aeadd",
    20: "93c15609af24", 21: "0d9bad182c83", 22: "59d116b59627", 23: "219415c7fcce", 24: "015b88f3e14c", 25: "10c4d13f851c",
    26: "9644fb98ff14", 27: "b0b7c06daa25", 28: "a794c5538685", 29: "e8fb53f9ea15", 30: "4acd5982e510", 31: "a819ea861cc9",
    32: "5de127dcd551", 33: "bb0f2567b7a4", 34: "70f0408bce2c", 35: "981e2b54d027", 36: "b742596b89dd", 37: "0cc7eab3dcdd",
    38: "c4e10b5fe7f3", 39: "239d11931567", 40: "6392af9ee5a4", 41: "142ccc980e89", 42: "1b7faaef280b", 43: "e97075b12b12",
    44: "c7128f62d221", 45: "75d6120e9973", 46: "0686e5ced721", 47: "ef7cfef61614", 48: "086242303bd5", 49: "fdfd8af321ed",
    50: "2b57bf6b2c82", 51: "27184025186b", 52: "ece7f7d6a5d7", 53: "36bd0de2e2aa", 54: "ef88b828a61e", 55: "46a1289ec8a1",
    56: "d602116a098a", 57: "4728d10606ad", 58: "393578ecb0bf", 59: "e91598ac773b",
}


def digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:12]


def readme_commands() -> list[str]:
    """The README's command lines, without the leading 'toricap' and the comments."""
    block = re.search(r"```sh\n(.*?)```", README.read_text().split("## Command line", 1)[1], re.S).group(1)
    return [shlex.join(shlex.split(line, comments=True)[1:]) for line in block.splitlines() if line.strip()]


def command_digest(command: str, root: pathlib.Path) -> str:
    """Run one command in root, which holds the domain files, in-process."""
    rim = root / "rim.csv"
    rim.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return digest(str(code), out.getvalue(), err.getvalue(), rim.read_text() if rim.exists() else "")


def building_digest(n: int) -> str:
    building = canonical_ball_building(n, Fraction(1, n + 1))
    reports = [report_to_json(building_validate(building, parity)) for parity in (False, True)]
    return digest(building_to_json(building), *reports)


def command_digests(root: pathlib.Path, commands: list[str]) -> dict[str, str]:
    for name, text in DOMAIN_FILES.items():
        (root / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(root)  # the commands name the domain files and rim.csv relative to it
    try:
        return {command: command_digest(command, root) for command in commands}
    finally:
        os.chdir(cwd)


def first_difference(found: dict, pinned: dict) -> str:
    return next((f"{key!r}: {found.get(key)!r}, pinned {value!r}" for key, value in pinned.items() if found.get(key) != value),
                "")


def test_readme_commands_keep_their_outputs(tmp_path):
    found = command_digests(tmp_path, readme_commands())
    assert list(found) == list(README_DIGESTS), "the README's command block changed: pin its commands here"
    difference = first_difference(found, README_DIGESTS)
    assert not difference, f"first differing command {difference}; {FLOATS}"


def test_gh_and_lagcap_keep_their_outputs(tmp_path):
    found = command_digests(tmp_path, CLI_COMMANDS)
    assert list(found) == list(CLI_DIGESTS), "CLI_COMMANDS changed: pin its commands here"
    difference = first_difference(found, CLI_DIGESTS)
    assert not difference, f"first differing command {difference}"


def test_canonical_buildings_keep_their_json_and_reports():
    found = {n: building_digest(n) for n in range(2, 60)}
    difference = first_difference(found, BUILDING_DIGESTS)
    assert not difference, f"first differing building n = {difference}"


if __name__ == "__main__":  # print the digests to pin, for a deliberate output change
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        print("README_DIGESTS =", command_digests(pathlib.Path(scratch), readme_commands()))
        print("CLI_DIGESTS =", command_digests(pathlib.Path(scratch), CLI_COMMANDS))
    print("BUILDING_DIGESTS =", {n: building_digest(n) for n in range(2, 60)})
