"""The CLI bytes corpus, the one in-process record of each argv it holds:
every argv in `golden/cli_corpus.txt` must keep the contract of
`test_cli_contract.assert_contract` and give the recorded exit code,
stdout and stderr.

Each line of the file is the sha256 of `json.dumps([code, stdout,
stderr])`, a space, and the argv as a JSON list. Each line is one test id,
named by its line number and command (`0412-solve`). `corpus_argvs`
builds the list; the file must hold exactly that list, in order, so a
change to the corpus or to any output is a visible edit to one file.
A text argv and its `--format json` twin give the same code and stderr,
unless the code is 2 the JSON holds every number of the text, and when
the code is 0 or 1 the text is `cli.to_text` of the parsed JSON.
argparse usage errors and help text are left out: their wording moves
between Python versions. `USAGE` in `test_cli_contract.py` checks the
contract on four usage errors, and the `help*.txt` goldens pin the help
for the CI version.

After an intended change to the output, rewrite the file with
`PYTHONPATH=src python tests/test_cli_corpus.py` and review its diff.
"""

import hashlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

from herdsplit import cli

from references import LCM_800_CHECK
from test_cli_contract import assert_contract, run_cli

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.txt"

# Valid specs: 1-5 heirs with repeated divisors, the paper's examples and
# a sum one short of the unit.
VALID_SPECS = (
    "3", "3,3", "3,4,4", "4,4,4", "3,3,9,9", "2,7,7,7", "5,5,5,5",
    "6,6,6,6,6", "2,3,9", "3,4,5,6", "3,6,9,12", "2,3,7,43,1807",
)
# Overfull, exact-unit and nonpositive lists: validation rejects each.
INVALID_SPECS = ("1", "2,2", "2,3,6", "2,3,4", "0", "2,-3", "2,0,5")
# Sylvester's sequence to seven terms: the sum is 1 - 1/m with m of 27
# digits.
BIG_SPEC = "2,3,7,43,1807,3263443,10650056950807"


def _r(spec):
    divisors = [int(s) for s in spec.split(",")]
    m = math.lcm(*divisors)
    return sum(m // s for s in divisors)


def _herds(r):
    """Feasible, infeasible and huge herds around r."""
    big = r * 10**20
    return dict.fromkeys([1, r - 1, r, r + 1, 2 * r, big, big + 1])


def _both_formats(argv):
    return [argv, [*argv, "--format", "json"]]


def corpus_argvs():
    argvs = []
    for spec in (*VALID_SPECS, BIG_SPEC, *INVALID_SPECS):
        argvs += _both_formats(["check", "--divisors", spec])
    for spec in (*VALID_SPECS, BIG_SPEC):
        r = _r(spec)
        for herd in _herds(r):
            for command in ("solve", "breakdown", "explain"):
                argvs += _both_formats([command, "--divisors", spec, "--herd", str(herd)])
        for limit in dict.fromkeys([-1, r - 1, r, 5 * r]):
            argvs += _both_formats(["herds", "--divisors", spec, "--limit", str(limit)])
    for command in ("solve", "breakdown", "explain"):
        for herd in ("-1", "0"):
            argvs += _both_formats([command, "--divisors", "2,3,9", "--herd", herd])
        for spec in INVALID_SPECS:
            argvs.append([command, "--divisors", spec, "--herd", "17"])
    for spec in INVALID_SPECS:
        argvs.append(["herds", "--divisors", spec, "--limit", "60"])
    # A herd past CPython's 4300-digit int<->str limit.
    past_limit = "17" + "0" * 4400
    for command in ("solve", "breakdown", "explain"):
        argvs.append([command, "--divisors", "2,3,9", "--herd", past_limit,
                      "--format", "json"])
    for heirs in (1, 2, 3, 4):
        for top in (3, 12):
            for loan in (None, 0, 5):
                for dup in (False, True):
                    argv = ["generate", "--heirs", str(heirs), "--max-divisor", str(top)]
                    argv += [] if loan is None else ["--max-loan", str(loan)]
                    argvs += _both_formats(argv + ["--duplicates"] * dup)
    # Out-of-range bounds, and a search over the node budget.
    for bad in (["0", "6"], ["2", "1"], ["1", "1000000000000"]):
        argvs += _both_formats(["generate", "--heirs", bad[0], "--max-divisor", bad[1]])
    argvs += _both_formats(["generate", "--heirs", "2", "--max-divisor", "6",
                            "--max-loan", "-1"])
    # The loan cap, not the divisor cap, ends this search: the seven
    # borrow-one puzzles of three heirs.
    argvs += _both_formats(["generate", "--heirs", "3", "--max-divisor",
                            "1000000000000", "--max-loan", "1"])
    # The paper's listing and puzzles: herds of 2,3,9 to 60, the borrow-one
    # and quartet searches, and searches with no tuple and with no loan cap.
    argvs += _both_formats(["herds", "--divisors", "2,3,9", "--limit", "60"])
    for heirs, top, loan in ((3, 9, ["--max-loan", "1"]), (4, 12, ["--max-loan", "11"]),
                             (2, 2, []), (2, 6, [])):
        argvs += _both_formats(["generate", "--heirs", str(heirs),
                                "--max-divisor", str(top), *loan])
    # An lcm of 4802 digits, past CPython's 4300-digit limit.
    argvs.append(LCM_800_CHECK)
    return argvs


def digest(outcome):
    """sha256 of an (exit code, stdout, stderr) outcome."""
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()


def read_corpus():
    entries = []
    for line in CORPUS.read_text().splitlines():
        recorded, argv = line.split(" ", 1)
        entries.append((recorded, json.loads(argv)))
    return entries


ENTRIES = read_corpus()
ARGVS = {tuple(argv) for _, argv in ENTRIES}


def assert_the_formats_agree(text, as_json):
    """A text argv's outcome and its JSON twin's have the same code and
    stderr. Unless the code is 2, every number of the text is in the JSON,
    which adds at most "1": the denominator of a whole share. With a result
    (code 0 or 1), the text prints the very payload the JSON encodes; no
    digit limit applies, as every integer in it stays a string."""
    code, out, err = text
    assert (as_json[0], as_json[2]) == (code, err)
    if code != 2:
        numbers = set(re.findall(r"\d+", out))
        assert numbers <= set(re.findall(r"\d+", as_json[1])) <= numbers | {"1"}
    if code in (0, 1):
        assert out == cli.to_text(json.loads(as_json[1]))


def test_corpus_lists_the_built_argvs():
    assert [argv for _, argv in ENTRIES] == corpus_argvs()


@pytest.mark.parametrize(
    "recorded, argv",
    ENTRIES,
    ids=[f"{n:04d}-{argv[0]}" for n, (_, argv) in enumerate(ENTRIES, 1)],
)
def test_every_argv_gives_the_recorded_bytes(recorded, argv):
    outcome = assert_contract(argv)
    assert digest(outcome) == recorded, "output changed"
    if argv[-2:] == ["--format", "json"] and tuple(argv[:-2]) in ARGVS:
        assert_the_formats_agree(run_cli(argv[:-2]), outcome)


if __name__ == "__main__":
    lines = []
    for argv in corpus_argvs():
        outcome = run_cli(argv)
        if outcome[2].startswith("usage:"):
            sys.exit(f"argparse rejects {argv}; the corpus leaves usage errors out")
        lines.append(f"{digest(outcome)} {json.dumps(argv)}\n")
    CORPUS.write_text("".join(lines))
    print(f"wrote {len(lines)} argvs to {CORPUS}")
