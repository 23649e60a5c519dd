"""Frozen CLI outputs at fixed seeds.

Each case runs one command in-process with --stable-output (where the
command has it), so no timing figure or timestamp reaches its output,
and pins the SHA-256 of the CSV it writes and of what it prints.  A
change to the experiment layer, the CLI or anything beneath them that
moves a single byte of either fails here.
"""
import hashlib

import pytest

from ffast.cli import EXIT_OK, main

SPARSE_5DB = ["--preset", "paper-124950", "--k", "40", "--snr-db", "5",
              "--clusters", "12", "--per-cluster", "3", "--trials", "3",
              "--seed", "20260817"]
CASES = {
    "run-n504-8db": ["run", "--preset", "n504", "--k", "4", "--snr-db", "8",
                     "--trials", "4", "--seed", "3"],
    "run-sparse-5db": ["run", *SPARSE_5DB],
    "run-random-phases": ["run", *SPARSE_5DB, "--random-phases"],
    "sweep": ["sweep", "--scales", "1,2", "--k", "8", "--trials", "2", "--seed", "1"],
    "bounds": ["bounds"],
    "verify": ["verify", "--k", "4", "--trials", "2"],
}
# (CSV, stdout) digests; verify writes no CSV.
DIGESTS = {
    "run-n504-8db": ("f84856182298e7a70be1838588b0e70e2a27c459169255acfe4f86ebab0f015b",
                     "7846c77ee3e6e5811e843d0342b4854ad013bc4825539a6322a7c836d728398a"),
    "run-sparse-5db": ("87780242f1a8e011e0020bbbe5397a5e87221036963918bde06743851b9fae37",
                       "b4ce4fa64398137c5ddb2c8bb2f982f8bc4edf135ba53c1be9c499fdb57b7851"),
    "run-random-phases": ("6c3a3f9f109d01b4db03e4ae9a95e5dd9de34a5fe015d3ed76b21b7ec3af7d96",
                          "1cc3df44c03fe187fc1fe7a36c297f81a27e06f1900c0b12f17ab3d50cf8e749"),
    "sweep": ("755c272ff8c3d2c780eb438d6cdea92d239807d56fef271e3a9b6217b367c33f",
              "46ec845138f39ded60bc82d1457cd9ae885616d4832fb29759d55b8030469f4c"),
    "bounds": ("28231a382422ff0cccf0ba8c7a07a49d1376517c3b57e6bd467fb0b844381695",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify": (None, "0246fd80b6126f1f0b35e4348533412312c27ec3192909e81da786f798a59cb2"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_cli_outputs_are_frozen(name, tmp_path, capsys):
    argv = CASES[name]
    csv_path = tmp_path / "out.csv"
    if argv[0] != "verify":
        argv = [*argv, "--stable-output", "--out", str(csv_path)]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out.encode()
    csv_digest = _sha(csv_path.read_bytes()) if csv_path.exists() else None
    assert (csv_digest, _sha(stdout)) == DIGESTS[name]
